// The serve probe: one short session of an ides_serve child process (2 job
// workers, a fresh store directory) driven by four connections from this
// process, run by every traced run to measure the serve, job-manager, store,
// batch-runner and JSON layers.
//
//  * Three fast clients submit small design jobs (AH/MH, 10 nodes / 200
//    frozen / 80 current), poll the status and fetch the result. About
//    three quarters of submissions repeat a spec that client has already
//    seen finish (design-cache store reads); the rest are fresh specs (an
//    optimization plus a store write). Client 0 also submits the
//    quality/smoke sweep early (executed through BatchRunner, 9 records
//    written) and again half-way (answered 9/9 from the store). All three
//    send periodic /healthz, /metrics and GET /jobs listings.
//  * The fourth connection is a slow sender: it trickles each /healthz
//    request over ~100 ms and idles ~400 ms, never silent for as long as
//    the daemon's 5 s receive timeout. It exposes the head-of-line blocking
//    of the single-threaded accept loop.
//
// Every distinct served result is checked against the in-process
// designResultJson(runDesignJob(spec)). The client is C++ so its own cost
// stays out of the latencies.
#include <fcntl.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <thread>

#include "bench.h"
#include "serve/daemon.h"
#include "serve/design_job.h"
#include "serve/http_server.h"
#include "serve/job_manager.h"
#include "store/sweep_store.h"
#include "util/json_reader.h"
#include "util/rng.h"

namespace idesbench {
namespace {

using namespace ides;
namespace fs = std::filesystem;

constexpr int kFastClients = 3;
constexpr std::size_t kJobsPerClient = 24;
const char* const kSweepBody =
    "{\"type\": \"sweep\", \"sweep\": \"quality\", \"scale\": \"smoke\"}";

// ---- daemon process ----------------------------------------------------------

/// One ides_serve child: spawned on construction, SIGTERM + wait on stop()
/// or destruction.
class Daemon {
 public:
  Daemon(const std::string& binary, const std::string& storeDir,
         const std::string& logFile) {
    int fds[2];
    if (::pipe(fds) != 0) return;
    pid_ = ::fork();
    if (pid_ == 0) {
      // Die with idesbench, and keep its stdout/stderr free.
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      ::dup2(fds[1], STDOUT_FILENO);
      const int err = ::open(logFile.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
      if (err >= 0) ::dup2(err, STDERR_FILENO);
      ::close(fds[0]);
      ::close(fds[1]);
      // Finished jobs are kept (0 = no eviction) so a long sweep cannot be
      // evicted by hundreds of cached jobs before its client polls it.
      ::execl(binary.c_str(), binary.c_str(), "--port", "0", "--workers", "2",
              "--retain-finished", "0", "--store-dir", storeDir.c_str(),
              "--log", logFile.c_str(), static_cast<char*>(nullptr));
      ::_exit(127);
    }
    ::close(fds[1]);
    out_ = fds[0];
    if (pid_ < 0) return;
    // "ides_serve listening on 127.0.0.1:<port>\n"
    std::string line;
    char c = 0;
    while (::read(out_, &c, 1) == 1 && c != '\n') line += c;
    const std::size_t colon = line.rfind(':');
    if (colon != std::string::npos) port_ = std::atoi(line.c_str() + colon + 1);
  }
  ~Daemon() { stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  [[nodiscard]] int port() const { return port_; }

  /// SIGTERM, then wait (SIGKILL after 10 s). True when it exited 0.
  bool stop() {
    if (out_ >= 0) ::close(out_);
    out_ = -1;
    if (pid_ <= 0) return false;
    ::kill(pid_, SIGTERM);
    int status = 0;
    bool exited = false;
    for (int i = 0; i < 1000 && !exited; ++i) {
      exited = ::waitpid(pid_, &status, WNOHANG) == pid_;
      if (!exited) std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    if (!exited) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &status, 0);
    }
    pid_ = -1;
    return exited && WIFEXITED(status) && WEXITSTATUS(status) == 0;
  }

 private:
  int pid_ = -1;
  int out_ = -1;
  int port_ = 0;
};

// ---- client ------------------------------------------------------------------

int connectLoopback(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  const timeval timeout{30, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// Reads until the daemon closes, then resets the connection (SO_LINGER 0)
/// instead of leaving a TIME_WAIT socket: a run opens ~10^5 loopback
/// connections, and a full TIME_WAIT table slows every later connect, so
/// consecutive runs would drift.
std::string readAllAndReset(int fd) {
  std::string reply;
  char buf[4096];
  ssize_t got = 0;
  while ((got = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    reply.append(buf, static_cast<std::size_t>(got));
  }
  const linger reset{1, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_LINGER, &reset, sizeof(reset));
  ::close(fd);
  return reply;
}

std::string requestBytes(const std::string& method, const std::string& target,
                         const std::string& body) {
  std::string wire = method + " " + target +
                     " HTTP/1.1\r\nHost: 127.0.0.1\r\nConnection: close\r\n";
  if (method == "POST") {
    wire += "Content-Length: " + std::to_string(body.size()) +
            "\r\nContent-Type: application/json\r\n";
  }
  return wire + "\r\n" + body;
}

struct Reply {
  int status = 0;  ///< 0 when no complete response arrived
  std::string body;
};

/// One request on its own connection (the daemon answers one request per
/// connection and closes).
Reply httpCall(int port, const std::string& wire) {
  Reply r;
  const int fd = connectLoopback(port);
  if (fd < 0) return r;
  if (::send(fd, wire.data(), wire.size(), MSG_NOSIGNAL) !=
      static_cast<ssize_t>(wire.size())) {
    (void)readAllAndReset(fd);
    return r;
  }
  const std::string raw = readAllAndReset(fd);
  const std::size_t headerEnd = raw.find("\r\n\r\n");
  if (raw.rfind("HTTP/1.1 ", 0) != 0 || headerEnd == std::string::npos) {
    return r;
  }
  r.status = std::atoi(raw.c_str() + 9);
  r.body = raw.substr(headerEnd + 4);
  return r;
}

struct Request {
  std::string endpoint;  ///< route pattern, e.g. "GET /jobs/{id}"
  std::string wire;      ///< the request bytes sent
  double ms = 0.0;
};

struct ClientLog {
  std::vector<Request> requests;
  std::vector<double> jobMs, runMs, queueWaitMs;
  std::size_t jobs = 0;
  std::size_t polls = 0;
  std::vector<std::string> payloads;  ///< every result body fetched
  std::map<std::uint64_t, std::string> firstResult;  ///< by spec seed
  std::map<std::uint64_t, std::string> specBody;
  double sweepExecS = 0.0;
  double sweepCachedMs = 0.0;
};

class Client {
 public:
  Client(int port, Checks& checks, ClientLog& log)
      : port_(port), checks_(checks), log_(log) {}

  Reply call(const std::string& endpoint, const std::string& method,
             const std::string& target, const std::string& body = {}) {
    std::string wire = requestBytes(method, target, body);
    const auto t0 = Clock::now();
    Reply r;
    {
      const Span s("serve.http_server/" + endpoint);
      r = httpCall(port_, wire);
    }
    log_.requests.push_back(
        Request{endpoint, std::move(wire), secondsSince(t0) * 1e3});
    return r;
  }

  bool expectStatus(const Reply& r, int status, const std::string& what) {
    const bool ok = r.status == status;
    checks_.expect(ok, what + " answered " + std::to_string(status) +
                           " (got " + std::to_string(r.status) + ")");
    return ok;
  }

  /// POST the job; returns its id or empty on failure.
  std::string submit(const std::string& body) {
    const Reply r = call("POST /jobs", "POST", "/jobs", body);
    if (!expectStatus(r, 202, "POST /jobs")) return {};
    return parseJson(r.body).stringAt("id");
  }

  /// GET the status once; nullopt while queued or running.
  std::optional<JsonValue> finished(const std::string& id) {
    const Reply r = call("GET /jobs/{id}", "GET", "/jobs/" + id);
    ++log_.polls;
    if (!expectStatus(r, 200, "GET /jobs/" + id)) return JsonValue{};
    JsonValue status = parseJson(r.body);
    const std::string& state = status.stringAt("state");
    if (state == "queued" || state == "running") return std::nullopt;
    checks_.expect(state == "done", "job " + id + " done (state " + state + ")");
    return status;
  }

  JsonValue waitFor(const std::string& id) {
    for (int i = 0;; ++i) {
      if (std::optional<JsonValue> s = finished(id)) return *s;
      // Back off from 50 us to 2 ms: a cached job is seen done within a
      // fraction of a millisecond, a fresh one within ~2 ms of finishing.
      std::this_thread::sleep_for(
          std::chrono::microseconds(std::min(2000, 50 << std::min(i, 6))));
    }
  }

  std::string result(const std::string& id) {
    const Reply r =
        call("GET /jobs/{id}/result", "GET", "/jobs/" + id + "/result");
    expectStatus(r, 200, "GET /jobs/" + id + "/result");
    log_.payloads.push_back(r.body);
    return r.body;
  }

  void periodic(std::size_t i) {
    if (i % 3 == 0) {
      expectStatus(call("GET /healthz", "GET", "/healthz"), 200,
                   "GET /healthz");
    }
    if (i % 12 == 5) {
      expectStatus(call("GET /jobs", "GET", "/jobs?limit=20"), 200,
                   "GET /jobs");
    }
    if (i % 24 == 11) {
      expectStatus(call("GET /metrics", "GET", "/metrics"), 200,
                   "GET /metrics");
    }
  }

 private:
  int port_;
  Checks& checks_;
  ClientLog& log_;
};

std::string designBody(std::uint64_t specSeed, bool mh) {
  return std::string("{\"type\": \"design\", \"strategy\": \"") +
         (mh ? "MH" : "AH") +
         "\", \"nodes\": 10, \"existing\": 200, \"current\": 80, \"seed\": " +
         std::to_string(specSeed) + "}";
}

/// Sweep bookkeeping of client 0: first run executed, second cached.
struct SweepRun {
  std::string id;
  std::string result;
  bool done = false;
};

void pollSweep(Client& client, SweepRun& sweep, int round, ClientLog& log,
               Checks& checks, const std::string& firstResult) {
  std::optional<JsonValue> status = client.finished(sweep.id);
  if (!status) return;
  sweep.done = true;
  if (!status->isObject()) return;  // the failed check is already counted
  sweep.result = client.result(sweep.id);
  const double runtime = status->numberAt("runtime_seconds");
  const auto hits = status->intAt("cache_hits");
  const auto executed = status->intAt("executed");
  if (round == 0) {
    checks.expect(executed == 9 && hits == 0,
                  "first sweep executed 9 instances (executed " +
                      std::to_string(executed) + ", hits " +
                      std::to_string(hits) + ")");
    log.sweepExecS = runtime;
  } else {
    checks.expect(hits == 9 && executed == 0,
                  "repeated sweep answered 9/9 from the store (hits " +
                      std::to_string(hits) + ")");
    checks.expect(sweep.result == firstResult,
                  "repeated sweep result identical");
    log.sweepCachedMs = runtime * 1e3;
  }
}

void fastClientLoop(int port, int index, std::uint64_t seed, std::size_t jobs,
                    Checks& checks, ClientLog& log);

/// Thread entry: an exception (e.g. a malformed reply) is one failed check.
void fastClient(int port, int index, std::uint64_t seed, std::size_t jobs,
                Checks& checks, ClientLog& log) {
  try {
    fastClientLoop(port, index, seed, jobs, checks, log);
  } catch (const std::exception& e) {
    checks.expect(false, std::string("fast client: ") + e.what());
  }
}

/// One fast client's closed loop of `jobs` design submissions.
void fastClientLoop(int port, int index, std::uint64_t seed, std::size_t jobs,
                    Checks& checks, ClientLog& log) {
  Client client(port, checks, log);
  Rng rng(rngStreamSeed(seed, 10 + static_cast<std::uint64_t>(index)));
  std::vector<std::uint64_t> seen;
  // Client 0 submits the sweep first, resubmits it once the first run is
  // done and half of its design jobs are through, and drains both at the
  // end if the design loop finished first.
  SweepRun sweeps[2];
  if (index == 0) sweeps[0].id = client.submit(kSweepBody);
  const auto sweepStep = [&](bool drain) {
    for (int round = 0; round < 2; ++round) {
      SweepRun& sw = sweeps[round];
      if (sw.id.empty() || sw.done) continue;
      pollSweep(client, sw, round, log, checks, sweeps[0].result);
      if (!sw.done) return;
    }
    if (sweeps[0].done && sweeps[1].id.empty() && drain) {
      sweeps[1].id = client.submit(kSweepBody);
    }
  };

  // Every 4th submission is a fresh spec, alternately MH and AH; the rest
  // repeat a finished spec drawn from the seed. Fixed counts keep the work
  // per session equal across seeds.
  for (std::size_t i = 0; i < jobs; ++i) {
    std::uint64_t specSeed = 0;
    if (i % 4 == 0) {
      specSeed = (seed % 100000) * 1000000 +
                 static_cast<std::uint64_t>(index) * 100000 + seen.size() + 1;
      log.specBody[specSeed] = designBody(specSeed, seen.size() % 2 == 0);
      seen.push_back(specSeed);
    } else {
      specSeed = seen[rng.index(seen.size())];
    }
    const bool repeat = log.firstResult.count(specSeed) != 0;
    const auto t0 = Clock::now();
    {
      const Span s("serve.job_manager/design-job");
      const std::string id = client.submit(log.specBody[specSeed]);
      if (!id.empty()) {
        const JsonValue status = client.waitFor(id);
        const std::string body = client.result(id);
        const double ms = secondsSince(t0) * 1e3;
        const double runMs =
            status.isObject() ? status.numberAt("runtime_seconds") * 1e3 : 0.0;
        log.jobMs.push_back(ms);
        log.runMs.push_back(runMs);
        log.queueWaitMs.push_back(ms - runMs);
        ++log.jobs;
        if (repeat) {
          checks.expect(body == log.firstResult[specSeed],
                        "cached resubmit returns identical bytes");
          checks.expect(status.isObject() && status.boolAt("cached"),
                        "resubmitted spec served from the design cache");
        } else {
          log.firstResult[specSeed] = body;
          const JsonValue result = parseJson(body);
          checks.expect(result.boolAt("feasible") &&
                            result.boolAt("validation_ok"),
                        "design job feasible and valid");
        }
      }
    }
    client.periodic(i);
    if (index == 0 && i % 4 == 3) sweepStep(i >= jobs / 2);
  }
  while (index == 0 && !(sweeps[0].done && sweeps[1].done)) {
    sweepStep(true);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

/// Trickles /healthz over ~100 ms, idles ~400 ms, until `stop`.
void slowSender(int port, const std::atomic<bool>& stop, Checks& checks) {
  const std::string request = requestBytes("GET", "/healthz", {});
  while (!stop.load()) {
    const int fd = connectLoopback(port);
    bool ok = fd >= 0;
    const std::size_t chunk = (request.size() + 4) / 5;
    for (std::size_t off = 0; ok && off < request.size(); off += chunk) {
      const std::size_t n = std::min(chunk, request.size() - off);
      ok = ::send(fd, request.data() + off, n, MSG_NOSIGNAL) ==
           static_cast<ssize_t>(n);
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    const std::string reply = fd >= 0 ? readAllAndReset(fd) : std::string();
    checks.expect(reply.rfind("HTTP/1.1 200", 0) == 0,
                  "slow /healthz answered 200");
    for (int i = 0; i < 40 && !stop.load(); ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
}

// ---- one session -------------------------------------------------------------

struct Session {
  std::map<std::string, double> counters;  ///< /metrics after the clients
  ClientLog log;  ///< all fast clients merged
  std::string storeDir;
};

/// Polls /healthz until it answers 200 (at most ~2 s).
bool waitHealthy(const Daemon& daemon, Checks& checks) {
  bool healthy = false;
  if (daemon.port() > 0) {
    const std::string wire = requestBytes("GET", "/healthz", {});
    for (int i = 0; i < 2000 && !healthy; ++i) {
      healthy = httpCall(daemon.port(), wire).status == 200;
      if (!healthy) std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  checks.expect(healthy, "daemon answers /healthz after spawn");
  return healthy;
}

Session runSession(const RunOptions& opt, Checks& checks) {
  Session s;
  s.storeDir = opt.workDir + "/serve-store";
  fs::remove_all(s.storeDir);
  fs::remove(s.storeDir + ".log");
  Daemon daemon(opt.serveBinary, s.storeDir, s.storeDir + ".log");
  if (!waitHealthy(daemon, checks)) return s;

  std::vector<ClientLog> logs(kFastClients);
  std::atomic<bool> stop{false};
  {
    std::thread slow(slowSender, daemon.port(), std::cref(stop),
                     std::ref(checks));
    std::vector<std::thread> fast;
    for (int c = 0; c < kFastClients; ++c) {
      fast.emplace_back(fastClient, daemon.port(), c, opt.seed, kJobsPerClient,
                        std::ref(checks), std::ref(logs[static_cast<std::size_t>(c)]));
    }
    for (std::thread& t : fast) t.join();
    stop = true;
    slow.join();
  }

  const Reply m =
      httpCall(daemon.port(), requestBytes("GET", "/metrics", {}));
  checks.expect(m.status == 200, "final /metrics scrape");
  s.counters = parsePrometheus(m.body);
  checks.expect(daemon.stop(), "daemon exits 0 on SIGTERM");

  for (ClientLog& l : logs) {
    ClientLog& all = s.log;
    all.requests.insert(all.requests.end(), l.requests.begin(), l.requests.end());
    for (std::vector<double> ClientLog::*v :
         {&ClientLog::jobMs, &ClientLog::runMs, &ClientLog::queueWaitMs}) {
      (all.*v).insert((all.*v).end(), (l.*v).begin(), (l.*v).end());
    }
    all.payloads.insert(all.payloads.end(), l.payloads.begin(), l.payloads.end());
    all.jobs += l.jobs;
    all.polls += l.polls;
    all.firstResult.insert(l.firstResult.begin(), l.firstResult.end());
    all.specBody.insert(l.specBody.begin(), l.specBody.end());
    all.sweepExecS = std::max(all.sweepExecS, l.sweepExecS);
    all.sweepCachedMs = std::max(all.sweepCachedMs, l.sweepCachedMs);
  }
  return s;
}

/// Every distinct spec's fetched bytes equal the in-process
/// designResultJson(runDesignJob(spec)); run on 4 threads after the
/// session.
void checkInProcess(const ClientLog& log, Checks& checks) {
  std::vector<std::pair<std::uint64_t, std::string>> specs(
      log.firstResult.begin(), log.firstResult.end());
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> pool;
  for (int t = 0; t < 4; ++t) {
    pool.emplace_back([&] {
      for (std::size_t i = next++; i < specs.size(); i = next++) {
        const JsonValue body = parseJson(log.specBody.at(specs[i].first));
        DesignJobSpec spec;
        spec.nodes = 10;
        spec.existing = 200;
        spec.current = 80;
        spec.seed = specs[i].first;
        spec.strategy = body.stringAt("strategy");
        RunContext context;
        const std::string local =
            designResultJson(runDesignJob(spec, context), false);
        checks.expect(local == specs[i].second,
                      "served result equals in-process designResultJson");
      }
    });
  }
  for (std::thread& t : pool) t.join();
}

std::vector<double> endpointMs(const ClientLog& log, const std::string& ep) {
  std::vector<double> out;
  for (const Request& r : log.requests) {
    if (r.endpoint == ep) out.push_back(r.ms);
  }
  return out;
}

void offerEndpoint(Metrics& layers, const ClientLog& log,
                   const std::string& metric, const std::string& ep, double p) {
  const std::vector<double> ms = endpointMs(log, ep);
  if (!ms.empty()) layers.offer(metric, percentile(ms, p), "ms", ms.size());
}

/// In-process layer timings on the session's own data: parseHttpRequest on
/// the request bytes the clients sent, routeRequest for the GET endpoints,
/// SweepStore store/load of the sweep's records, parseJson of the results.
void inProcessLayers(const RunOptions& opt, const Session& s, Checks& checks,
                     Metrics& layers) {
  std::vector<double> parseUs;
  for (const Request& r : s.log.requests) {
    HttpRequest parsed;
    const auto t0 = Clock::now();
    HttpParseResult res;
    {
      const Span sp("serve.http_server/parseHttpRequest");
      res = parseHttpRequest(r.wire, parsed);
    }
    parseUs.push_back(secondsSince(t0) * 1e6);
    if (res.status != HttpParseStatus::Done) {
      checks.expect(false, "captured request parses");
    }
  }
  layers.offer("http.parse_us", median(parseUs), "us", parseUs.size());

  std::vector<double> jsonUs;
  for (const std::string& payload : s.log.payloads) {
    const auto t0 = Clock::now();
    {
      const Span sp("util.json_reader/parseJson");
      (void)parseJson(payload);
    }
    jsonUs.push_back(secondsSince(t0) * 1e6);
  }
  layers.offer("json.parse_us", median(jsonUs), "us", jsonUs.size());

  // Store: re-store and re-load the sweep's records in a scratch store.
  std::vector<InstanceOutcome> outcomes;
  std::error_code ec;
  for (const auto& entry :
       fs::directory_iterator(fs::path(s.storeDir) / "records", ec)) {
    std::ifstream in(entry.path(), std::ios::binary);
    const std::string text((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    outcomes.push_back(
        parseSweepRecord(parseJson(text), entry.path().stem().string()));
  }
  checks.expect(outcomes.size() == 9, "sweep wrote 9 store records");
  const std::string probeDir = opt.workDir + "/store-probe";
  fs::remove_all(probeDir);
  SweepStore store(probeDir);
  std::vector<double> writeUs, readUs;
  for (int rep = 0; rep < 5; ++rep) {
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
      char fp[33];
      std::snprintf(fp, sizeof(fp), "%032zx", static_cast<std::size_t>(rep) * 100 + i);
      const auto t0 = Clock::now();
      bool stored = false;
      {
        const Span sp("store/SweepStore.store");
        stored = store.store(fp, "quality", "probe", outcomes[i]);
      }
      writeUs.push_back(secondsSince(t0) * 1e6);
      const auto t1 = Clock::now();
      std::optional<InstanceOutcome> loaded;
      {
        const Span sp("store/SweepStore.load");
        loaded = store.load(fp);
      }
      readUs.push_back(secondsSince(t1) * 1e6);
      checks.expect(stored && loaded.has_value(), "store record round-trips");
    }
  }
  layers.offer("store.record_write_us", median(writeUs), "us", writeUs.size());
  layers.offer("store.record_read_us", median(readUs), "us", readUs.size());

  // routeRequest on an in-process job manager holding a few finished jobs.
  JobManagerOptions jo;
  jo.workers = 1;
  JobManager jobs(jo);
  ServeRuntime runtime{jobs, nullptr, std::string()};
  std::vector<std::string> ids;
  for (int i = 0; i < 4; ++i) {
    const JobManager::Submission sub =
        jobs.submit(parseJobSpec(designBody(static_cast<std::uint64_t>(i) + 1, false)));
    ids.push_back(sub.id);
  }
  for (const std::string& id : ids) {
    while (jobs.state(id) == JobState::Queued ||
           jobs.state(id) == JobState::Running) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  std::vector<double> routeUs;
  for (int rep = 0; rep < 50; ++rep) {
    for (const std::string& target :
         {std::string("/healthz"), std::string("/jobs"),
          "/jobs/" + ids[static_cast<std::size_t>(rep) % ids.size()],
          "/jobs/" + ids[static_cast<std::size_t>(rep) % ids.size()] + "/result",
          std::string("/metrics")}) {
      HttpRequest req;
      req.method = "GET";
      req.target = target;
      req.path = target;
      const auto t0 = Clock::now();
      HttpResponse resp;
      {
        const Span sp("serve.daemon/routeRequest");
        resp = routeRequest(runtime, req);
      }
      routeUs.push_back(secondsSince(t0) * 1e6);
      if (resp.status != 200) checks.expect(false, "routeRequest " + target);
    }
  }
  layers.offer("serve.route_us", median(routeUs), "us", routeUs.size());
}

void offerLayers(const RunOptions& opt, const Session& traced, Checks& checks,
                 Metrics& layers) {
  const ClientLog& log = traced.log;
  offerEndpoint(layers, log, "http.post_jobs_ms_p50", "POST /jobs", 0.5);
  offerEndpoint(layers, log, "http.status_ms_p50", "GET /jobs/{id}", 0.5);
  offerEndpoint(layers, log, "http.result_ms_p50", "GET /jobs/{id}/result", 0.5);
  offerEndpoint(layers, log, "http.healthz_ms_p99", "GET /healthz", 0.99);
  offerEndpoint(layers, log, "http.metrics_ms_p50", "GET /metrics", 0.5);
  offerEndpoint(layers, log, "http.list_jobs_ms_p50", "GET /jobs", 0.5);
  const std::size_t n = log.jobMs.size();
  layers.offer("jobs.queue_wait_ms_p50", median(log.queueWaitMs), "ms", n);
  layers.offer("jobs.queue_wait_ms_p99", percentile(log.queueWaitMs, 0.99),
               "ms", n);
  layers.offer("jobs.run_ms_p50", median(log.runMs), "ms", n);
  layers.offer("jobs.polls_per_job",
               static_cast<double>(log.polls) / static_cast<double>(n),
               "ratio", n);
  const auto& c = traced.counters;
  const double hits =
      seriesValue(c, "ides_serve_design_cache_total{result=\"hit\"}");
  const double misses =
      seriesValue(c, "ides_serve_design_cache_total{result=\"miss\"}");
  layers.offer("store.design_cache_hit_share", hits / (hits + misses), "ratio",
               static_cast<std::size_t>(hits + misses));
  layers.offer("store.design_cache_hits", hits, "count", 1);
  layers.offer("store.design_cache_misses", misses, "count", 1);
  layers.offer("store.sweep_cache_hits",
               seriesValue(c, "ides_store_sweep_cache_total{result=\"hit\"}"),
               "count", 1);
  layers.offer("store.sweep_cache_misses",
               seriesValue(c, "ides_store_sweep_cache_total{result=\"miss\"}"),
               "count", 1);
  layers.offer("store.records_read",
               seriesValue(c, "ides_store_records_read_total"), "count", 1);
  layers.offer("store.records_written",
               seriesValue(c, "ides_store_records_written_total"), "count", 1);
  layers.offer("batch.sweep_exec_s", log.sweepExecS, "s", 1);
  layers.offer("batch.sweep_cached_ms", log.sweepCachedMs, "ms", 1);
  inProcessLayers(opt, traced, checks, layers);
}

}  // namespace

void probeServeLayers(const RunOptions& opt, Checks& checks,
                      Metrics& layers) {
  Tracer::instance().setScope("probe");
  const Session s = runSession(opt, checks);
  checkInProcess(s.log, checks);
  offerLayers(opt, s, checks, layers);
}

}  // namespace idesbench
