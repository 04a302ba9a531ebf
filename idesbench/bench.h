// Shared plumbing of the IDES benchmark program: run options, the checks
// ledger, sample statistics, the metric sink and the span recorder.
//
// idesbench never edits the library: every span it records sits around a
// call it makes into a layer's public API, so tracing is a property of the
// benchmark run (--trace 1), not of the program under test.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace idesbench {

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string serveBinary;  ///< ides_serve built next to idesbench
  std::string workDir;      ///< scratch space inside the checkout
};

/// Correctness ledger: every check is one attempt; a failed check is one
/// failure and is echoed to stderr with its reason.
class Checks {
 public:
  void expect(bool ok, const std::string& what);
  [[nodiscard]] std::size_t attempted() const;
  [[nodiscard]] std::size_t failed() const;

 private:
  mutable std::mutex mutex_;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
};

/// Nearest-rank percentile (p in (0, 1]); p = 0.5 is the median, averaging
/// the two middle samples of an even count. 0 for an empty set.
double percentile(std::vector<double> samples, double p);
double median(const std::vector<double>& samples);
/// Geometric mean of positive values (0 for an empty set).
double geomean(const std::vector<double>& values);

struct MetricValue {
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;
};

/// Metric name -> value. `put` overwrites; `offer` keeps an existing value,
/// so a workload's own measurement wins over a probe's.
class Metrics {
 public:
  void put(const std::string& name, double value, const std::string& unit,
           std::size_t samples);
  void offer(const std::string& name, double value, const std::string& unit,
             std::size_t samples);
  [[nodiscard]] const std::map<std::string, MetricValue>& all() const {
    return values_;
  }

 private:
  std::map<std::string, MetricValue> values_;
};

/// In-memory span recorder. A span is (name, scope, start, end, parent,
/// thread); all spans of one run share the run id. Disabled, begin/end are
/// a single branch.
class Tracer {
 public:
  static Tracer& instance();

  void enable(std::string runId);
  /// Recording on/off without losing the spans so far (an untraced
  /// reference pass inside a traced run).
  void setRecording(bool on) { recording_ = on && enabled_; }
  [[nodiscard]] bool on() const { return recording_; }
  /// Label stamped on spans begun from now on (the workload whose unit is
  /// running), so per-layer metrics can prefer the workload's own spans.
  void setScope(std::string scope);

  std::size_t begin(std::string_view name);
  void end(std::size_t index);

  /// Durations (seconds) of the spans called `name`, optionally restricted
  /// to one scope (empty = any).
  [[nodiscard]] std::vector<double> durations(std::string_view name,
                                              std::string_view scope) const;
  /// Writes every span plus the per-layer self time (span duration minus
  /// the part of it covered by child spans, summed per layer = the text
  /// before the first '/') as JSON.
  bool write(const std::string& path) const;

 private:
  struct Record {
    std::string name;
    std::string scope;
    double start = 0.0;
    double end = 0.0;
    long parent = -1;
    unsigned thread = 0;
  };

  bool enabled_ = false;
  std::atomic<bool> recording_{false};
  std::string runId_;
  Clock::time_point origin_ = Clock::now();
  mutable std::mutex mutex_;
  std::string scope_;
  std::vector<Record> spans_;
};

/// RAII span around one call into a layer: `Span s("sched/scheduleGraphs")`.
class Span {
 public:
  explicit Span(std::string_view name)
      : index_(Tracer::instance().on() ? Tracer::instance().begin(name)
                                       : kNone) {}
  ~Span() {
    if (index_ != kNone) Tracer::instance().end(index_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  std::size_t index_;
};

/// Per-layer timing from spans: median (or percentile) of the durations of
/// `name`, own scope first, any scope as fallback; scaled by `factor`
/// (1e3 for ms, 1e6 for us). Offered (not put) into `out`.
void offerSpanStat(Metrics& out, const std::string& metric,
                   std::string_view span, std::string_view ownScope,
                   double p, double factor, const std::string& unit);

/// Prometheus text exposition -> series value keyed by `name{labels}`
/// exactly as rendered (comments skipped).
std::map<std::string, double> parsePrometheus(const std::string& text);

/// The program's own telemetry registry in this process, read-only.
std::map<std::string, double> registrySnapshot();
/// Value of one series (0 when absent).
double seriesValue(const std::map<std::string, double>& series,
                   const std::string& key);
/// after[key] - before[key].
double seriesDelta(const std::map<std::string, double>& before,
                   const std::map<std::string, double>& after,
                   const std::string& key);

/// Peak resident set of this process, MiB.
double selfPeakRssMb();

// Workload entry points. Each fills `e2e` (always) and, when tracing,
// `layers` with its own per-layer metrics.
void runDesignPaper(const RunOptions& opt, Checks& checks, Metrics& e2e,
                    Metrics& layers);
void runLifecycleWarm(const RunOptions& opt, Checks& checks, Metrics& e2e,
                      Metrics& layers);

// Probes: small traced versions of the other workloads, and a short
// ides_serve session, run by a traced run so that every per-layer metric is
// defined on every workload. They only `offer` metrics.
void probeDesignLayers(const RunOptions& opt, Checks& checks,
                       Metrics& layers);
void probeLifecycleLayers(const RunOptions& opt, Checks& checks,
                          Metrics& layers);
void probeServeLayers(const RunOptions& opt, Checks& checks,
                      Metrics& layers);

}  // namespace idesbench
