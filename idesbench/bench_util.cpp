#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <thread>

#include "bench.h"
#include "obs/telemetry.h"
#include "util/json_reader.h"

namespace idesbench {

void Checks::expect(bool ok, const std::string& what) {
  std::lock_guard<std::mutex> lock(mutex_);
  ++attempted_;
  if (!ok) {
    ++failed_;
    std::fprintf(stderr, "check failed: %s\n", what.c_str());
  }
}

std::size_t Checks::attempted() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return attempted_;
}

std::size_t Checks::failed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return failed_;
}

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  if (p == 0.5) {
    return n % 2 == 1 ? samples[n / 2]
                      : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
  }
  const auto rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(n)));
  return samples[std::clamp<std::size_t>(rank, 1, n) - 1];
}

double median(const std::vector<double>& samples) {
  return percentile(samples, 0.5);
}

double geomean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double logSum = 0.0;
  for (const double v : values) logSum += std::log(v);
  return std::exp(logSum / static_cast<double>(values.size()));
}

void Metrics::put(const std::string& name, double value,
                  const std::string& unit, std::size_t samples) {
  values_[name] = MetricValue{value, unit, samples};
}

void Metrics::offer(const std::string& name, double value,
                    const std::string& unit, std::size_t samples) {
  values_.try_emplace(name, MetricValue{value, unit, samples});
}

// ---- tracing ---------------------------------------------------------------

namespace {
thread_local std::vector<std::size_t> tOpenSpans;

unsigned threadTag() {
  return static_cast<unsigned>(
      std::hash<std::thread::id>{}(std::this_thread::get_id()) & 0xffffu);
}
}  // namespace

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

void Tracer::enable(std::string runId) {
  std::lock_guard<std::mutex> lock(mutex_);
  runId_ = std::move(runId);
  origin_ = Clock::now();
  enabled_ = true;
  recording_ = true;
}

void Tracer::setScope(std::string scope) {
  std::lock_guard<std::mutex> lock(mutex_);
  scope_ = std::move(scope);
}

std::size_t Tracer::begin(std::string_view name) {
  const double t = secondsSince(origin_);
  std::lock_guard<std::mutex> lock(mutex_);
  Record span;
  span.name = std::string(name);
  span.scope = scope_;
  span.start = t;
  span.parent = tOpenSpans.empty() ? -1 : static_cast<long>(tOpenSpans.back());
  span.thread = threadTag();
  spans_.push_back(std::move(span));
  tOpenSpans.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void Tracer::end(std::size_t index) {
  const double t = secondsSince(origin_);
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[index].end = t;
  if (!tOpenSpans.empty() && tOpenSpans.back() == index) tOpenSpans.pop_back();
}

std::vector<double> Tracer::durations(std::string_view name,
                                      std::string_view scope) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<double> out;
  for (const Record& s : spans_) {
    if (s.name == name && (scope.empty() || s.scope == scope)) {
      out.push_back(s.end - s.start);
    }
  }
  return out;
}

bool Tracer::write(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  // Self time: the span's interval minus the union of its children's.
  std::vector<std::vector<std::pair<double, double>>> children(spans_.size());
  for (const Record& s : spans_) {
    if (s.parent >= 0) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start, s.end);
    }
  }
  std::map<std::string, std::pair<double, std::size_t>> selfByLayer;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Record& s = spans_[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0.0;
    double reach = s.start;
    for (const auto& [a, b] : kids) {
      const double lo = std::max(a, reach);
      const double hi = std::min(b, s.end);
      if (hi > lo) covered += hi - lo;
      reach = std::max(reach, hi);
    }
    const std::string layer = s.name.substr(0, s.name.find('/'));
    auto& slot = selfByLayer[layer];
    slot.first += std::max(0.0, (s.end - s.start) - covered);
    ++slot.second;
  }

  std::ofstream out(path, std::ios::binary);
  if (!out) return false;
  out << "{\n  \"run_id\": " << ides::jsonQuote(runId_)
      << ",\n  \"self_seconds_by_layer\": {";
  bool first = true;
  for (const auto& [layer, v] : selfByLayer) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.9g", v.first);
    out << (first ? "\n" : ",\n") << "    " << ides::jsonQuote(layer)
        << ": {\"self_s\": " << buf << ", \"spans\": " << v.second << "}";
    first = false;
  }
  out << "\n  },\n  \"spans\": [";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Record& s = spans_[i];
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "\"start\": %.9f, \"end\": %.9f, \"parent\": %ld, "
                  "\"thread\": %u}",
                  s.start, s.end, s.parent, s.thread);
    out << (i == 0 ? "\n" : ",\n") << "    {\"id\": " << i
        << ", \"name\": " << ides::jsonQuote(s.name)
        << ", \"scope\": " << ides::jsonQuote(s.scope) << ", " << buf;
  }
  out << "\n  ]\n}\n";
  return static_cast<bool>(out);
}

void offerSpanStat(Metrics& out, const std::string& metric,
                   std::string_view span, std::string_view ownScope,
                   double p, double factor, const std::string& unit) {
  const Tracer& tracer = Tracer::instance();
  std::vector<double> d = tracer.durations(span, ownScope);
  if (d.empty()) d = tracer.durations(span, {});
  if (d.empty()) return;
  out.offer(metric, percentile(d, p) * factor, unit, d.size());
}

std::map<std::string, double> parsePrometheus(const std::string& text) {
  std::map<std::string, double> out;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    const std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    const std::size_t space = line.rfind(' ');
    if (line.empty() || line[0] == '#' || space == std::string::npos) continue;
    out[line.substr(0, space)] = std::strtod(line.c_str() + space + 1, nullptr);
  }
  return out;
}

std::map<std::string, double> registrySnapshot() {
  return parsePrometheus(ides::telemetry().prometheusText());
}

double seriesValue(const std::map<std::string, double>& series,
                   const std::string& key) {
  const auto it = series.find(key);
  return it == series.end() ? 0.0 : it->second;
}

double seriesDelta(const std::map<std::string, double>& before,
                   const std::map<std::string, double>& after,
                   const std::string& key) {
  return seriesValue(after, key) - seriesValue(before, key);
}

double selfPeakRssMb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace idesbench
