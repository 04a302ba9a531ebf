// idesbench — the IDES benchmark program.
//
//   idesbench --workload design-paper|lifecycle-warm --seed N --seconds S
//             --trace 0|1 --serve-bin PATH --work-dir DIR
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1
// records spans around every call it makes into a layer and reports
// the per-layer metrics: the workload's own layers from its own traced
// unit, and every other layer from a small probe of the other workload and
// a short ides_serve session on the same seed, so each per-layer metric is
// defined on each workload.
// Prints a provenance line, a sample-count line, then one JSON result line:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

#include "bench.h"
#include "util/json_reader.h"
#include "util/provenance.h"

#ifndef IDESBENCH_BUILD_TYPE
#define IDESBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace idesbench;

bool parseArgs(int argc, char** argv, RunOptions& opt) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      opt.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      opt.trace = value == "1";
    } else if (flag == "--serve-bin") {
      opt.serveBinary = value;
    } else if (flag == "--work-dir") {
      opt.workDir = value;
    } else {
      return false;
    }
  }
  return (argc % 2 == 1) && !opt.workDir.empty() && !opt.serveBinary.empty() &&
         (opt.workload == "design-paper" || opt.workload == "lifecycle-warm");
}

std::string cpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string provenanceJson(const RunOptions& opt) {
  const ides::Provenance& p = ides::buildProvenance();
  return "{\"provenance\": {\"nproc\": " +
         std::to_string(std::thread::hardware_concurrency()) +
         ", \"cpu_model\": " + ides::jsonQuote(cpuModel()) +
         ", \"compiler\": " + ides::jsonQuote(p.compiler) +
         ", \"build_type\": " + ides::jsonQuote(IDESBENCH_BUILD_TYPE) +
         ", \"git_sha\": " + ides::jsonQuote(p.gitSha) +
         ", \"workload\": " + ides::jsonQuote(opt.workload) +
         ", \"seed\": " + std::to_string(opt.seed) +
         ", \"trace\": " + (opt.trace ? "1" : "0") + "}}";
}

std::string resultJson(const Checks& checks, const Metrics& metrics) {
  std::string out = std::string("{\"correct\": ") +
                    (checks.failed() == 0 ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(checks.attempted()) +
                    ", \"failed\": " + std::to_string(checks.failed()) +
                    ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics.all()) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    out += (first ? "" : ", ") + ides::jsonQuote(name) + ": {\"value\": " +
           value + ", \"unit\": " + ides::jsonQuote(m.unit) + "}";
    first = false;
  }
  return out + "}}";
}

/// Sample count behind every reported metric (its own line: the result
/// line's shape is fixed).
std::string samplesJson(const Metrics& metrics) {
  std::string out = "{\"samples\": {";
  bool first = true;
  for (const auto& [name, m] : metrics.all()) {
    out += (first ? "" : ", ") + ides::jsonQuote(name) + ": " +
           std::to_string(m.samples);
    first = false;
  }
  return out + "}}";
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions opt;
  if (!parseArgs(argc, argv, opt)) {
    std::fprintf(stderr,
                 "usage: idesbench --workload design-paper|lifecycle-warm "
                 "--seed N --seconds S --trace 0|1 --serve-bin PATH "
                 "--work-dir DIR\n");
    return 2;
  }
  std::filesystem::create_directories(opt.workDir);
  const std::string runId =
      opt.workload + "-seed" + std::to_string(opt.seed) + "-" +
      std::to_string(std::chrono::system_clock::now().time_since_epoch().count());
  if (opt.trace) Tracer::instance().enable(runId);

  Checks checks;
  Metrics e2e;
  Metrics layers;
  try {
    if (opt.workload == "design-paper") {
      runDesignPaper(opt, checks, e2e, layers);
    } else {
      runLifecycleWarm(opt, checks, e2e, layers);
    }
    if (opt.trace) {
      // Layers the workload does not reach, from probes on the same seed.
      if (opt.workload == "design-paper") {
        probeLifecycleLayers(opt, checks, layers);
      } else {
        probeDesignLayers(opt, checks, layers);
      }
      probeServeLayers(opt, checks, layers);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "idesbench: %s\n", e.what());
    return 1;
  }

  const double fails = static_cast<double>(checks.failed());
  const double attempts = static_cast<double>(checks.attempted());
  layers.put("fail_frac", attempts > 0 ? fails / attempts : 1.0, "ratio",
             checks.attempted());
  if (opt.trace) {
    Tracer::instance().write(opt.workDir + "/trace-" + runId + ".json");
  }
  const Metrics& reported = opt.trace ? layers : e2e;
  std::printf("%s\n%s\n%s\n", provenanceJson(opt).c_str(),
              samplesJson(reported).c_str(),
              resultJson(checks, reported).c_str());
  return 0;
}
