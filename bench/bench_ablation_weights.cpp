// Ablation A2: sensitivity of the design to the objective weights.
//
// The repo fixes w1P = w1m = 1 and w2P = w2m = 2 (core/metrics.h; the
// paper gives the objective's form but not the values). This ablation
// re-runs MH under different weight ratios and reports both the resulting
// metrics and the future-fit rate, showing that (a) emphasizing C2 is what
// protects the periodic slack, and (b) the conclusion "MH supports
// incremental design" is robust across reasonable weightings.
//
// The weight cases × seeds grid runs through the sharded BatchRunner
// (core/batch_suites.h weightsSweep), future-fit counts via the probe.
#include "bench_common.h"

#include "util/stats.h"

int main() {
  using namespace ides;
  using namespace ides::bench;

  const BenchScale scale = benchScale();
  printHeader("Ablation A2 — objective weight sensitivity",
              "MH results under different w2/w1 ratios (current app: 240 "
              "processes)", scale);

  const InstanceSuite suite = weightsSweep(scale);
  const BatchReport report = runAndPublish(suite, "ablation_weights", scale);
  const BatchIndex index(report);  // O(1) per-(group, seed) lookup

  // Case names in suite order (the canonical grouping).
  std::vector<std::string> caseNames;
  for (const BatchInstance& instance : suite.instances()) {
    if (caseNames.empty() || caseNames.back() != instance.group) {
      caseNames.push_back(instance.group);
    }
  }

  CsvTable table({"weights", "C1P_pct", "C2P_ticks", "future_fit_pct"});

  for (const std::string& name : caseNames) {
    StatAccumulator c1p, c2p;
    double fits = 0.0, samples = 0.0;
    for (int s = 0; s < scale.seeds; ++s) {
      const InstanceResult* mh = index.find(name, s, "MH");
      if (mh == nullptr) continue;
      c1p.add(mh->outcome.report.metrics.c1p);
      c2p.add(static_cast<double>(mh->outcome.report.metrics.c2p));
      fits += extraValue(*mh, "future_fit");
      samples += extraValue(*mh, "future_samples");
    }
    const double fitPct = samples > 0.0 ? 100.0 * fits / samples : 0.0;
    table.addRow({name, CsvTable::num(c1p.mean()),
                  CsvTable::num(c2p.mean(), 0), CsvTable::num(fitPct, 1)});
    std::printf("  %-18s C1P=%5.2f%%  C2P=%7.0f  future-fit=%5.1f%%\n",
                name.c_str(), c1p.mean(), c2p.mean(), fitPct);
  }

  std::printf("\n");
  printTableAndCsv(table);
  std::printf(
      "\nShape check: dropping the C2 term (w2=0) should collapse C2P and\n"
      "with it the future-fit rate; any w2 >= 1 should protect both.\n");
  return 0;
}
