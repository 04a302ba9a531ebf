// Figure F1 (paper slide 15): average percentage deviation of the AH and MH
// objective C from the near-optimal SA reference, versus the number of
// processes in the current application (existing base: 400 processes).
//
// Expected shape (paper): AH far above MH at every size where the current
// application actually stresses the system; MH within a few percent of SA.
//
// The sweep itself (sizes × seeds × {AH, MH, SA}) runs through the sharded
// BatchRunner (IDES_BENCH_SHARDS, default all cores); per-strategy results
// are bit-identical to the old per-designer loop and to any shard count.
#include "bench_common.h"
#include "util/stats.h"

// The deviation is signed: a strategy that beats SA reads below 0.
static_assert(ides::bench::deviationPercent(2.0, 4.0) == -50.0);

int main() {
  using namespace ides;
  using namespace ides::bench;

  const BenchScale scale = benchScale();
  printHeader("Figure F1 — quality of the mapping strategies",
              "Avg % deviation of AH and MH cost C from near-optimal (SA)",
              scale);

  const InstanceSuite suite = qualitySweep(scale);
  const BatchReport report = runAndPublish(suite, "fig_quality", scale);
  const BatchIndex index(report);  // O(1) per-(group, seed, strategy) lookup

  CsvTable table({"current_processes", "dev_AH_pct", "dev_MH_pct",
                  "C_AH", "C_MH", "C_SA"});
  std::vector<double> xs, ahSeries, mhSeries;

  for (const std::size_t size : scale.sizes) {
    std::string group = "n";
    group += std::to_string(size);
    StatAccumulator devAh, devMh, cAh, cMh, cSa;
    for (int s = 0; s < scale.seeds; ++s) {
      const InstanceResult* ah = index.find(group, s, "AH");
      const InstanceResult* mh = index.find(group, s, "MH");
      const InstanceResult* sa = index.find(group, s, "SA");
      if (ah == nullptr || mh == nullptr || sa == nullptr) continue;
      const double cahv = ah->outcome.report.objective;
      const double cmhv = mh->outcome.report.objective;
      const double csav = sa->outcome.report.objective;
      devAh.add(deviationPercent(cahv, csav));
      devMh.add(deviationPercent(cmhv, csav));
      cAh.add(cahv);
      cMh.add(cmhv);
      cSa.add(csav);
      std::printf("  [n=%zu seed=%d] C: AH=%.2f MH=%.2f SA=%.2f\n", size, s,
                  cahv, cmhv, csav);
    }
    table.addRow({CsvTable::num(static_cast<long long>(size)),
                  CsvTable::num(devAh.mean()), CsvTable::num(devMh.mean()),
                  CsvTable::num(cAh.mean()), CsvTable::num(cMh.mean()),
                  CsvTable::num(cSa.mean())});
    xs.push_back(static_cast<double>(size));
    ahSeries.push_back(devAh.mean());
    mhSeries.push_back(devMh.mean());
  }

  std::printf("\n");
  printTableAndCsv(table);

  AsciiChart chart("Avg % deviation from near-optimal (SA = 0 by definition)",
                   "processes in current application",
                   "% deviation (negative = better than SA)");
  chart.setXAxis(xs);
  chart.addSeries("AH", ahSeries);
  chart.addSeries("MH", mhSeries);
  chart.render(std::cout);

  std::printf(
      "\nPaper shape check: AH should sit far above MH wherever the current\n"
      "application loads the system; MH should stay within a few %% of SA\n"
      "(below 0 where MH beats it).\n");
  return 0;
}
