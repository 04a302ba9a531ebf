// Parallel multi-start SA: quality and wall-clock versus a single chain.
//
// Three modes on the same instance and IM start, K = 4 chains:
//   single    — one SA chain of N iterations (the paper's reference)
//   eq_budget — K chains of N/K iterations: equal total evaluations.
//               Multi-start diversification under a fixed budget; ties or
//               wins on small/medium instances, can lose to the slow
//               cooling of one long chain on the largest ones.
//   eq_time   — K chains of N iterations each on P threads: with P >= K
//               cores this costs the wall-clock of `single` but is
//               guaranteed no worse (chain 0 replays the single chain and
//               selection keeps the best feasible incumbent).
// The ensemble is deterministic for any thread count, so the speedup
// column (same eq_budget ensemble on 1 thread vs P threads) is a pure
// wall-clock measurement; it needs P >= 4 physical cores to show.
//
// A second table does the same for tabu search, whose candidate batches
// (8 per iteration, SA iterations / 4 iterations) are evaluated on the
// same fork-join pool: tabu seconds on 1 and on P threads, and the speedup.
//
// Both thread-count pairs must give the same result, field by field; the
// bench exits 1 when either differs, so it doubles as the determinism gate.
#include <algorithm>
#include <cstdio>
#include <thread>

#include "bench_common.h"
#include "core/optimizer.h"
#include "util/stats.h"

namespace {

/// Every deterministic RunReport field (all but the wall-clock seconds).
bool sameResult(const ides::RunReport& a, const ides::RunReport& b) {
  return a.feasible == b.feasible && a.mapping == b.mapping &&
         a.schedule.processes() == b.schedule.processes() &&
         a.schedule.messages() == b.schedule.messages() &&
         a.objective == b.objective && a.metrics.c1p == b.metrics.c1p &&
         a.metrics.c1m == b.metrics.c1m && a.metrics.c2p == b.metrics.c2p &&
         a.metrics.c2mBytes == b.metrics.c2mBytes &&
         a.evaluations == b.evaluations && a.proposals == b.proposals &&
         a.accepted == b.accepted && a.zeroDeltaSkips == b.zeroDeltaSkips &&
         a.stopped == b.stopped;
}

}  // namespace

int main() {
  using namespace ides;
  using namespace ides::bench;

  const BenchScale scale = benchScale();
  const int restarts = 4;
  const int threads =
      std::max(4u, std::thread::hardware_concurrency());
  printHeader("Parallel SA — best-of-K quality and thread-pool speedup",
              "single chain of N vs K chains at equal budget / equal time",
              scale);
  std::printf("restarts K=%d, threads P=%d (hardware: %u)\n\n", restarts,
              threads, std::thread::hardware_concurrency());

  CsvTable table({"current_processes", "single_C", "eq_budget_C", "eq_time_C",
                  "eq_time_wins", "single_seconds", "eq_budget_1t_seconds",
                  "eq_budget_Pt_seconds", "eq_time_Pt_seconds", "speedup"});

  CsvTable tabuTable({"current_processes", "tabu_C", "tabu_1t_seconds",
                      "tabu_Pt_seconds", "speedup", "identical"});
  bool allIdentical = true;

  for (const std::size_t size : scale.sizes) {
    StatAccumulator singleC, budgetC, timeC;
    StatAccumulator tabuC, tTabu1, tTabuP;
    bool tabuSame = true;
    StatAccumulator tSingle, tBudget1, tBudgetP, tTimeP;
    int wins = 0;
    for (int s = 0; s < scale.seeds; ++s) {
      const Suite suite =
          buildSuite(paperConfig(size), 3000 + static_cast<std::uint64_t>(s));
      DesignerOptions opts = designerOptions(scale, 1);
      IncrementalDesigner designer(suite.system, suite.profile, opts);
      const SolutionEvaluator& evaluator = designer.evaluator();
      // Every run starts from the same Initial Mapping; its seconds cover
      // IM + improvement + final evaluation.
      const auto run = [&](const Optimizer& optimizer) {
        RunContext context;
        return optimizer.run(evaluator, context);
      };

      const RunReport one = run(SimulatedAnnealingOptimizer(opts.sa));
      tSingle.add(one.seconds);
      singleC.add(one.objective);

      ParallelSaOptions par;
      par.restarts = restarts;
      par.perChainIterations = std::max(1, opts.sa.iterations / restarts);
      par.threads = 1;
      const RunReport seq = run(ParallelAnnealingOptimizer(opts.sa, par));
      tBudget1.add(seq.seconds);
      par.threads = threads;
      const RunReport pool = run(ParallelAnnealingOptimizer(opts.sa, par));
      tBudgetP.add(pool.seconds);
      budgetC.add(pool.objective);
      if (!sameResult(seq, pool)) {
        std::fprintf(stderr, "[n=%zu seed %d] PSA differs on 1 and %d threads\n",
                     size, s, threads);
        allIdentical = false;
      }

      par.perChainIterations = 0;  // full N per chain
      const RunReport wide = run(ParallelAnnealingOptimizer(opts.sa, par));
      tTimeP.add(wide.seconds);
      timeC.add(wide.objective);
      if (wide.objective <= one.objective + 1e-9) ++wins;

      TabuOptions tabu = opts.tabu;
      tabu.iterations = std::max(1, opts.sa.iterations / 4);
      tabu.threads = 1;
      const RunReport tabuSerial = run(TabuSearchOptimizer(tabu));
      tTabu1.add(tabuSerial.seconds);
      tabuC.add(tabuSerial.objective);
      tabu.threads = threads;
      const RunReport tabuPool = run(TabuSearchOptimizer(tabu));
      tTabuP.add(tabuPool.seconds);
      if (!sameResult(tabuSerial, tabuPool)) {
        std::fprintf(stderr,
                     "[n=%zu seed %d] tabu differs on 1 and %d threads\n",
                     size, s, threads);
        tabuSame = false;
        allIdentical = false;
      }
    }
    const double speedup =
        tBudgetP.mean() > 0.0 ? tBudget1.mean() / tBudgetP.mean() : 0.0;
    table.addRow({CsvTable::num(static_cast<long long>(size)),
                  CsvTable::num(singleC.mean(), 2),
                  CsvTable::num(budgetC.mean(), 2),
                  CsvTable::num(timeC.mean(), 2),
                  CsvTable::num(static_cast<long long>(wins)),
                  CsvTable::num(tSingle.mean(), 3),
                  CsvTable::num(tBudget1.mean(), 3),
                  CsvTable::num(tBudgetP.mean(), 3),
                  CsvTable::num(tTimeP.mean(), 3),
                  CsvTable::num(speedup, 2)});
    std::printf(
        "  [n=%zu] C: single=%.2f eq_budget=%.2f eq_time=%.2f "
        "(eq_time wins %d/%d)  wall: single=%.3fs ensemble 1t=%.3fs "
        "%dt=%.3fs (%.2fx)\n",
        size, singleC.mean(), budgetC.mean(), timeC.mean(), wins,
        scale.seeds, tSingle.mean(), tBudget1.mean(), threads,
        tBudgetP.mean(), speedup);

    const double tabuSpeedup =
        tTabuP.mean() > 0.0 ? tTabu1.mean() / tTabuP.mean() : 0.0;
    tabuTable.addRow({CsvTable::num(static_cast<long long>(size)),
                      CsvTable::num(tabuC.mean(), 2),
                      CsvTable::num(tTabu1.mean(), 3),
                      CsvTable::num(tTabuP.mean(), 3),
                      CsvTable::num(tabuSpeedup, 2),
                      tabuSame ? "yes" : "NO"});
    std::printf("  [n=%zu] tabu C=%.2f  wall: 1t=%.3fs %dt=%.3fs (%.2fx)%s\n",
                size, tabuC.mean(), tTabu1.mean(), threads, tTabuP.mean(),
                tabuSpeedup, tabuSame ? "" : "  RESULT DIFFERS");
  }

  std::printf("\n");
  printTableAndCsv(table);
  std::printf(
      "\neq_time is the recommended production mode: with P >= K cores it\n"
      "matches the single chain's wall-clock and is never worse on cost\n"
      "(chain 0 replays the single chain; best feasible incumbent wins).\n");

  std::printf("\nTabu search, candidate batches on 1 vs %d threads:\n\n",
              threads);
  printTableAndCsv(tabuTable);
  if (!allIdentical) {
    std::fprintf(stderr,
                 "FAIL: a result changed with the thread count (PSA and tabu "
                 "must be bit-identical at any thread count)\n");
    return 1;
  }
  return 0;
}
