// Ablation A1: the value of MH's "highest potential" move selection.
//
// The paper's MH examines only the design transformations with the highest
// potential to improve C (processes bordering small slack fragments or
// inside starved Tmin windows, targets ranked by periodic headroom). This
// ablation pits MH against a same-acceptance-rule hill-climber that draws
// its moves uniformly at random, at several evaluation budgets. Two honest
// observations fall out on these synthetic instances: (1) both leave IM far
// behind — the transformation *set* (move process/message into another
// slack) is what matters most; (2) random descent is a strong early
// competitor, because right after IM nearly every evacuation of the crammed
// first window improves C. MH's structured scan is what gives the heuristic
// a deterministic, parameter-free stopping point (its local minimum) at a
// comparable cost, which is the property the paper's methodology needs.
#include "bench_common.h"

#include "core/initial_mapping.h"
#include "core/optimizer.h"
#include "util/rng.h"
#include "util/stats.h"

namespace {

using namespace ides;

/// Greedy hill-climber with uniformly random moves, stopped after
/// `evaluationBudget` evaluations.
double randomHillClimb(const SolutionEvaluator& eval,
                       const MappingSolution& initial,
                       std::size_t evaluationBudget, std::uint64_t seed) {
  const SystemModel& sys = eval.system();
  Rng rng(seed);
  std::vector<ProcessId> procs;
  for (GraphId g : eval.currentGraphs()) {
    const ProcessGraph& graph = sys.graph(g);
    procs.insert(procs.end(), graph.processes.begin(),
                 graph.processes.end());
  }
  MappingSolution best = initial;
  double bestCost = eval.evaluate(best).cost;
  for (std::size_t i = 1; i < evaluationBudget; ++i) {
    MappingSolution trial = best;
    const ProcessId p = rng.pick(procs);
    const Process& proc = sys.process(p);
    const auto allowed = proc.allowedNodes();
    const NodeId n = allowed[rng.index(allowed.size())];
    trial.setNode(p, n);
    const ProcessGraph& graph = sys.graph(proc.graph);
    const Time maxHint = std::max<Time>(0, graph.deadline - proc.wcetOn(n));
    trial.setStartHint(p, maxHint > 0 ? rng.uniformInt(0, maxHint) : 0);
    const double cost = eval.evaluate(trial).cost;
    if (cost < bestCost) {
      bestCost = cost;
      best = std::move(trial);
    }
  }
  return bestCost;
}

/// MH from the Initial Mapping, its search stopped after `evaluationBudget`
/// evaluations; `evalsUsed` also counts the IM and the final evaluation.
double mhWithBudget(const SolutionEvaluator& eval,
                    std::size_t evaluationBudget, std::size_t* evalsUsed) {
  MhOptions opts;
  opts.maxEvaluations = evaluationBudget;
  RunContext context;
  const RunReport r = MappingHeuristicOptimizer(opts).run(eval, context);
  if (evalsUsed != nullptr) *evalsUsed = r.evaluations;
  return r.objective;
}

}  // namespace

int main() {
  using namespace ides::bench;

  const BenchScale scale = benchScale();
  printHeader("Ablation A1 — MH move selection",
              "Potential-driven vs random moves at equal evaluation budgets "
              "(current app: 240 processes)", scale);

  CsvTable table({"budget_evals", "C_IM", "C_MH", "C_random"});

  const std::size_t size = 240;
  const std::vector<std::size_t> budgets = {120, 400, 1600};
  for (const std::size_t budget : budgets) {
    StatAccumulator cIm, cMh, cRnd;
    for (int s = 0; s < scale.seeds; ++s) {
      const Suite suite =
          buildSuite(paperConfig(size), 4000 + static_cast<std::uint64_t>(s));
      const FrozenBase frozen = freezeExistingApplications(suite.system);
      SolutionEvaluator eval(suite.system, frozen.state, suite.profile,
                             MetricWeights{});
      PlatformState state = frozen.state;
      const ScheduleOutcome im = initialMapping(suite.system, state);
      const double imCost = eval.evaluate(im.mapping).cost;

      std::size_t used = 0;
      const double mh = mhWithBudget(eval, budget, &used);
      const double rnd = randomHillClimb(eval, im.mapping, budget,
                                         static_cast<std::uint64_t>(s) + 1);
      cIm.add(imCost);
      cMh.add(mh);
      cRnd.add(rnd);
      std::printf("  [budget=%4zu seed=%d] IM=%7.2f MH=%7.2f (used %4zu) "
                  "random=%7.2f\n",
                  budget, s, imCost, mh, used, rnd);
    }
    table.addRow({CsvTable::num(static_cast<long long>(budget)),
                  CsvTable::num(cIm.mean()), CsvTable::num(cMh.mean()),
                  CsvTable::num(cRnd.mean())});
  }

  std::printf("\n");
  printTableAndCsv(table);
  std::printf(
      "\nShape check: both searches improve far past IM at every budget —\n"
      "the slack-targeted transformation set is doing the work. MH stops\n"
      "deterministically at its local minimum (no tuning, bounded cost);\n"
      "unbounded random descent keeps inching further, which is the niche\n"
      "the paper fills with SA.\n");
  return 0;
}
