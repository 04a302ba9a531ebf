#include "core/parallel_annealing.h"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/optimizer.h"
#include "util/fork_join.h"
#include "util/rng.h"

namespace ides {

namespace {

// Initial-temperature multipliers for chains 1..K-1 (chain 0 keeps the base
// schedule verbatim). Colder starts behave like iterated descent — the
// right regime when the per-chain budget is short — while hotter starts
// keep one escape hatch across infeasible ridges.
constexpr double kTempLadder[] = {0.25, 0.5, 2.0, 0.1, 1.5, 0.75, 4.0};

SaOptions chainOptionsFor(const SaOptions& base, int index) {
  SaOptions opts = base;
  opts.seed = parallelSaChainSeed(base.seed, index);
  if (index > 0) {
    constexpr int ladder =
        static_cast<int>(sizeof(kTempLadder) / sizeof(kTempLadder[0]));
    opts.initialTempFactor *= kTempLadder[(index - 1) % ladder];
  }
  return opts;
}

}  // namespace

void validateOptions(const ParallelSaOptions& options) {
  const auto check = [](const char* field, int value, int min) {
    if (value < min) {
      throw std::invalid_argument(
          std::string("ParallelSaOptions: ") + field + " must be >= " +
          std::to_string(min) + " (got " + std::to_string(value) + ")");
    }
  };
  check("restarts", options.restarts, 1);
  check("threads", options.threads, 0);  // 0 = hardware concurrency
  check("perChainIterations", options.perChainIterations, 0);
}

std::uint64_t parallelSaChainSeed(std::uint64_t baseSeed, int index) {
  // The splitmix64 finalizer decorrelates consecutive chain indices so
  // adjacent chains do not start mt19937_64 from near-identical states.
  if (index == 0) return baseSeed;
  return splitmix64(baseSeed + static_cast<std::uint64_t>(index));
}

ParallelAnnealingOptimizer::ParallelAnnealingOptimizer(
    SaOptions chain, ParallelSaOptions ensemble)
    : chain_(chain), ensemble_(ensemble) {
  validateOptions(chain_);
  validateOptions(ensemble_);
}

std::size_t ParallelAnnealingOptimizer::improve(
    const SolutionEvaluator& evaluator, MappingSolution& solution,
    RunContext& context, RunReport& report) const {
  const int chains = ensemble_.restarts;

  SaOptions chainOptions = chain_;
  if (ensemble_.perChainIterations > 0) {
    chainOptions.iterations = ensemble_.perChainIterations;
  }

  const int threads =
      ensemble_.threads > 0
          ? ensemble_.threads
          : static_cast<int>(std::thread::hardware_concurrency());

  // Chain i writes only reports[i]; the pool hands out chain indices, so no
  // two threads touch the same slot. Each chain improves its own copy of
  // the start in reports[i].mapping, on its own RunContext (so its own
  // EvalContext) polling the caller's stop token. A chain's exception is
  // rethrown after every chain has finished, lowest chain index first.
  std::vector<RunReport> reports(static_cast<std::size_t>(chains));
  ForkJoinPool pool(std::clamp(threads, 1, chains));
  pool.run(reports.size(), [&](std::size_t i, int) {
    RunReport& r = reports[i];
    const SimulatedAnnealingOptimizer sa(
        chainOptionsFor(chainOptions, static_cast<int>(i)));
    RunContext chainContext;
    chainContext.stop = context.stop;
    r.mapping = solution;
    r.evaluations = sa.improve(evaluator, r.mapping, chainContext, r);
  });

  std::size_t evaluations = 0;
  std::size_t best = 0;
  for (std::size_t i = 0; i < reports.size(); ++i) {
    const RunReport& r = reports[i];
    evaluations += r.evaluations;
    report.accepted += r.accepted;
    report.proposals += r.proposals;
    report.zeroDeltaSkips += r.zeroDeltaSkips;
    report.stopped = report.stopped || r.stopped;
    // Every chain's incumbent is feasible (SA only promotes feasible
    // states); strict < keeps ties on the lowest chain index.
    if (r.objective < reports[best].objective) best = i;
  }
  solution = std::move(reports[best].mapping);
  report.objective = reports[best].objective;
  context.report({"PSA", "improve", evaluations, 0, report.objective});
  return evaluations;
}

}  // namespace ides
