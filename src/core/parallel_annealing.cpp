#include "core/parallel_annealing.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/optimizer.h"
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

  unsigned threadBudget =
      ensemble_.threads > 0 ? static_cast<unsigned>(ensemble_.threads)
                            : std::thread::hardware_concurrency();
  if (threadBudget == 0) threadBudget = 1;
  const unsigned workers =
      std::min<unsigned>(threadBudget, static_cast<unsigned>(chains));

  // Chain i writes only reports[i] / errors[i]; the atomic counter hands
  // out chain indices, so no two workers touch the same slot. Each chain
  // improves its own copy of the start in reports[i].mapping, on its own
  // RunContext (so its own EvalContext) polling the caller's stop token.
  std::vector<RunReport> reports(static_cast<std::size_t>(chains));
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(chains));
  std::atomic<int> next{0};

  auto worker = [&]() {
    for (int i = next.fetch_add(1, std::memory_order_relaxed); i < chains;
         i = next.fetch_add(1, std::memory_order_relaxed)) {
      RunReport& r = reports[static_cast<std::size_t>(i)];
      try {
        const SimulatedAnnealingOptimizer sa(chainOptionsFor(chainOptions, i));
        RunContext chainContext;
        chainContext.stop = context.stop;
        r.mapping = solution;
        r.evaluations = sa.improve(evaluator, r.mapping, chainContext, r);
      } catch (...) {
        errors[static_cast<std::size_t>(i)] = std::current_exception();
      }
    }
  };

  if (workers <= 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (unsigned t = 0; t < workers; ++t) pool.emplace_back(worker);
    for (std::thread& t : pool) t.join();
  }

  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }

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
