// Parallel multi-start simulated annealing.
//
// Runs K independent SA chains with distinct, deterministically derived
// seeds as one batch on a fork-join pool (util/fork_join.h, the pool tabu
// search evaluates its candidates on) and keeps the best feasible
// incumbent across chains. Chains 1..K-1 additionally diversify the
// cooling schedule (colder and hotter starts around the base temperature),
// hedging against a mistuned schedule on short per-chain budgets.
// The shared SolutionEvaluator is const; every chain runs through the SA
// optimizer's own improvement with a private RunContext, and so a private
// EvalContext (the delta-aware per-thread evaluation scratch), so the
// chains re-schedule only what their moves touch without any sharing. All
// chains poll the caller's stop token.
//
// The ensemble runs as ParallelAnnealingOptimizer (core/optimizer.h), built
// from the chain's SaOptions and the ensemble shape below.
//
// Determinism: chain i's seed depends only on (the chain SaOptions' seed,
// i), and chains never exchange state, so the result is bit-identical for
// any thread count. Chain 0 reuses that seed verbatim, which makes the
// K-chain result provably no worse than a single chain run with the same
// options.
#pragma once

#include <cstdint>

namespace ides {

/// The ensemble shape; the per-chain SA configuration is a separate
/// SaOptions whose seed seeds the whole ensemble.
struct ParallelSaOptions {
  /// Cap on concurrently running chains (one thread each, the caller
  /// included); 0 means std::thread::hardware_concurrency().
  int threads = 0;
  /// Number of independent chains (K). Must be >= 1.
  int restarts = 4;
  /// Iterations per chain; 0 means the chain SaOptions' iterations.
  int perChainIterations = 0;
};

/// Range-checks every knob (restarts >= 1, non-negative thread/iteration
/// budgets); throws std::invalid_argument naming the offending field.
/// Called by the PSA optimizer's constructor.
void validateOptions(const ParallelSaOptions& options);

/// Seed of chain `index` for a given ensemble seed: chain 0 keeps the base
/// seed, later chains get splitmix64-scrambled derivatives.
std::uint64_t parallelSaChainSeed(std::uint64_t baseSeed, int index);

}  // namespace ides
