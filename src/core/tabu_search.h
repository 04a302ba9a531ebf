// Tabu search over the same design transformations as SA.
//
// A best-improvement local search with short-term memory: every iteration
// draws a batch of candidate moves from the shared SaMoveProposer kernel,
// evaluates each against the current state, and commits the best admissible
// one — admissible meaning not tabu, or tabu but better than the incumbent
// (aspiration). The tabu list is recency-keyed on the reversed attribute:
// re-mapping a process back to a node it recently left, or re-touching a
// recently moved start/message hint, is forbidden for `tenure` iterations.
// Unlike SA there is no acceptance stream — the walk always moves, relying
// on the memory to escape local minima — so one proposal RNG stream fully
// determines the trajectory.
//
// The search runs as TabuSearchOptimizer (core/optimizer.h), polling
// RunContext::stop once per iteration. Each iteration's candidates are
// independent of one another, so the batch is evaluated in parallel on a
// fork-join pool (util/fork_join.h) that lives for one run: all moves are
// drawn first, in draw order, then `threads` threads (the caller included)
// claim candidates and write each evaluation to that candidate's slot, the
// caller on the run's EvalContext and every other thread on a private one.
// The selection then scans the slots in draw order, exactly as the
// one-at-a-time loop would.
//
// Determinism: the result is a pure function of (evaluator, initial,
// options minus threads and incrementalEval). threads only spreads the
// evaluations over more contexts, and incrementalEval only switches the
// evaluation engine — both bit-identical by EvalContext's verified-hint
// contract — and an unfired stop token leaves the trajectory untouched.
#pragma once

#include <cstdint>

namespace ides {

struct TabuOptions {
  std::uint64_t seed = 1;
  int iterations = 5000;
  /// Candidate moves drawn per iteration (None draws are skipped, not
  /// re-drawn, so the proposal stream stays aligned with the draw count).
  int candidates = 8;
  /// Iterations a reversed move attribute stays tabu.
  int tenure = 32;
  /// Move mix, as in SaOptions (remainder: message-hint moves).
  double probRemap = 0.5;
  double probProcessHint = 0.35;
  /// Evaluate candidates through the delta-aware EvalContext; results are
  /// bit-identical either way (pure performance switch, like SA's).
  bool incrementalEval = true;
  /// Threads evaluating each candidate batch, the caller included; 0 means
  /// std::thread::hardware_concurrency(), and the count is capped at
  /// `candidates`. Result-neutral: every value gives the same trajectory.
  int threads = 0;
};

/// Range-checks every knob; throws std::invalid_argument naming the
/// offending field.
void validateOptions(const TabuOptions& options);

}  // namespace ides
