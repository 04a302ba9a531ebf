// SA — simulated annealing over the same design transformations as MH.
//
// The paper uses SA, tuned long, as the near-optimal reference point for the
// objective C; its cost is the denominator of the "average percentage
// deviation" series in the evaluation. Moves: re-map a process to a random
// allowed node, push a process into a random slack (start-hint change), or
// push a message into a random bus slack (message-hint change). Standard
// Metropolis acceptance with a geometric cooling schedule; infeasible
// states are admitted at high penalty cost so the walk can cross narrow
// infeasible ridges, but only feasible states can become the incumbent.
//
// RNG streams: one chain consumes TWO deterministic streams derived from
// the seed (rngStreamSeed) —
//   * kSaProposalStream  — every draw that shapes a candidate move,
//   * kSaAcceptanceStream — the Metropolis draw for uphill moves.
// Keeping them apart makes the proposal sequence independent of the accept
// / reject outcomes, so a move's draws never depend on how the evaluator
// scored earlier moves, and tabu search (core/tabu_search.h) shares the
// same proposer and proposal stream without an acceptance stream of its
// own. The chain trajectory is a function of (options, evaluator, initial)
// only.
//
// The chain itself runs as SimulatedAnnealingOptimizer (core/optimizer.h);
// this header holds its options and the move kernel it shares with PSA and
// tabu search.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "core/evaluator.h"
#include "sched/mapping.h"
#include "util/rng.h"

namespace ides {

/// Stream ids of one SA chain (see rngStreamSeed).
inline constexpr std::uint64_t kSaProposalStream = 0;
inline constexpr std::uint64_t kSaAcceptanceStream = 1;

struct SaOptions {
  std::uint64_t seed = 1;
  int iterations = 20000;
  /// Initial temperature as a fraction of the initial cost.
  double initialTempFactor = 0.3;
  /// Final temperature (cooling is geometric from T0 to this).
  double finalTemp = 0.05;
  /// Move mix.
  double probRemap = 0.5;        ///< move process to another node
  double probProcessHint = 0.35; ///< move process to another slack
  // remaining probability: move message to another bus slack

  /// Evaluate moves through the delta-aware EvalContext (re-schedule only
  /// the graphs a move touches). Off = full pass per evaluation; results
  /// are bit-identical either way (asserted by the property tests), so this
  /// is a pure performance switch kept for comparison and testing.
  bool incrementalEval = true;
};

/// Range-checks every knob; throws std::invalid_argument with a message
/// naming the offending field (e.g. negative iterations, probabilities
/// outside [0, 1] or summing past 1). Called by the SA and PSA optimizer
/// constructors.
void validateOptions(const SaOptions& options);

/// One candidate design transformation, drawn from the proposal stream and
/// applied to a solution later (tabu search scores a batch of them before
/// committing one).
struct SaMove {
  enum class Kind : std::uint8_t {
    None,         ///< skipped iteration (message move with no messages)
    Remap,        ///< process -> another allowed node, hint reset to ASAP
    ProcessHint,  ///< process -> another slack (new start hint)
    MessageHint,  ///< message -> another bus slack (new message hint)
  };
  Kind kind = Kind::None;
  ProcessId process;
  MessageId message;
  NodeId node;    ///< Remap target
  Time hint = 0;  ///< ProcessHint / MessageHint value
  MoveHint evalHint;
};

/// The move kernel shared by SA and tabu search: given the walk's current
/// solution and the proposal stream, draws the next candidate move.
class SaMoveProposer {
 public:
  /// Collects the movable processes / messages of the evaluator's current
  /// graphs; the move mix is `probRemap` re-maps, `probProcessHint`
  /// start-hint moves and message-hint moves for the rest. Throws
  /// std::invalid_argument when there is nothing to move.
  SaMoveProposer(const SolutionEvaluator& evaluator, double probRemap,
                 double probProcessHint);

  /// Draws the next move. Consumption of `proposalRng` depends only on the
  /// move mix and `current` — never on evaluation results.
  [[nodiscard]] SaMove propose(const MappingSolution& current,
                               Rng& proposalRng) const;

  /// Applies a drawn move to a solution.
  static void apply(const SaMove& move, MappingSolution& solution);

 private:
  const SystemModel* sys_;
  double probRemap_;
  double probProcessHint_;
  std::vector<ProcessId> procs_;
  std::vector<MessageId> msgs_;
  /// Flat per-process allowed-node lists (same draws as
  /// Process::allowedNodes, no per-proposal allocation).
  std::vector<NodeId> allowed_;
  std::vector<std::pair<std::uint32_t, std::uint32_t>>
      allowedSpan_;  // by ProcessId::index(): [begin, count)
};

/// Gap-fingerprint zero-delta filter — detects hint moves that provably
/// reproduce the current schedule and lets the chain replay them without
/// any evaluation (performance only; the trajectory is untouched).
///
/// The fingerprint is a snapshot of two hint-independent quantities of the
/// chain's current schedule, indexed by SolutionEvaluator::jobIndexOf:
/// the arrival bound of every job (earliest start permitted by release
/// time and input-message arrivals alone) and its committed end. Captured
/// from whichever EvalContext just evaluated an accepted feasible
/// solution; rejections leave the current schedule — and the snapshot —
/// untouched, and a skipped move keeps it valid by construction.
///
/// A proposal is zero-delta when the scheduler provably never reads the
/// changed hint:
///  * ProcessHint h -> h': start = earliestFit(max(arrival, k*P + hint));
///    if k*P + max(h, h') <= arrival(p, k) for every instance k, the hint
///    stays shadowed by the arrival bound and every start is unchanged.
///  * MessageHint: read only for cross-node transmissions, as
///    ready = max(srcEnd, k*P + hint); same-node messages are always
///    zero-delta, cross-node ones when k*P + max(old, new) <= srcEnd(k)
///    for every instance.
/// Remaps are never skipped. A zero-delta proposal evaluates to exactly
/// the current cost, so delta == 0, Metropolis accepts without touching
/// the acceptance stream, and the incumbent cannot improve — the replay
/// is draw-for-draw and bit-for-bit the evaluated path.
class ZeroDeltaFilter {
 public:
  explicit ZeroDeltaFilter(const SolutionEvaluator& evaluator);

  [[nodiscard]] bool valid() const { return valid_; }
  void invalidate() { valid_ = false; }

  /// Re-arm from the context that just evaluated the accepted solution:
  /// snapshots when the result is feasible, invalidates otherwise.
  void captureAccepted(const EvalContext& ctx, const EvalResult& result);

  /// True when applying `move` to `current` provably leaves the schedule
  /// bit-identical. Requires nothing when invalid (returns false).
  [[nodiscard]] bool zeroDelta(const SaMove& move,
                               const MappingSolution& current) const;

 private:
  const SolutionEvaluator* ev_;
  const SystemModel* sys_;
  bool valid_ = false;
  std::vector<Time> arrivals_;  ///< by global job index
  std::vector<Time> ends_;      ///< by global job index
  std::vector<Time> period_;    ///< by ProcessId::index(); movable only
  std::vector<std::int32_t> instances_;  ///< by ProcessId::index()
};

}  // namespace ides
