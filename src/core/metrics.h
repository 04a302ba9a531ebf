// Design criteria and metrics (paper slides 12-14).
//
// Criterion 1 — slack *size*: the slack left by the current design should be
// able to swallow the largest future application. We synthesize that
// application from the profile's histograms (the biggest one that would fit
// if all slack were contiguous) and best-fit pack it into the real slack
// fragments. C1P / C1m report the percentage (by demand) that does NOT fit:
// 0% for perfectly contiguous slack, large for fragmented slack.
//
// Criterion 2 — slack *distribution*: a future application with period Tmin
// needs tneed processor ticks and bneed bus bytes inside EVERY window of
// length Tmin. C2P is the sum over processors of the minimum in-window
// slack; C2m the same for the bus (in bytes).
//
// Objective (slide 14):
//   C = w1P*C1P + w1m*C1m
//     + w2P*max(0, tneed - C2P)/tneed*100
//     + w2m*max(0, bneed - C2m)/bneed*100
// The penalty terms are normalized to percent of the need so all four terms
// share a scale; the paper gives the un-normalized form and leaves weights
// unspecified. We use w1P = w1m = 1 and w2P = w2m = 2 (MetricWeights'
// defaults); bench_ablation_weights re-runs MH across other ratios.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "core/future_profile.h"
#include "sched/slack.h"

namespace ides {

struct MetricWeights {
  double w1p = 1.0;
  double w1m = 1.0;
  double w2p = 2.0;
  double w2m = 2.0;
};

struct DesignMetrics {
  double c1p = 0.0;          ///< % of future processor demand left unpacked
  double c1m = 0.0;          ///< % of future bus demand left unpacked
  Time c2p = 0;              ///< sum of per-node min slack in a Tmin window
  std::int64_t c2mBytes = 0; ///< min bus slack in a Tmin window (bytes)
};

/// Compute all four metrics from a slack snapshot.
DesignMetrics computeMetrics(const SlackInfo& slack,
                             const FutureProfile& profile);

/// The paper's objective function C.
double objectiveValue(const DesignMetrics& metrics,
                      const FutureProfile& profile,
                      const MetricWeights& weights);

/// C1 building block, exposed for tests and the ablation benches:
/// best-fit-decreasing packing of `items` into `containers`; returns the
/// total size of items that do not fit. Items must be sorted descending.
std::int64_t bestFitUnpacked(const std::vector<std::int64_t>& itemsDesc,
                             std::vector<std::int64_t> containers);

/// The deterministic "largest future application" demand stream for a given
/// amount of total slack: values drawn from `dist` whose sum does not exceed
/// `totalSlack` (descending). Exposed for tests.
std::vector<std::int64_t> largestFutureDemand(const DiscreteDistribution& dist,
                                              std::int64_t totalSlack);

/// Ordered (value, count) multiset in run-length form — the compact
/// container/demand representation shared by the packing helpers and the
/// incremental metrics cache.
using ValueCounts = std::vector<std::pair<std::int64_t, std::int64_t>>;

/// Incrementally maintained DesignMetrics over a journaled PlatformState.
///
/// Keeps a snapshot of every occupancy-derived quantity the metrics read —
/// per-node free IntervalSets, the C1 capacity multisets with their totals,
/// per-node per-window free ticks with row minima, and per-window bus free
/// ticks — and re-derives only the nodes / slot occurrences named dirty (by
/// the platform journal, see PlatformState::journal) since the last
/// evaluation. A dirty node edits the C1 multiset only for the free
/// intervals its old and new free sets do not share. Every maintained
/// quantity is integral and order-independent (a multiset or a sum), so
/// metrics() is bit-identical to computeMetrics(extractSlack(state),
/// profile) by construction; the property suites assert exactly that
/// equality.
class IncrementalMetrics {
 public:
  [[nodiscard]] bool valid() const { return valid_; }
  void invalidate() { valid_ = false; }

  /// Full snapshot rebuild from `state` (first use, or whenever the dirty
  /// set since the last sync is unknown).
  void rebuild(const PlatformState& state, const FutureProfile& profile);

  /// Re-derive the named nodes and slot occurrences (occurrence key:
  /// slotIndex * roundCount + round) from `state`. Duplicates are fine; an
  /// entry whose occupancy is unchanged costs one comparison. Requires
  /// valid().
  void update(const PlatformState& state,
              const std::vector<std::uint32_t>& dirtyNodes,
              const std::vector<std::uint64_t>& dirtyOccurrences);

  /// Metrics of the snapshot occupancy. Requires valid(). Non-const: the
  /// C1 packing result is memoized per capacity multiset, so evaluations
  /// that left a class's multiset untouched (common for the bus under
  /// process-only moves) skip the packing entirely.
  [[nodiscard]] DesignMetrics metrics(const FutureProfile& profile);

 private:
  void refreshNode(const PlatformState& state, std::size_t n);
  void refreshOccurrence(const PlatformState& state, std::size_t slot,
                         std::int64_t round);

  bool valid_ = false;
  Time horizon_ = 0;
  Time tmin_ = 0;
  std::int64_t windows_ = 0;
  std::int64_t bytesPerTick_ = 1;
  std::int64_t roundCount_ = 0;

  std::vector<IntervalSet> nodeFree_;  ///< per node
  std::vector<Time> nodeMin_;          ///< per node: min in-window slack
  std::vector<Time> slotUsed_;         ///< [slot * roundCount_ + round]
  std::vector<Time> busWin_;           ///< per window: bus free ticks
  IntervalSet scratchSet_;             ///< unchanged-node early-out buffer

  ValueCounts c1pCounts_;  ///< node free interval lengths, ascending
  std::int64_t c1pTotal_ = 0;
  ValueCounts c1mCounts_;  ///< occurrence free bytes, ascending
  std::int64_t c1mTotal_ = 0;

  /// Packing memo per C1 class: the percent for the exact multiset last
  /// packed. The packing is a pure function of (multiset, distribution) and
  /// the distribution is fixed per run, so equality of the multiset gives
  /// the identical double without re-packing.
  bool memoValid_ = false;
  ValueCounts c1pMemoCounts_;
  double c1pMemoValue_ = 0.0;
  ValueCounts c1mMemoCounts_;
  double c1mMemoValue_ = 0.0;
};

}  // namespace ides
