// Parameterized property sweeps over the design metrics, and the journal
// churn that the incremental metrics cache must follow exactly.
#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "arch/architecture.h"
#include "core/metrics.h"
#include "sched/platform_state.h"
#include "sched/slack.h"

namespace ides {
namespace {

FutureProfile paperishProfile(Time tmin) {
  FutureProfile p;
  p.tmin = tmin;
  p.tneed = 100;
  p.bneedBytes = 50;
  p.wcetDistribution =
      DiscreteDistribution({{20, 0.2}, {50, 0.4}, {100, 0.3}, {150, 0.1}});
  p.messageSizeDistribution =
      DiscreteDistribution({{2, 0.2}, {4, 0.4}, {6, 0.3}, {8, 0.1}});
  return p;
}

SlackInfo randomSlack(std::mt19937_64& rng, Time horizon, int fragments) {
  SlackInfo s;
  s.horizon = horizon;
  s.busBytesPerTick = 1;
  IntervalSet free;
  for (int i = 0; i < fragments; ++i) {
    const Time a = static_cast<Time>(rng() % static_cast<std::uint64_t>(
                                               horizon));
    const Time len = 10 + static_cast<Time>(rng() % 200);
    free.add({a, std::min(a + len, horizon)});
  }
  s.nodeFree.push_back(free);
  Time t = 0;
  std::int64_t round = 0;
  while (t < horizon) {
    s.busChunks.push_back({0, round++, t, static_cast<Time>(rng() % 20)});
    t += 100;
  }
  return s;
}

class MetricsProperty : public ::testing::TestWithParam<int> {};

TEST_P(MetricsProperty, C1IsAPercentage) {
  std::mt19937_64 rng(static_cast<std::uint64_t>(GetParam()));
  const SlackInfo slack = randomSlack(rng, 2000, 12);
  const DesignMetrics m = computeMetrics(slack, paperishProfile(500));
  EXPECT_GE(m.c1p, 0.0);
  EXPECT_LE(m.c1p, 100.0);
  EXPECT_GE(m.c1m, 0.0);
  EXPECT_LE(m.c1m, 100.0);
}

TEST_P(MetricsProperty, C2BoundedByTminAndCapacity) {
  std::mt19937_64 rng(static_cast<std::uint64_t>(GetParam()) + 1000);
  const SlackInfo slack = randomSlack(rng, 2000, 12);
  const Time tmin = 500;
  const DesignMetrics m = computeMetrics(slack, paperishProfile(tmin));
  // One node: C2P is that node's min window slack, at most tmin.
  EXPECT_GE(m.c2p, 0);
  EXPECT_LE(m.c2p, tmin);
  // And at most the node's total slack.
  EXPECT_LE(m.c2p, slack.nodeFree[0].totalLength());
}

TEST_P(MetricsProperty, MergingFragmentsNeverWorsensC1) {
  // Coalescing two adjacent fragments into one cannot make packing worse.
  std::mt19937_64 rng(static_cast<std::uint64_t>(GetParam()) + 2000);
  SlackInfo fragmented;
  fragmented.horizon = 2000;
  fragmented.busBytesPerTick = 1;
  IntervalSet gaps;
  Time t = 50;
  for (int i = 0; i < 8; ++i) {
    const Time len = 30 + static_cast<Time>(rng() % 120);
    gaps.add({t, t + len});
    t += len + 40;  // 40-tick busy separators
  }
  fragmented.nodeFree.push_back(gaps);

  SlackInfo merged = fragmented;
  // Merge all gaps into one contiguous block of the same total length.
  const Time total = gaps.totalLength();
  merged.nodeFree[0] = IntervalSet({{0, total}});

  const FutureProfile profile = paperishProfile(500);
  const double cFrag = computeMetrics(fragmented, profile).c1p;
  const double cMerged = computeMetrics(merged, profile).c1p;
  EXPECT_LE(cMerged, cFrag + 1e-9);
}

TEST_P(MetricsProperty, AddingSlackNeverWorsensAnyMetric) {
  std::mt19937_64 rng(static_cast<std::uint64_t>(GetParam()) + 3000);
  const SlackInfo base = randomSlack(rng, 2000, 10);
  SlackInfo more = base;
  // Add one extra free interval where there was none.
  IntervalSet extended = more.nodeFree[0];
  extended.add({0, 2000});  // now fully free
  more.nodeFree[0] = extended;

  const FutureProfile profile = paperishProfile(500);
  const DesignMetrics mBase = computeMetrics(base, profile);
  const DesignMetrics mMore = computeMetrics(more, profile);
  EXPECT_LE(mMore.c1p, mBase.c1p + 1e-9);
  EXPECT_GE(mMore.c2p, mBase.c2p);
  const MetricWeights w;
  EXPECT_LE(objectiveValue(mMore, profile, w),
            objectiveValue(mBase, profile, w) + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MetricsProperty, ::testing::Range(0, 20));

void expectSameMetrics(const DesignMetrics& got, const DesignMetrics& want,
                       int step) {
  EXPECT_EQ(got.c1p, want.c1p) << "step " << step;
  EXPECT_EQ(got.c1m, want.c1m) << "step " << step;
  EXPECT_EQ(got.c2p, want.c2p) << "step " << step;
  EXPECT_EQ(got.c2mBytes, want.c2mBytes) << "step " << step;
}

// Node intervals journaled in reverse time order and interleaved across
// nodes, then rolled back to random marks: the worst case for the per-node
// rollback buckets, which hold every node's undone intervals out of order.
// Rollback must leave exactly the occupancy that replaying the surviving
// records on the pre-journal floor builds, and the incremental metrics,
// fed the dirty set of several batches and rollbacks at once, must equal a
// full rebuild bit for bit.
TEST(IncrementalMetricsChurn, RollbackAndUpdateMatchAFromScratchRebuild) {
  const Architecture arch = makeUniformArchitecture(4, 10, 2);  // round 40
  const Time horizon = 2000;
  const FutureProfile profile = paperishProfile(500);
  PlatformState st(arch, horizon);
  st.occupyNode(NodeId{0}, {100, 180});
  st.occupyNode(NodeId{2}, {900, 1000});
  st.occupyBus(1, 3, 4);
  st.setJournaling(true);
  const PlatformState floor = st;

  IncrementalMetrics inc;
  inc.rebuild(st, profile);
  std::vector<std::uint32_t> dirtyNodes;
  std::vector<std::uint64_t> dirtyOccurrences;
  const auto noteDirty = [&](PlatformState::Mark from) {
    for (std::size_t i = from; i < st.mark(); ++i) {
      const PlatformState::JournalEntry& e = st.journal()[i];
      if (e.kind == PlatformState::JournalEntry::Kind::Node) {
        dirtyNodes.push_back(e.index);
      } else {
        dirtyOccurrences.push_back(
            e.index * static_cast<std::uint64_t>(st.roundCount()) +
            static_cast<std::uint64_t>(e.round));
      }
    }
  };

  std::mt19937_64 rng(4242);
  const auto pick = [&rng](std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(rng);
  };
  const auto nodes = static_cast<std::int64_t>(st.nodeCount());
  std::vector<PlatformState::Mark> marks;
  std::size_t rollbacks = 0;
  for (int step = 0; step < 400; ++step) {
    marks.push_back(st.mark());
    Time t = horizon;
    for (std::int64_t k = pick(2, 16); k > 0; --k) {
      const NodeId node{static_cast<std::int32_t>(k % nodes)};
      const Time len = pick(1, 40);
      t -= pick(len, len + 80);
      if (t < 0) break;
      if (!st.nodeBusy(node).intersects({t, t + len})) {
        st.occupyNode(node, {t, t + len});
      }
      const auto slot = static_cast<std::size_t>(pick(0, nodes - 1));
      const std::int64_t round = pick(0, st.roundCount() - 1);
      const Time tx = pick(1, 6);
      if (st.slotFreeTicks(slot, round) >= tx) st.occupyBus(slot, round, tx);
    }
    noteDirty(marks.back());

    if (pick(0, 2) == 0) {
      const auto keep = static_cast<std::size_t>(
          pick(0, static_cast<std::int64_t>(marks.size()) - 1));
      const PlatformState::Mark m = marks[keep];
      marks.resize(keep);
      noteDirty(m);
      st.rollbackTo(m);
      ++rollbacks;

      PlatformState ref = floor;
      ref.replay(st.journal().data(), st.journal().data() + st.mark());
      for (std::int32_t n = 0; n < nodes; ++n) {
        ASSERT_EQ(st.nodeBusy(NodeId{n}), ref.nodeBusy(NodeId{n}))
            << "step " << step << " node " << n;
      }
      for (std::size_t s = 0; s < st.bus().slotCount(); ++s) {
        for (std::int64_t r = 0; r < st.roundCount(); ++r) {
          ASSERT_EQ(st.slotUsedTicks(s, r), ref.slotUsedTicks(s, r))
              << "step " << step << " slot " << s << " round " << r;
        }
      }
    }

    if (step % 3 == 2) {
      inc.update(st, dirtyNodes, dirtyOccurrences);
      dirtyNodes.clear();
      dirtyOccurrences.clear();
      IncrementalMetrics fresh;
      fresh.rebuild(st, profile);
      const DesignMetrics got = inc.metrics(profile);
      expectSameMetrics(got, fresh.metrics(profile), step);
      expectSameMetrics(got, computeMetrics(extractSlack(st), profile), step);
    }
  }
  EXPECT_GT(rollbacks, 100u);
}

}  // namespace
}  // namespace ides
