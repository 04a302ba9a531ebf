#include "util/interval.h"

#include <gtest/gtest.h>

#include <random>
#include <sstream>
#include <vector>

namespace ides {
namespace {

TEST(Interval, LengthAndEmptiness) {
  EXPECT_EQ((Interval{0, 10}.length()), 10);
  EXPECT_EQ((Interval{5, 5}.length()), 0);
  EXPECT_TRUE((Interval{5, 5}.empty()));
  EXPECT_TRUE((Interval{7, 3}.empty()));
  EXPECT_FALSE((Interval{3, 7}.empty()));
}

TEST(Interval, ContainsIsHalfOpen) {
  const Interval iv{10, 20};
  EXPECT_FALSE(iv.contains(9));
  EXPECT_TRUE(iv.contains(10));
  EXPECT_TRUE(iv.contains(19));
  EXPECT_FALSE(iv.contains(20));
}

TEST(Interval, OverlapsIsExclusiveAtBoundaries) {
  EXPECT_TRUE((Interval{0, 10}.overlaps({5, 15})));
  EXPECT_FALSE((Interval{0, 10}.overlaps({10, 20})));  // touching: no overlap
  EXPECT_FALSE((Interval{10, 20}.overlaps({0, 10})));
  EXPECT_TRUE((Interval{0, 100}.overlaps({40, 60})));  // containment
}

TEST(Interval, StreamFormat) {
  std::ostringstream os;
  os << Interval{3, 9};
  EXPECT_EQ(os.str(), "[3,9)");
}

TEST(IntervalSet, AddDisjointKeepsAll) {
  IntervalSet set;
  set.add({10, 20});
  set.add({30, 40});
  set.add({0, 5});
  ASSERT_EQ(set.size(), 3u);
  EXPECT_EQ(set.intervals()[0], (Interval{0, 5}));
  EXPECT_EQ(set.intervals()[1], (Interval{10, 20}));
  EXPECT_EQ(set.intervals()[2], (Interval{30, 40}));
  EXPECT_EQ(set.totalLength(), 25);
}

TEST(IntervalSet, AddMergesOverlapping) {
  IntervalSet set;
  set.add({10, 20});
  set.add({15, 30});
  ASSERT_EQ(set.size(), 1u);
  EXPECT_EQ(set.intervals()[0], (Interval{10, 30}));
}

TEST(IntervalSet, AddCoalescesTouching) {
  IntervalSet set;
  set.add({10, 20});
  set.add({20, 30});
  ASSERT_EQ(set.size(), 1u);
  EXPECT_EQ(set.intervals()[0], (Interval{10, 30}));
}

TEST(IntervalSet, AddBridgingMergesManyMembers) {
  IntervalSet set;
  set.add({0, 5});
  set.add({10, 15});
  set.add({20, 25});
  set.add({4, 21});  // bridges all three
  ASSERT_EQ(set.size(), 1u);
  EXPECT_EQ(set.intervals()[0], (Interval{0, 25}));
}

TEST(IntervalSet, AddEmptyIsNoop) {
  IntervalSet set;
  set.add({10, 10});
  EXPECT_TRUE(set.empty());
}

TEST(IntervalSet, SubtractSplitsMember) {
  IntervalSet set;
  set.add({0, 100});
  set.subtract({40, 60});
  ASSERT_EQ(set.size(), 2u);
  EXPECT_EQ(set.intervals()[0], (Interval{0, 40}));
  EXPECT_EQ(set.intervals()[1], (Interval{60, 100}));
}

TEST(IntervalSet, SubtractRemovesCoveredMembers) {
  IntervalSet set({{0, 10}, {20, 30}, {40, 50}});
  set.subtract({5, 45});
  ASSERT_EQ(set.size(), 2u);
  EXPECT_EQ(set.intervals()[0], (Interval{0, 5}));
  EXPECT_EQ(set.intervals()[1], (Interval{45, 50}));
}

TEST(IntervalSet, SubtractDisjointIsNoop) {
  IntervalSet set({{10, 20}});
  set.subtract({30, 40});
  ASSERT_EQ(set.size(), 1u);
  EXPECT_EQ(set.totalLength(), 10);
}

TEST(IntervalSet, CoversRequiresContainment) {
  IntervalSet set({{0, 10}, {10, 20}});  // coalesces to [0,20)
  EXPECT_TRUE(set.covers({0, 20}));
  EXPECT_TRUE(set.covers({5, 15}));
  EXPECT_FALSE(set.covers({15, 25}));
  EXPECT_TRUE(set.covers({7, 7}));  // empty interval trivially covered
}

TEST(IntervalSet, CoversAcrossGapIsFalse) {
  IntervalSet set({{0, 10}, {15, 25}});
  EXPECT_FALSE(set.covers({5, 20}));
}

TEST(IntervalSet, IntersectsDetectsAnyOverlap) {
  IntervalSet set({{10, 20}, {30, 40}});
  EXPECT_TRUE(set.intersects({15, 35}));
  EXPECT_TRUE(set.intersects({19, 21}));
  EXPECT_FALSE(set.intersects({20, 30}));  // exactly the gap
  EXPECT_FALSE(set.intersects({50, 60}));
  EXPECT_FALSE(set.intersects({5, 5}));
}

TEST(IntervalSet, ComplementWithinFullHorizon) {
  IntervalSet busy({{10, 20}, {30, 40}});
  const IntervalSet free = busy.complementWithin({0, 50});
  ASSERT_EQ(free.size(), 3u);
  EXPECT_EQ(free.intervals()[0], (Interval{0, 10}));
  EXPECT_EQ(free.intervals()[1], (Interval{20, 30}));
  EXPECT_EQ(free.intervals()[2], (Interval{40, 50}));
  EXPECT_EQ(free.totalLength() + busy.totalLength(), 50);
}

TEST(IntervalSet, ComplementOfEmptySetIsHorizon) {
  IntervalSet empty;
  const IntervalSet free = empty.complementWithin({5, 25});
  ASSERT_EQ(free.size(), 1u);
  EXPECT_EQ(free.intervals()[0], (Interval{5, 25}));
}

TEST(IntervalSet, ComplementWhenBusyCoversHorizon) {
  IntervalSet busy({{0, 100}});
  EXPECT_TRUE(busy.complementWithin({10, 90}).empty());
}

TEST(IntervalSet, ComplementClipsMembersOutsideHorizon) {
  IntervalSet busy({{0, 10}, {90, 120}});
  const IntervalSet free = busy.complementWithin({5, 100});
  ASSERT_EQ(free.size(), 1u);
  EXPECT_EQ(free.intervals()[0], (Interval{10, 90}));
}

TEST(IntervalSet, IntersectWithWindow) {
  IntervalSet set({{0, 10}, {20, 30}, {40, 50}});
  const IntervalSet clipped = set.intersectWith({5, 45});
  ASSERT_EQ(clipped.size(), 3u);
  EXPECT_EQ(clipped.intervals()[0], (Interval{5, 10}));
  EXPECT_EQ(clipped.intervals()[1], (Interval{20, 30}));
  EXPECT_EQ(clipped.intervals()[2], (Interval{40, 45}));
}

TEST(IntervalSet, LengthWithinMatchesIntersection) {
  IntervalSet set({{0, 10}, {20, 30}, {40, 50}});
  for (Time a = 0; a <= 50; a += 7) {
    for (Time b = a; b <= 55; b += 5) {
      EXPECT_EQ(set.lengthWithin({a, b}),
                set.intersectWith({a, b}).totalLength())
          << "window [" << a << "," << b << ")";
    }
  }
}

TEST(IntervalSet, LargestMember) {
  EXPECT_EQ(IntervalSet{}.largest(), 0);
  IntervalSet set({{0, 3}, {10, 25}, {30, 32}});
  EXPECT_EQ(set.largest(), 15);
}

TEST(IntervalSet, ConstructorNormalizesInput) {
  IntervalSet set({{20, 30}, {0, 10}, {8, 22}});
  ASSERT_EQ(set.size(), 1u);
  EXPECT_EQ(set.intervals()[0], (Interval{0, 30}));
}

// Property: for random busy sets, complement-of-complement is the original,
// and busy/free partition the horizon exactly.
class IntervalSetProperty : public ::testing::TestWithParam<int> {};

TEST_P(IntervalSetProperty, ComplementRoundTripsAndPartitions) {
  std::mt19937_64 rng(static_cast<std::uint64_t>(GetParam()));
  IntervalSet busy;
  const Time horizon = 1000;
  for (int i = 0; i < 40; ++i) {
    const Time a = static_cast<Time>(rng() % 1000);
    const Time b = a + 1 + static_cast<Time>(rng() % 60);
    busy.add({a, std::min(b, horizon)});
  }
  const IntervalSet free = busy.complementWithin({0, horizon});
  const IntervalSet busyAgain = free.complementWithin({0, horizon});
  const IntervalSet busyClipped = busy.intersectWith({0, horizon});
  EXPECT_EQ(busyAgain, busyClipped);
  EXPECT_EQ(busyClipped.totalLength() + free.totalLength(), horizon);
  for (const Interval& f : free.intervals()) {
    EXPECT_FALSE(busy.intersects(f));
  }
}

// Property: subtractSorted, which rewrites only the span of members the
// cuts overlap, equals subtracting the cuts one by one. The cuts fall in a
// random sub-window, so the members before and after the span must come
// through untouched; they split members (growing the set), swallow them
// (shrinking it), land in gaps and touch member edges.
TEST_P(IntervalSetProperty, SubtractSortedMatchesOneByOneSubtract) {
  std::mt19937_64 rng(static_cast<std::uint64_t>(GetParam()) + 1000);
  const auto pick = [&rng](Time lo, Time hi) {
    return std::uniform_int_distribution<Time>(lo, hi)(rng);
  };
  for (int round = 0; round < 20; ++round) {
    IntervalSet set;
    for (int i = 0; i < 120; ++i) {
      const Time a = pick(0, 5000);
      set.add({a, a + pick(1, 50)});
    }
    const Time lo = pick(0, 4000);
    const Time hi = lo + pick(1, 1200);
    std::vector<Interval> cuts;
    for (Time t = lo + pick(0, 40); t < hi; t += pick(0, 60)) {
      const Time len = pick(1, round % 2 == 0 ? 15 : 150);
      cuts.push_back({t, t + len});
      t += len;
    }
    IntervalSet expected = set;
    for (const Interval& cut : cuts) expected.subtract(cut);
    set.subtractSorted(cuts.data(), cuts.data() + cuts.size());
    EXPECT_EQ(set, expected) << "round " << round;
  }
}

TEST(IntervalSet, SubtractSortedSplitsAndSwallowsInsideTheSpan) {
  IntervalSet set({{0, 10}, {20, 60}, {70, 80}, {90, 100}, {200, 210}});
  // Two cuts split [20, 60) into three; one swallows [70, 80) whole.
  const std::vector<Interval> cuts{{25, 30}, {40, 45}, {65, 85}};
  set.subtractSorted(cuts.data(), cuts.data() + cuts.size());
  EXPECT_EQ(set, IntervalSet({{0, 10},
                              {20, 25},
                              {30, 40},
                              {45, 60},
                              {90, 100},
                              {200, 210}}));
  const std::vector<Interval> gaps{{10, 20}, {60, 90}};  // only gaps: no-op
  set.subtractSorted(gaps.data(), gaps.data() + gaps.size());
  EXPECT_EQ(set.size(), 6u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, IntervalSetProperty, ::testing::Range(0, 25));

}  // namespace
}  // namespace ides
