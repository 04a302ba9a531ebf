// C1 (slack size) metric tests, including the paper's slide-12
// illustration: identical total slack scores C1 = 0% when contiguous and
// 75% when fragmented.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <random>
#include <set>
#include <vector>

#include "core/metrics.h"

namespace ides {
namespace {

DiscreteDistribution singleValue(std::int64_t v) {
  return DiscreteDistribution({{v, 1.0}});
}

FutureProfile profileWith(DiscreteDistribution wcet, DiscreteDistribution msg,
                          Time tmin = 50) {
  FutureProfile p;
  p.tmin = tmin;
  p.tneed = 1;  // irrelevant for C1 tests
  p.bneedBytes = 1;
  p.wcetDistribution = std::move(wcet);
  p.messageSizeDistribution = std::move(msg);
  return p;
}

SlackInfo slackWithNodeGaps(std::vector<std::vector<Interval>> gaps,
                            Time horizon = 1000) {
  SlackInfo s;
  s.horizon = horizon;
  s.busBytesPerTick = 1;
  for (auto& node : gaps) {
    s.nodeFree.emplace_back(std::move(node));
  }
  return s;
}

TEST(BestFit, EverythingFitsInOneBigContainer) {
  EXPECT_EQ(bestFitUnpacked({50, 30, 20}, {100}), 0);
}

TEST(BestFit, UnpackedWhenNoContainerLargeEnough) {
  EXPECT_EQ(bestFitUnpacked({50}, {40, 49}), 50);
}

TEST(BestFit, PrefersTightestContainer) {
  // Item 30 goes into the 30-container (best fit), leaving 100 for item 90.
  EXPECT_EQ(bestFitUnpacked({30, 90}, {100, 30}), 0);
}

TEST(BestFit, ReusesResidualCapacity) {
  EXPECT_EQ(bestFitUnpacked({60, 40}, {100}), 0);
  EXPECT_EQ(bestFitUnpacked({60, 41}, {100}), 41);
}

TEST(BestFit, EmptyInputs) {
  EXPECT_EQ(bestFitUnpacked({}, {10, 20}), 0);
  EXPECT_EQ(bestFitUnpacked({5, 5}, {}), 10);
}

/// Reference best fit: items one at a time, each into the smallest
/// container that still takes it.
std::int64_t referenceBestFit(const std::vector<std::int64_t>& itemsDesc,
                              const std::vector<std::int64_t>& containers) {
  std::multiset<std::int64_t> free;
  for (const std::int64_t c : containers) {
    if (c > 0) free.insert(c);
  }
  std::int64_t unpacked = 0;
  for (const std::int64_t item : itemsDesc) {
    const auto it = free.lower_bound(item);
    if (it == free.end()) {
      unpacked += item;
      continue;
    }
    const std::int64_t rest = *it - item;
    free.erase(it);
    if (rest > 0) free.insert(rest);
  }
  return unpacked;
}

TEST(BestFit, RunEndingInsideAContainerKeepsItsRemainder) {
  // The 10s fill 45 down to 25, which the 7s then use after the 8.
  const std::vector<std::int64_t> items = {10, 10, 7, 7, 7};
  EXPECT_EQ(referenceBestFit(items, {45, 8}), 0);
  EXPECT_EQ(bestFitUnpacked(items, {45, 8}), 0);
}

TEST(BestFit, EqualCapacitiesAreUsedUpOneAfterAnother) {
  // Each 25 takes two 12s and keeps 1; the seventh 12 is left over, and
  // three of the four 1s take the three remainders.
  std::vector<std::int64_t> items(7, 12);
  items.insert(items.end(), 4, 1);
  EXPECT_EQ(referenceBestFit(items, {25, 25, 25}), 12 + 1);
  EXPECT_EQ(bestFitUnpacked(items, {25, 25, 25}), 12 + 1);
}

TEST(BestFit, NonPositiveCapacitiesHoldNothing) {
  EXPECT_EQ(bestFitUnpacked({5, 3}, {0, -4, 3}), 5);
  EXPECT_EQ(bestFitUnpacked({2}, {0, -1}), 2);
}

TEST(BestFit, MatchesPerItemPlacementOnRandomCases) {
  std::mt19937_64 rng(20011);
  const auto pick = [&rng](std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(rng);
  };
  for (int c = 0; c < 2000; ++c) {
    // Few distinct values on both sides, so runs are long and equal
    // capacities repeat; some capacities are <= 0, some cases are empty,
    // and the demand often exceeds the total capacity.
    std::vector<std::int64_t> items;
    const std::int64_t values = pick(0, 4);
    for (std::int64_t v = 0; v < values; ++v) {
      const auto count = static_cast<std::size_t>(pick(1, 12));
      items.insert(items.end(), count, pick(1, 40));
    }
    std::sort(items.begin(), items.end(), std::greater<>());
    std::vector<std::int64_t> pool;
    for (std::int64_t k = pick(1, 6); k > 0; --k) {
      pool.push_back(pick(-5, 120));
    }
    const auto last = static_cast<std::int64_t>(pool.size()) - 1;
    std::vector<std::int64_t> containers;
    for (std::int64_t k = pick(0, 16); k > 0; --k) {
      containers.push_back(pool[static_cast<std::size_t>(pick(0, last))]);
    }
    ASSERT_EQ(bestFitUnpacked(items, containers),
              referenceBestFit(items, containers))
        << "case " << c;
  }
}

TEST(BestFit, MatchesPerItemPlacementOnThePaperDemand) {
  const DiscreteDistribution wcet(
      {{20, 0.2}, {50, 0.4}, {100, 0.3}, {150, 0.1}});
  std::mt19937_64 rng(7);
  for (int c = 0; c < 50; ++c) {
    std::vector<std::int64_t> containers;
    std::int64_t total = 0;
    for (int k = 0; k < 120; ++k) {
      containers.push_back(
          std::uniform_int_distribution<std::int64_t>(1, 400)(rng));
      total += containers.back();
    }
    const std::vector<std::int64_t> items = largestFutureDemand(wcet, total);
    ASSERT_EQ(bestFitUnpacked(items, containers),
              referenceBestFit(items, containers))
        << "case " << c;
  }
}

TEST(LargestFutureDemand, FillsUpToTotalSlack) {
  const auto demand = largestFutureDemand(singleValue(100), 450);
  ASSERT_EQ(demand.size(), 4u);  // 4x100 <= 450 < 5x100
  for (auto v : demand) EXPECT_EQ(v, 100);
}

TEST(LargestFutureDemand, ZeroOrTinySlack) {
  EXPECT_TRUE(largestFutureDemand(singleValue(100), 0).empty());
  EXPECT_TRUE(largestFutureDemand(singleValue(100), 99).empty());
  EXPECT_EQ(largestFutureDemand(singleValue(100), 100).size(), 1u);
}

TEST(LargestFutureDemand, MixedDistributionStaysDescendingAndBounded) {
  const DiscreteDistribution d(
      {{20, 0.2}, {50, 0.4}, {100, 0.3}, {150, 0.1}});
  const auto demand = largestFutureDemand(d, 5000);
  std::int64_t sum = 0;
  for (std::size_t i = 0; i < demand.size(); ++i) {
    sum += demand[i];
    if (i > 0) {
      EXPECT_LE(demand[i], demand[i - 1]);
    }
  }
  EXPECT_LE(sum, 5000);
  EXPECT_GT(sum, 4800);  // small items should top it up close to the slack
}

// ---- the slide-12 scenario ------------------------------------------------

TEST(C1Metric, ContiguousSlackScoresZero) {
  // One 400-tick gap; future processes of 100 ticks each.
  const SlackInfo slack = slackWithNodeGaps({{{{100, 500}}}});
  const FutureProfile profile = profileWith(singleValue(100), singleValue(4));
  const DesignMetrics m = computeMetrics(slack, profile);
  EXPECT_DOUBLE_EQ(m.c1p, 0.0);
}

TEST(C1Metric, FragmentedSlackScoresSeventyFivePercent) {
  // Same 400 ticks of slack, but split 80+80+80+160: only the 160 fragment
  // can hold one 100-tick future process; 300 of 400 demand is unpacked.
  const SlackInfo slack = slackWithNodeGaps(
      {{{{0, 80}, {200, 280}, {400, 480}, {600, 760}}}});
  const FutureProfile profile = profileWith(singleValue(100), singleValue(4));
  const DesignMetrics m = computeMetrics(slack, profile);
  EXPECT_DOUBLE_EQ(m.c1p, 75.0);
}

TEST(C1Metric, SlackAcrossNodesIsPooled) {
  // Two nodes with 200-tick gaps each: demand 4x100, all packable.
  const SlackInfo slack = slackWithNodeGaps({{{{0, 200}}}, {{{0, 200}}}});
  const FutureProfile profile = profileWith(singleValue(100), singleValue(4));
  EXPECT_DOUBLE_EQ(computeMetrics(slack, profile).c1p, 0.0);
}

TEST(C1Metric, NoSlackAtAllScoresHundred) {
  const SlackInfo slack = slackWithNodeGaps({{}});
  const FutureProfile profile = profileWith(singleValue(100), singleValue(4));
  EXPECT_DOUBLE_EQ(computeMetrics(slack, profile).c1p, 100.0);
}

TEST(C1Metric, SlackTooSmallForAnyItemScoresZeroDemand) {
  // 50 ticks of slack cannot hold even one 100-tick process, so the
  // "largest future application" is empty and nothing is unpackable.
  const SlackInfo slack = slackWithNodeGaps({{{{0, 50}}}});
  const FutureProfile profile = profileWith(singleValue(100), singleValue(4));
  EXPECT_DOUBLE_EQ(computeMetrics(slack, profile).c1p, 0.0);
}

// ---- C1m: same criterion on the bus ----------------------------------------

SlackInfo slackWithBusChunks(std::vector<Time> freeTicks,
                             std::int64_t bytesPerTick = 1) {
  SlackInfo s;
  s.horizon = 1000;
  s.busBytesPerTick = bytesPerTick;
  s.nodeFree.emplace_back(std::vector<Interval>{{0, 1000}});
  Time t = 0;
  std::int64_t round = 0;
  for (Time f : freeTicks) {
    s.busChunks.push_back({0, round++, t, f});
    t += 100;
  }
  return s;
}

TEST(C1Metric, BusContiguousVersusFragmented) {
  const FutureProfile profile = profileWith(singleValue(10), singleValue(8));
  // One 32-byte chunk: 4 messages of 8 bytes fit.
  EXPECT_DOUBLE_EQ(computeMetrics(slackWithBusChunks({32}), profile).c1m,
                   0.0);
  // 8 chunks of 4 bytes: same 32 bytes, nothing fits.
  const auto m =
      computeMetrics(slackWithBusChunks({4, 4, 4, 4, 4, 4, 4, 4}), profile);
  EXPECT_DOUBLE_EQ(m.c1m, 100.0);
}

TEST(C1Metric, BusBytesScaleWithBandwidth) {
  const FutureProfile profile = profileWith(singleValue(10), singleValue(8));
  // 4 free ticks at 2 bytes/tick = 8 bytes: exactly one message.
  const auto m = computeMetrics(slackWithBusChunks({4}, 2), profile);
  EXPECT_DOUBLE_EQ(m.c1m, 0.0);
}

TEST(C1Metric, RejectsInvalidProfile) {
  const SlackInfo slack = slackWithNodeGaps({{{{0, 100}}}});
  FutureProfile bad;
  EXPECT_THROW(computeMetrics(slack, bad), std::invalid_argument);
}

}  // namespace
}  // namespace ides
