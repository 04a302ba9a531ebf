#include "core/parallel_annealing.h"

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>

#include "core/initial_mapping.h"
#include "core/optimizer.h"
#include "model/system_model.h"
#include "tgen/benchmark_suite.h"
#include "test_helpers.h"

namespace ides {
namespace {

class ParallelSaTest : public ::testing::Test {
 protected:
  void SetUp() override {
    suite_ = std::make_unique<Suite>(
        buildSuite(ides::testing::smallSuiteConfig(), 11));
    frozen_ = std::make_unique<FrozenBase>(
        freezeExistingApplications(suite_->system));
    ASSERT_TRUE(frozen_->feasible);
    eval_ = std::make_unique<SolutionEvaluator>(
        suite_->system, frozen_->state, suite_->profile, MetricWeights{});
    PlatformState state = frozen_->state;
    im_ = initialMapping(suite_->system, state);
    ASSERT_TRUE(im_.feasible);
  }

  static SaOptions chainOptions(std::uint64_t seed) {
    SaOptions opts;
    opts.seed = seed;
    opts.iterations = 800;
    return opts;
  }

  static ParallelSaOptions ensemble(int restarts = 4, int threads = 0) {
    ParallelSaOptions opts;
    opts.restarts = restarts;
    opts.threads = threads;
    return opts;
  }

  /// PSA (or SA) from the Initial Mapping (im_) through Optimizer::run.
  RunReport run(const Optimizer& optimizer) const {
    RunContext context;
    return optimizer.run(*eval_, context);
  }
  RunReport runPsa(std::uint64_t seed = 1, int restarts = 4,
                   int threads = 0) const {
    return run(ParallelAnnealingOptimizer(chainOptions(seed),
                                          ensemble(restarts, threads)));
  }

  std::unique_ptr<Suite> suite_;
  std::unique_ptr<FrozenBase> frozen_;
  std::unique_ptr<SolutionEvaluator> eval_;
  ScheduleOutcome im_;
};

/// Every field of the report except the wall-clock time.
void expectSameReport(const RunReport& a, const RunReport& b) {
  EXPECT_EQ(a.feasible, b.feasible);
  EXPECT_EQ(a.mapping, b.mapping);
  EXPECT_EQ(a.objective, b.objective);
  EXPECT_EQ(a.evaluations, b.evaluations);
  EXPECT_EQ(a.proposals, b.proposals);
  EXPECT_EQ(a.accepted, b.accepted);
  EXPECT_EQ(a.zeroDeltaSkips, b.zeroDeltaSkips);
  EXPECT_EQ(a.stopped, b.stopped);
}

TEST_F(ParallelSaTest, IncumbentIsFeasibleAndReproducible) {
  const RunReport r = runPsa();
  EXPECT_TRUE(r.feasible);
  // Re-evaluating the returned incumbent reproduces the reported cost and
  // stays feasible.
  const EvalResult again = eval_->evaluate(r.mapping);
  EXPECT_TRUE(again.feasible);
  EXPECT_DOUBLE_EQ(again.cost, r.objective);
}

TEST_F(ParallelSaTest, DeterministicForFixedSeedsAcrossThreadCounts) {
  const RunReport a = runPsa(7, 5, 1);
  const RunReport b = runPsa(7, 5, 4);
  const RunReport c = runPsa(7, 5, 4);
  // More threads than chains: the surplus threads stay idle.
  const RunReport d = runPsa(7, 5, 7);
  // Same ensemble seed: identical chains, winner, incumbent and counters —
  // no matter how many workers ran them.
  expectSameReport(a, b);
  expectSameReport(b, c);
  expectSameReport(a, d);
}

TEST_F(ParallelSaTest, DistinctSeedsProduceDistinctChains) {
  // Chain seeds must differ (chain 0 keeps the base seed).
  EXPECT_EQ(parallelSaChainSeed(3, 0), 3u);
  EXPECT_NE(parallelSaChainSeed(3, 1), parallelSaChainSeed(3, 2));
  EXPECT_NE(parallelSaChainSeed(3, 1), 3u);
}

TEST_F(ParallelSaTest, BestOfKNeverWorseThanSingleChain) {
  const RunReport single = run(SimulatedAnnealingOptimizer(chainOptions(5)));
  const RunReport multi = runPsa(5, 4);
  // Chain 0 replays the single chain exactly, so best-of-K can only match
  // or beat it.
  EXPECT_LE(multi.objective, single.objective + 1e-12);
  // A one-chain ensemble is the single chain.
  const RunReport one = runPsa(5, 1);
  EXPECT_EQ(one.mapping, single.mapping);
  EXPECT_EQ(one.objective, single.objective);
  EXPECT_EQ(one.evaluations, single.evaluations);
}

TEST_F(ParallelSaTest, CountersAggregateAcrossChains) {
  const RunReport single = run(SimulatedAnnealingOptimizer(chainOptions(1)));
  const RunReport multi = runPsa(1, 3);
  // Chain 0 == the single run; the other two chains evaluate a comparable
  // amount, so totals land well above a single chain.
  EXPECT_GE(multi.evaluations, 3 * (single.evaluations / 2));
  EXPECT_GT(multi.evaluations, single.evaluations);
  EXPECT_EQ(multi.proposals, 3 * single.proposals);
  EXPECT_GT(multi.seconds, 0.0);
}

TEST_F(ParallelSaTest, PerChainIterationsOverridesBase) {
  SaOptions chain = chainOptions(9);
  chain.iterations = 50;
  ParallelSaOptions shape = ensemble(2);
  shape.perChainIterations = 400;
  const RunReport r = run(ParallelAnnealingOptimizer(chain, shape));
  // IM + final + 2 chains × (1 initial + up to 400 move evaluations); far
  // more than the 50-iteration base would allow.
  EXPECT_GT(r.evaluations, 2u + 2u * 51u);
  EXPECT_LE(r.evaluations, 2u + 2u * 401u);
  EXPECT_EQ(r.proposals, 2u * 400u);
}

TEST_F(ParallelSaTest, RejectsBadOptions) {
  EXPECT_THROW((void)ParallelAnnealingOptimizer(chainOptions(1), ensemble(0)),
               std::invalid_argument);
  SaOptions badChain = chainOptions(1);
  badChain.iterations = -1;
  EXPECT_THROW((void)ParallelAnnealingOptimizer(badChain, ensemble()),
               std::invalid_argument);
}

}  // namespace
}  // namespace ides
