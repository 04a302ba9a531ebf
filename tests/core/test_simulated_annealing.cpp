#include "core/simulated_annealing.h"

#include <gtest/gtest.h>

#include "core/initial_mapping.h"
#include "core/optimizer.h"
#include "model/system_model.h"
#include "tgen/benchmark_suite.h"
#include "test_helpers.h"

namespace ides {
namespace {

class SaTest : public ::testing::Test {
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

  SaOptions fastOptions(std::uint64_t seed = 1) const {
    SaOptions opts;
    opts.seed = seed;
    opts.iterations = 1500;
    return opts;
  }

  /// SA from the Initial Mapping (im_) through Optimizer::run.
  RunReport runSa(const SaOptions& opts) const {
    RunContext context;
    return SimulatedAnnealingOptimizer(opts).run(*eval_, context);
  }

  std::unique_ptr<Suite> suite_;
  std::unique_ptr<FrozenBase> frozen_;
  std::unique_ptr<SolutionEvaluator> eval_;
  ScheduleOutcome im_;
};

TEST_F(SaTest, BestSolutionIsFeasibleAndNeverWorseThanInitial) {
  const double initialCost = eval_->evaluate(im_.mapping).cost;
  const RunReport sa = runSa(fastOptions());
  EXPECT_TRUE(sa.feasible);
  EXPECT_LE(sa.objective, initialCost + 1e-9);
  // Re-evaluating the returned solution reproduces the reported cost.
  EXPECT_DOUBLE_EQ(eval_->evaluate(sa.mapping).cost, sa.objective);
}

TEST_F(SaTest, ImprovesOnThisInstance) {
  const double initialCost = eval_->evaluate(im_.mapping).cost;
  const RunReport sa = runSa(fastOptions());
  EXPECT_LT(sa.objective, initialCost);
}

TEST_F(SaTest, SameSeedSameResult) {
  const RunReport a = runSa(fastOptions(5));
  const RunReport b = runSa(fastOptions(5));
  EXPECT_DOUBLE_EQ(a.objective, b.objective);
  EXPECT_EQ(a.evaluations, b.evaluations);
  EXPECT_EQ(a.accepted, b.accepted);
  EXPECT_EQ(a.mapping, b.mapping);
}

TEST_F(SaTest, EvaluationCountMatchesIterations) {
  SaOptions opts = fastOptions();
  opts.iterations = 500;
  const RunReport sa = runSa(opts);
  // Besides the IM and the final evaluation, the chain evaluates its start
  // once plus at most once per iteration (message moves can be skipped
  // when the app has no messages; this one has plenty).
  const std::size_t chain = sa.evaluations - 2;
  EXPECT_GT(chain, 450u);
  EXPECT_LE(chain, 501u);
  EXPECT_EQ(sa.proposals, 500u);
  EXPECT_GT(sa.accepted, 0u);
}

TEST_F(SaTest, LongerBudgetDoesNotHurt) {
  SaOptions shortOpts = fastOptions(3);
  shortOpts.iterations = 200;
  SaOptions longOpts = fastOptions(3);
  longOpts.iterations = 3000;
  const double shortCost = runSa(shortOpts).objective;
  const double longCost = runSa(longOpts).objective;
  EXPECT_LE(longCost, shortCost + 1e-9);
}

}  // namespace
}  // namespace ides
