#include "core/mapping_heuristic.h"

#include <gtest/gtest.h>

#include "core/initial_mapping.h"
#include "core/optimizer.h"
#include "model/system_model.h"
#include "tgen/benchmark_suite.h"
#include "test_helpers.h"

namespace ides {
namespace {

class MhTest : public ::testing::Test {
 protected:
  void SetUp() override {
    suite_ = std::make_unique<Suite>(
        buildSuite(ides::testing::smallSuiteConfig(), 7));
    frozen_ = std::make_unique<FrozenBase>(
        freezeExistingApplications(suite_->system));
    ASSERT_TRUE(frozen_->feasible);
    eval_ = std::make_unique<SolutionEvaluator>(
        suite_->system, frozen_->state, suite_->profile, MetricWeights{});
    PlatformState state = frozen_->state;
    im_ = initialMapping(suite_->system, state);
    ASSERT_TRUE(im_.feasible);
  }

  /// MH from the Initial Mapping (im_) through Optimizer::run.
  RunReport runMh(const MhOptions& opts = {}) const {
    RunContext context;
    return MappingHeuristicOptimizer(opts).run(*eval_, context);
  }

  std::unique_ptr<Suite> suite_;
  std::unique_ptr<FrozenBase> frozen_;
  std::unique_ptr<SolutionEvaluator> eval_;
  ScheduleOutcome im_;
};

/// Processes plus messages whose mapping entry differs between a and b.
std::size_t changedEntries(const MappingSolution& a, const MappingSolution& b) {
  std::size_t changed = 0;
  for (std::size_t i = 0; i < a.processCount(); ++i) {
    const ProcessId p{static_cast<std::int32_t>(i)};
    if (a.nodeOf(p) != b.nodeOf(p) || a.startHint(p) != b.startHint(p)) {
      ++changed;
    }
  }
  for (std::size_t i = 0; i < a.messageCount(); ++i) {
    const MessageId m{static_cast<std::int32_t>(i)};
    if (a.messageHint(m) != b.messageHint(m)) ++changed;
  }
  return changed;
}

TEST_F(MhTest, NeverWorseThanInitialMapping) {
  const double initialCost = eval_->evaluate(im_.mapping).cost;
  const RunReport mh = runMh();
  EXPECT_TRUE(mh.feasible);
  EXPECT_LE(mh.objective, initialCost + 1e-9);
}

TEST_F(MhTest, ImprovesTheAdHocSolutionOnThisInstance) {
  const double initialCost = eval_->evaluate(im_.mapping).cost;
  const RunReport mh = runMh();
  // The suite is tuned so AH leaves improvable slack structure; MH should
  // find at least one improving transformation.
  EXPECT_NE(mh.mapping, im_.mapping);
  EXPECT_LT(mh.objective, initialCost);
}

TEST_F(MhTest, ResultIsDeterministic) {
  const RunReport a = runMh();
  const RunReport b = runMh();
  EXPECT_DOUBLE_EQ(a.objective, b.objective);
  EXPECT_EQ(a.evaluations, b.evaluations);
  EXPECT_EQ(a.mapping, b.mapping);
}

TEST_F(MhTest, FinalSolutionSchedulesFeasibly) {
  const RunReport mh = runMh();
  ScheduleOutcome outcome;
  const EvalResult r = eval_->evaluate(mh.mapping, &outcome, nullptr);
  EXPECT_TRUE(r.feasible);
  EXPECT_EQ(outcome.deadlineMisses, 0);
}

TEST_F(MhTest, IterationBudgetIsRespected) {
  // Each round applies at most one move, and a move re-maps one process or
  // re-hints one message.
  MhOptions opts;
  opts.maxIterations = 0;
  EXPECT_EQ(runMh(opts).mapping, im_.mapping);
  opts.maxIterations = 1;
  const RunReport one = runMh(opts);
  EXPECT_EQ(changedEntries(one.mapping, im_.mapping), 1u);
  opts.maxIterations = 2;
  EXPECT_LE(changedEntries(runMh(opts).mapping, im_.mapping), 2u);
}

TEST_F(MhTest, TighterCandidateBudgetStillImproves) {
  MhOptions opts;
  opts.candidateProcesses = 3;
  opts.gapsPerNode = 1;
  opts.candidateMessages = 1;
  const double initialCost = eval_->evaluate(im_.mapping).cost;
  const RunReport mh = runMh(opts);
  EXPECT_LE(mh.objective, initialCost + 1e-9);
}

}  // namespace
}  // namespace ides
