// Tabu search: determinism, the incremental-evaluation bit-identity
// contract, registry integration against a directly built optimizer,
// stop-token discipline, and options validation.
#include "core/tabu_search.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "core/incremental_designer.h"
#include "core/initial_mapping.h"
#include "core/optimizer.h"
#include "tgen/benchmark_suite.h"
#include "test_helpers.h"

namespace ides {
namespace {

class TabuSearchTest : public ::testing::Test {
 protected:
  void SetUp() override {
    suite_ = std::make_unique<Suite>(
        buildSuite(ides::testing::smallSuiteConfig(), 17));
    options_.tabu.iterations = 200;
    options_.tabu.candidates = 4;
    designer_ = std::make_unique<IncrementalDesigner>(
        suite_->system, suite_->profile, options_);
    PlatformState state = designer_->evaluator().baseline();
    const ScheduleOutcome im = initialMapping(suite_->system, state);
    ASSERT_TRUE(im.feasible);
    initial_ = im.mapping;
  }

  /// Tabu search from the Initial Mapping (initial_) through
  /// Optimizer::run.
  RunReport runTabu(const TabuOptions& options,
                    const StopToken* stop = nullptr) const {
    RunContext context;
    context.stop = stop;
    return TabuSearchOptimizer(options).run(designer_->evaluator(), context);
  }

  std::unique_ptr<Suite> suite_;
  DesignerOptions options_;
  std::unique_ptr<IncrementalDesigner> designer_;
  MappingSolution initial_;
};

TEST_F(TabuSearchTest, RunsAreDeterministicAndNeverWorseThanTheInitial) {
  const RunReport first = runTabu(options_.tabu);
  const RunReport second = runTabu(options_.tabu);

  EXPECT_TRUE(first.feasible);
  // Best-so-far discipline: the result is at most the initial cost.
  const EvalResult start = designer_->evaluator().evaluate(initial_);
  EXPECT_LE(first.objective, start.cost);

  EXPECT_EQ(first.mapping, second.mapping);
  EXPECT_EQ(first.objective, second.objective);
  EXPECT_EQ(first.evaluations, second.evaluations);
  EXPECT_EQ(first.proposals, second.proposals);
  EXPECT_EQ(first.accepted, second.accepted);
}

TEST_F(TabuSearchTest, IncrementalEvalIsAPurePerformanceSwitch) {
  TabuOptions incremental = options_.tabu;
  incremental.incrementalEval = true;
  TabuOptions stateless = options_.tabu;
  stateless.incrementalEval = false;
  const RunReport fast = runTabu(incremental);
  const RunReport slow = runTabu(stateless);
  EXPECT_EQ(fast.mapping, slow.mapping);
  EXPECT_EQ(fast.objective, slow.objective);
  EXPECT_EQ(fast.evaluations, slow.evaluations);
  EXPECT_EQ(fast.proposals, slow.proposals);
  EXPECT_EQ(fast.accepted, slow.accepted);
}

TEST_F(TabuSearchTest, RegistryRunIsBitIdenticalToTheDirectCall) {
  // The registry factory hands DesignerOptions::tabu to the optimizer.
  const RunReport direct = runTabu(options_.tabu);
  const RunReport viaName = designer_->run("tabu");
  EXPECT_TRUE(viaName.feasible);
  EXPECT_EQ(viaName.mapping, direct.mapping);
  EXPECT_EQ(viaName.objective, direct.objective);
  EXPECT_EQ(viaName.evaluations, direct.evaluations);
  EXPECT_EQ(viaName.proposals, direct.proposals);
}

TEST_F(TabuSearchTest, PreFiredStopKeepsTheInitialSolution) {
  StopToken stop;
  stop.requestStop();
  const RunReport stopped = runTabu(options_.tabu, &stop);
  EXPECT_TRUE(stopped.stopped);
  EXPECT_EQ(stopped.mapping, initial_);
  EXPECT_EQ(stopped.evaluations, 2u);  // only the IM and the final pass
  EXPECT_EQ(stopped.accepted, 0u);
}

TEST_F(TabuSearchTest, UnfiredStopTokenLeavesTheTrajectoryUntouched) {
  StopToken stop;  // never fires
  const RunReport guarded = runTabu(options_.tabu, &stop);
  const RunReport plain = runTabu(options_.tabu);
  EXPECT_FALSE(guarded.stopped);
  EXPECT_EQ(guarded.mapping, plain.mapping);
  EXPECT_EQ(guarded.objective, plain.objective);
  EXPECT_EQ(guarded.evaluations, plain.evaluations);
}

TEST(TabuValidation, KnobsAreRangeChecked) {
  const auto rejects = [](void (*tweak)(TabuOptions&)) {
    TabuOptions options;
    tweak(options);
    EXPECT_THROW(validateOptions(options), std::invalid_argument);
  };
  rejects([](TabuOptions& o) { o.iterations = -1; });
  rejects([](TabuOptions& o) { o.candidates = 0; });
  rejects([](TabuOptions& o) { o.tenure = -1; });
  rejects([](TabuOptions& o) { o.probRemap = 1.5; });
  rejects([](TabuOptions& o) {
    o.probRemap = 0.7;
    o.probProcessHint = 0.7;  // sums past 1
  });
  // Tabu knobs are validated as part of the designer bag, too.
  DesignerOptions designer;
  designer.tabu.candidates = 0;
  EXPECT_THROW(validateOptions(designer), std::invalid_argument);
}

}  // namespace
}  // namespace ides
