// Tabu search: determinism, the incremental-evaluation and thread-count
// bit-identity contracts, registry integration against a directly built
// optimizer, stop-token discipline (also fired mid-run from another
// thread), and options validation.
#include "core/tabu_search.h"

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>

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

/// Every RunReport field except the wall-clock seconds.
void expectSameReport(const RunReport& a, const RunReport& b) {
  EXPECT_EQ(a.strategy, b.strategy);
  EXPECT_EQ(a.feasible, b.feasible);
  EXPECT_EQ(a.mapping, b.mapping);
  EXPECT_EQ(a.schedule.processes(), b.schedule.processes());
  EXPECT_EQ(a.schedule.messages(), b.schedule.messages());
  EXPECT_EQ(a.metrics.c1p, b.metrics.c1p);
  EXPECT_EQ(a.metrics.c1m, b.metrics.c1m);
  EXPECT_EQ(a.metrics.c2p, b.metrics.c2p);
  EXPECT_EQ(a.metrics.c2mBytes, b.metrics.c2mBytes);
  EXPECT_EQ(a.objective, b.objective);
  EXPECT_EQ(a.evaluations, b.evaluations);
  EXPECT_EQ(a.proposals, b.proposals);
  EXPECT_EQ(a.accepted, b.accepted);
  EXPECT_EQ(a.zeroDeltaSkips, b.zeroDeltaSkips);
  EXPECT_EQ(a.stopped, b.stopped);
  EXPECT_EQ(a.warmStarted, b.warmStarted);
}

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

TEST_F(TabuSearchTest, RunReportIsIdenticalAtEveryThreadCount) {
  // The batch is drawn before it is evaluated and selected in draw order,
  // so the thread count (more threads than candidates included) never
  // reaches the trajectory — with either evaluation engine.
  for (const int candidates : {1, 3, 8}) {
    for (const bool incremental : {true, false}) {
      TabuOptions options = options_.tabu;
      options.candidates = candidates;
      options.incrementalEval = incremental;
      options.threads = 1;
      const RunReport serial = runTabu(options);
      EXPECT_GT(serial.accepted, 0u);
      for (const int threads : {2, 4, 7}) {
        SCOPED_TRACE("candidates " + std::to_string(candidates) +
                     (incremental ? " incremental" : " stateless") +
                     " threads " + std::to_string(threads));
        options.threads = threads;
        expectSameReport(runTabu(options), serial);
      }
    }
  }
}

TEST_F(TabuSearchTest, StopFromAnotherThreadEndsAParallelRunCleanly) {
  TabuOptions options = options_.tabu;
  options.iterations = 1 << 30;  // only the stop can end this run
  options.candidates = 8;
  options.threads = 4;
  StopToken stop;
  std::thread stopper([&stop] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    stop.requestStop();
  });
  const RunReport r = runTabu(options, &stop);
  stopper.join();

  EXPECT_TRUE(r.stopped);
  EXPECT_TRUE(r.feasible);
  // The stop lands between iterations: only whole batches were drawn, and
  // at most one move was taken per batch.
  EXPECT_EQ(r.proposals % 8, 0u);
  EXPECT_LE(r.accepted * 8, r.proposals);
  // The reported objective is the reported mapping's, and never worse
  // than the start.
  const EvalResult check = designer_->evaluator().evaluate(r.mapping);
  EXPECT_TRUE(check.feasible);
  EXPECT_EQ(check.objective, r.objective);
  EXPECT_LE(r.objective, designer_->evaluator().evaluate(initial_).cost);
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
  rejects([](TabuOptions& o) { o.threads = -1; });
  rejects([](TabuOptions& o) { o.probRemap = 1.5; });
  rejects([](TabuOptions& o) {
    o.probRemap = 0.7;
    o.probProcessHint = 0.7;  // sums past 1
  });
  // Tabu knobs are validated as part of the designer bag, too.
  DesignerOptions designer;
  designer.tabu.candidates = 0;
  EXPECT_THROW(validateOptions(designer), std::invalid_argument);
  // 0 threads = hardware concurrency, and more threads than candidates
  // are capped, not rejected.
  TabuOptions automatic;
  automatic.threads = 0;
  EXPECT_NO_THROW(validateOptions(automatic));
  automatic.threads = automatic.candidates + 5;
  EXPECT_NO_THROW(validateOptions(automatic));
}

}  // namespace
}  // namespace ides
