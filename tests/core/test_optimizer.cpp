// The pluggable optimizer API: registry resolution, bit-identity of the
// interface against direct strategy calls, the graphs a cold start maps,
// stop tokens, progress events, and options validation.
#include "core/optimizer.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/incremental_designer.h"
#include "core/initial_mapping.h"
#include "model/system_model.h"
#include "tgen/benchmark_suite.h"
#include "test_helpers.h"

namespace ides {
namespace {

class OptimizerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    suite_ = std::make_unique<Suite>(
        buildSuite(ides::testing::smallSuiteConfig(), 21));
    DesignerOptions opts;
    opts.sa.iterations = 800;  // keep the test fast
    opts.psa.restarts = 3;
    opts.psa.threads = 2;
    designer_ = std::make_unique<IncrementalDesigner>(suite_->system,
                                                      suite_->profile, opts);
  }

  /// The Initial Mapping every strategy starts from (the legacy flow).
  MappingSolution initialSolution() const {
    PlatformState state = designer_->evaluator().baseline();
    const ScheduleOutcome im =
        initialMapping(suite_->system, state);
    EXPECT_TRUE(im.feasible);
    return im.mapping;
  }

  std::unique_ptr<Suite> suite_;
  std::unique_ptr<IncrementalDesigner> designer_;
};

TEST_F(OptimizerTest, BuiltinRegistryListsThePaperStrategies) {
  const StrategyRegistry& registry = StrategyRegistry::builtin();
  const std::vector<std::string> expected = {"AH", "MH", "SA", "PSA",
                                             "tabu"};
  EXPECT_EQ(registry.names(), expected);
  for (const std::string& name : expected) {
    EXPECT_TRUE(registry.contains(name)) << name;
    const std::unique_ptr<Optimizer> optimizer = registry.create(name);
    ASSERT_NE(optimizer, nullptr);
    EXPECT_EQ(optimizer->name(), name);
  }
}

TEST_F(OptimizerTest, UnknownStrategyThrowsListingTheValidSet) {
  try {
    (void)StrategyRegistry::builtin().create("simulated-annealing");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("simulated-annealing"), std::string::npos);
    for (const char* name : {"AH", "MH", "SA", "PSA"}) {
      EXPECT_NE(message.find(name), std::string::npos) << name;
    }
  }
}

TEST_F(OptimizerTest, DuplicateRegistrationThrows) {
  StrategyRegistry registry;
  registry.add("X", [](const DesignerOptions&) {
    return std::make_unique<AdHocOptimizer>();
  });
  EXPECT_THROW(registry.add("X",
                            [](const DesignerOptions&) {
                              return std::make_unique<AdHocOptimizer>();
                            }),
               std::invalid_argument);
}

TEST_F(OptimizerTest, SaThroughInterfaceIsBitIdenticalToDirectCall) {
  SaOptions sa = designer_->options().sa;
  const SaResult direct = runSimulatedAnnealing(
      designer_->evaluator(), initialSolution(), sa);

  const RunReport viaName = designer_->run("SA");
  EXPECT_TRUE(viaName.feasible);
  EXPECT_EQ(viaName.mapping, direct.solution);
  EXPECT_EQ(viaName.objective, direct.eval.cost);
  EXPECT_EQ(viaName.evaluations, direct.evaluations + 2);  // IM + final
}

TEST_F(OptimizerTest, PsaThroughInterfaceIsBitIdenticalToDirectCall) {
  ParallelSaOptions psa = designer_->options().psa;
  psa.base = designer_->options().sa;
  const ParallelSaResult direct = runParallelAnnealing(
      designer_->evaluator(), initialSolution(), psa);

  const RunReport viaName = designer_->run("PSA");
  EXPECT_TRUE(viaName.feasible);
  EXPECT_EQ(viaName.mapping, direct.solution);
  EXPECT_EQ(viaName.objective, direct.eval.cost);
}

TEST_F(OptimizerTest, RepeatedRunsThroughSharedContextAreRepeatable) {
  // The designer's RunContext keeps one EvalContext across runs; reusing
  // warm checkpoints must not change any result.
  const RunReport first = designer_->run("MH");
  const RunReport ah = designer_->run("AH");
  const RunReport second = designer_->run("MH");
  EXPECT_EQ(first.mapping, second.mapping);
  EXPECT_EQ(first.objective, second.objective);
  EXPECT_TRUE(ah.feasible);
}

TEST_F(OptimizerTest, PreFiredStopTokenDegradesSaToTheInitialMapping) {
  StopToken stop;
  stop.requestStop();
  RunContext context;
  context.stop = &stop;
  const RunReport stopped = designer_->run("SA", context);
  const RunReport ah = designer_->run("AH");
  EXPECT_TRUE(stopped.stopped);
  EXPECT_TRUE(stopped.feasible);
  EXPECT_EQ(stopped.mapping, ah.mapping);
  EXPECT_EQ(stopped.objective, ah.objective);
}

TEST_F(OptimizerTest, PassedDeadlineStopsEveryStrategyGracefully) {
  for (const char* name : {"MH", "SA", "PSA"}) {
    StopToken stop;
    stop.setTimeout(-1.0);  // already expired
    RunContext context;
    context.stop = &stop;
    const RunReport r = designer_->run(name, context);
    EXPECT_TRUE(r.stopped) << name;
    EXPECT_TRUE(r.feasible) << name;
  }
}

TEST_F(OptimizerTest, UnfiredStopTokenLeavesSaBitIdentical) {
  StopToken stop;  // never fires, no deadline
  RunContext context;
  context.stop = &stop;
  const RunReport withToken = designer_->run("SA", context);
  const RunReport without = designer_->run("SA");
  EXPECT_EQ(withToken.mapping, without.mapping);
  EXPECT_EQ(withToken.objective, without.objective);
  EXPECT_FALSE(withToken.stopped);
}

TEST_F(OptimizerTest, ProgressSinkSeesPhaseBoundaries) {
  std::vector<std::string> phases;
  RunContext context;
  context.progress = [&](const ProgressEvent& event) {
    phases.emplace_back(event.phase);
  };
  const RunReport r = designer_->run("MH", context);
  EXPECT_TRUE(r.feasible);
  const std::vector<std::string> expected = {"initial-mapping", "improve",
                                             "final"};
  EXPECT_EQ(phases, expected);
}

// The cold run, which is also the fallback for a rejected warm seed, maps
// the graphs the evaluator was built for, not the model's current
// application.
TEST(OptimizerColdStart, MapsTheEvaluatorsOwnGraphs) {
  ides::testing::ScenarioIds ids;
  const SystemModel sys = ides::testing::makeIncrementalScenario(&ids);
  const GraphId legacy = sys.application(ids.existingApp).graphs.at(0);
  FutureProfile profile;
  profile.tmin = 100;
  profile.tneed = 30;
  profile.bneedBytes = 8;
  profile.wcetDistribution = DiscreteDistribution({{10, 1.0}});
  profile.messageSizeDistribution = DiscreteDistribution({{4, 1.0}});
  const PlatformState empty(sys.architecture(), sys.hyperperiod());
  const SolutionEvaluator evaluator(sys, empty, profile, MetricWeights{},
                                    {legacy});

  const std::vector<ProcessId>& procs = sys.graph(legacy).processes;
  MappingSolution seed(sys);
  seed.setNode(procs[0], NodeId{0});
  seed.setNode(procs[1], NodeId{1});
  seed.setStartHint(procs[1], 195);  // forces a deadline miss
  RunContext probe;
  ASSERT_FALSE(probe.evalContext(evaluator).evaluate(seed).feasible);

  PlatformState state = empty;
  const ScheduleOutcome im = initialMapping(sys, state, {legacy});
  ASSERT_TRUE(im.feasible);
  for (const std::string name : {"AH", "MH"}) {
    RunContext context;
    const std::unique_ptr<Optimizer> optimizer =
        StrategyRegistry::builtin().create(name);
    const RunReport report = optimizer->run(evaluator, context, &seed);
    ASSERT_TRUE(report.feasible) << name;
    EXPECT_EQ(report.mapping.nodeOf(procs[0]), NodeId{0}) << name;
    EXPECT_EQ(report.mapping.nodeOf(procs[1]), NodeId{1}) << name;
    EXPECT_FALSE(report.mapping.nodeOf(ids.diamond.p1).valid()) << name;
    if (name == "AH") {
      EXPECT_EQ(report.mapping, im.mapping);
    }
  }
}

// ---- options validation ---------------------------------------------------

TEST(OptimizerValidation, NegativeSaIterationsThrow) {
  SaOptions opts;
  opts.iterations = -1;
  EXPECT_THROW(validateOptions(opts), std::invalid_argument);
}

TEST(OptimizerValidation, SaMoveMixOutOfRangeThrows) {
  SaOptions opts;
  opts.probRemap = 1.5;
  EXPECT_THROW(validateOptions(opts), std::invalid_argument);
  opts.probRemap = 0.7;
  opts.probProcessHint = 0.7;  // sums past 1
  EXPECT_THROW(validateOptions(opts), std::invalid_argument);
  opts.probProcessHint = -0.1;
  EXPECT_THROW(validateOptions(opts), std::invalid_argument);
}

TEST(OptimizerValidation, SaTemperatureKnobsAreRangeChecked) {
  SaOptions opts;
  opts.finalTemp = 0.0;
  EXPECT_THROW(validateOptions(opts), std::invalid_argument);
  opts = SaOptions{};
  opts.initialTempFactor = -0.5;
  EXPECT_THROW(validateOptions(opts), std::invalid_argument);
}

TEST(OptimizerValidation, NegativeMhBudgetsThrow) {
  MhOptions opts;
  opts.maxIterations = -1;
  EXPECT_THROW(validateOptions(opts), std::invalid_argument);
  opts = MhOptions{};
  opts.candidateProcesses = -3;
  EXPECT_THROW(validateOptions(opts), std::invalid_argument);
}

TEST(OptimizerValidation, PsaShapeIsRangeChecked) {
  ParallelSaOptions opts;
  opts.restarts = 0;
  EXPECT_THROW(validateOptions(opts), std::invalid_argument);
  opts = ParallelSaOptions{};
  opts.threads = -2;
  EXPECT_THROW(validateOptions(opts), std::invalid_argument);
  opts = ParallelSaOptions{};
  opts.perChainIterations = -1;
  EXPECT_THROW(validateOptions(opts), std::invalid_argument);
  // 0 threads = hardware concurrency, a legal auto value.
  opts = ParallelSaOptions{};
  opts.threads = 0;
  EXPECT_NO_THROW(validateOptions(opts));
}

TEST(OptimizerValidation, DesignerOptionsValidateEveryLayer) {
  DesignerOptions opts;
  opts.weights.w2p = -1.0;
  EXPECT_THROW(validateOptions(opts), std::invalid_argument);
  opts = DesignerOptions{};
  opts.sa.iterations = -5;
  EXPECT_THROW(validateOptions(opts), std::invalid_argument);
  opts = DesignerOptions{};
  opts.mh.busWindows = -1;
  EXPECT_THROW(validateOptions(opts), std::invalid_argument);
}

TEST(OptimizerValidation, InvalidOptionsFailAtTheEntryPoints) {
  const Suite suite = buildSuite(ides::testing::smallSuiteConfig(40, 12), 5);
  DesignerOptions bad;
  bad.sa.iterations = -1;
  EXPECT_THROW(IncrementalDesigner(suite.system, suite.profile, bad),
               std::invalid_argument);
  EXPECT_THROW((void)StrategyRegistry::builtin().create("SA", bad),
               std::invalid_argument);

  IncrementalDesigner designer(suite.system, suite.profile);
  PlatformState state = designer.evaluator().baseline();
  const ScheduleOutcome im = initialMapping(suite.system, state);
  ASSERT_TRUE(im.feasible);
  SaOptions badSa;
  badSa.iterations = -1;
  EXPECT_THROW((void)runSimulatedAnnealing(designer.evaluator(), im.mapping,
                                           badSa),
               std::invalid_argument);
  MhOptions badMh;
  badMh.maxIterations = -1;
  EXPECT_THROW((void)runMappingHeuristic(designer.evaluator(), im.mapping,
                                         badMh),
               std::invalid_argument);
}

}  // namespace
}  // namespace ides
