// EvalContext: the delta-aware evaluation engine must be bit-identical to
// the stateless full-pass evaluator — for arbitrary move sequences (with
// rejected moves, i.e. stale checkpoints), and end to end through SA / PSA /
// MH with incremental evaluation toggled on and off.
#include <gtest/gtest.h>

#include "core/evaluator.h"
#include "core/initial_mapping.h"
#include "core/optimizer.h"
#include "model/system_model.h"
#include "tgen/benchmark_suite.h"
#include "test_helpers.h"
#include "util/rng.h"

namespace ides {
namespace {

/// A loaded instance whose current application spans several graphs, so
/// checkpoints actually have a prefix to reuse.
Suite multiGraphSuite(std::uint64_t seed = 7) {
  SuiteConfig cfg = ides::testing::smallSuiteConfig(60, 36);
  cfg.currentGraphSize = 10;  // 36 processes -> 4 current graphs
  return buildSuite(cfg, seed);
}

FutureProfile profileOf(const Suite& suite) { return suite.profile; }

class EvalContextTest : public ::testing::Test {
 protected:
  void SetUp() override {
    suite_ = std::make_unique<Suite>(multiGraphSuite());
    frozen_ = std::make_unique<FrozenBase>(
        freezeExistingApplications(suite_->system));
    ASSERT_TRUE(frozen_->feasible);
    evaluator_ = std::make_unique<SolutionEvaluator>(
        suite_->system, frozen_->state, profileOf(*suite_), MetricWeights{});
    PlatformState state = frozen_->state;
    const ScheduleOutcome im = initialMapping(suite_->system, state);
    ASSERT_TRUE(im.feasible);
    initial_ = im.mapping;
    ASSERT_GE(evaluator_->currentGraphs().size(), 3u)
        << "instance too small to exercise checkpoints";
  }

  /// One random SA-style move; returns the hint describing it.
  MoveHint randomMove(MappingSolution& solution, Rng& rng) const {
    const SystemModel& sys = suite_->system;
    std::vector<ProcessId> procs;
    std::vector<MessageId> msgs;
    for (GraphId g : evaluator_->currentGraphs()) {
      const ProcessGraph& graph = sys.graph(g);
      procs.insert(procs.end(), graph.processes.begin(),
                   graph.processes.end());
      msgs.insert(msgs.end(), graph.messages.begin(), graph.messages.end());
    }
    MoveHint hint;
    const double dice = rng.uniform01();
    if (dice < 0.45) {
      const ProcessId p = rng.pick(procs);
      const auto allowed = sys.process(p).allowedNodes();
      solution.setNode(p, allowed[rng.index(allowed.size())]);
      solution.setStartHint(p, 0);
      hint.graph = sys.process(p).graph;
      hint.process = p;
    } else if (dice < 0.8 || msgs.empty()) {
      const ProcessId p = rng.pick(procs);
      const Process& proc = sys.process(p);
      const ProcessGraph& graph = sys.graph(proc.graph);
      const Time maxHint =
          std::max<Time>(0, graph.deadline - proc.wcetOn(solution.nodeOf(p)));
      solution.setStartHint(p,
                            maxHint > 0 ? rng.uniformInt(0, maxHint) : 0);
      hint.graph = proc.graph;
      hint.process = p;
    } else {
      const MessageId m = rng.pick(msgs);
      const ProcessGraph& graph = sys.graph(sys.message(m).graph);
      solution.setMessageHint(m, rng.uniformInt(0, graph.deadline - 1));
      hint.graph = graph.id;
      hint.message = m;
    }
    return hint;
  }

  static void expectBitIdentical(const EvalResult& a, const EvalResult& b) {
    EXPECT_EQ(a.placed, b.placed);
    EXPECT_EQ(a.feasible, b.feasible);
    EXPECT_EQ(a.deadlineMisses, b.deadlineMisses);
    EXPECT_EQ(a.lateness, b.lateness);
    EXPECT_EQ(a.cost, b.cost);            // exact, not near
    EXPECT_EQ(a.objective, b.objective);  // exact, not near
    EXPECT_EQ(a.metrics.c1p, b.metrics.c1p);
    EXPECT_EQ(a.metrics.c1m, b.metrics.c1m);
    EXPECT_EQ(a.metrics.c2p, b.metrics.c2p);
    EXPECT_EQ(a.metrics.c2mBytes, b.metrics.c2mBytes);
  }

  std::unique_ptr<Suite> suite_;
  std::unique_ptr<FrozenBase> frozen_;
  std::unique_ptr<SolutionEvaluator> evaluator_;
  MappingSolution initial_;
};

TEST_F(EvalContextTest, FullPassMatchesSolutionEvaluator) {
  EvalContext ctx(*evaluator_);
  expectBitIdentical(ctx.evaluate(initial_), evaluator_->evaluate(initial_));
}

TEST_F(EvalContextTest, RandomizedMoveSequenceIsBitIdentical) {
  // Metropolis-style walk with rejections: the context's reference drifts
  // away from the accepted solution, which is exactly the stale-checkpoint
  // case the prefix verification must catch.
  EvalContext ctx(*evaluator_);
  Rng rng(99);
  MappingSolution current = initial_;
  ASSERT_TRUE(ctx.evaluate(current).feasible);

  for (int step = 0; step < 250; ++step) {
    MappingSolution trial = current;
    const MoveHint hint = randomMove(trial, rng);
    const EvalResult incremental = ctx.evaluate(trial, hint);
    const EvalResult reference = evaluator_->evaluate(trial);
    expectBitIdentical(incremental, reference);
    if (rng.chance(0.4)) current = std::move(trial);  // accept sometimes
  }
  // The delta engine must have actually skipped work, not silently done
  // full passes — including whole evaluations served from the cached
  // result when a hint move left the schedule entry-identical.
  EXPECT_GT(ctx.graphsReused(), 0u);
  EXPECT_GT(ctx.zeroDeltaServes(), 0u);
}

TEST_F(EvalContextTest, ZeroDeltaHintMoveIsServedByJournalReplay) {
  // Construct a provable zero-delta: pick a process whose arrival bound
  // shadows a start-hint bump on every instance (k*P + hint <= arrival),
  // so the scheduler never reads the changed hint. The context must serve
  // the cached result after re-scheduling only the restart graph — the
  // downstream graphs' occupancy is restored by journal replay.
  EvalContext ctx(*evaluator_);
  ASSERT_TRUE(ctx.evaluate(initial_).feasible);

  const SystemModel& sys = suite_->system;
  ProcessId victim;
  GraphId victimGraph;
  Time newHint = 0;
  for (GraphId g : evaluator_->currentGraphs()) {
    const ProcessGraph& graph = sys.graph(g);
    const std::int64_t instances = sys.instanceCount(g);
    for (const ProcessId p : graph.processes) {
      Time shadow = graph.deadline;  // min over instances of arrival - k*P
      for (std::int64_t k = 0; k < instances; ++k) {
        const Time arrival = ctx.arrivalBounds()[evaluator_->jobIndexOf(
            p, static_cast<std::int32_t>(k))];
        shadow = std::min(shadow, arrival - k * graph.period);
      }
      if (shadow > 0 && shadow != initial_.startHint(p)) {
        victim = p;
        victimGraph = g;
        newHint = shadow;
        break;
      }
    }
    if (victim.valid()) break;
  }
  ASSERT_TRUE(victim.valid())
      << "instance has no arrival-shadowed process to exercise the serve";

  MappingSolution trial = initial_;
  trial.setStartHint(victim, newHint);
  MoveHint hint;
  hint.graph = victimGraph;
  hint.process = victim;

  const std::size_t scheduledBefore = ctx.graphsScheduled();
  const std::size_t servesBefore = ctx.zeroDeltaServes();
  const EvalResult r = ctx.evaluate(trial, hint);
  expectBitIdentical(r, evaluator_->evaluate(trial));
  EXPECT_EQ(ctx.zeroDeltaServes(), servesBefore + 1);
  // Only the restart graph was re-scheduled; everything downstream was
  // replayed, not re-run.
  EXPECT_LE(ctx.graphsScheduled(), scheduledBefore + 1);

  // The restored state must keep serving exact results for follow-up moves
  // (the replay left checkpoints, fine marks and the metrics cache whole).
  Rng rng(17);
  MappingSolution current = trial;
  for (int step = 0; step < 40; ++step) {
    MappingSolution next = current;
    const MoveHint h = randomMove(next, rng);
    expectBitIdentical(ctx.evaluate(next, h), evaluator_->evaluate(next));
    if (rng.chance(0.5)) current = std::move(next);
  }
}

TEST_F(EvalContextTest, PoolResyncAfterPartialRewindIsBitIdentical) {
  // Two contexts share one evaluator and take turns evaluating one move
  // sequence, so the idle one's checkpoint reference always lags the walk.
  // A lagging context must re-align bit-identically — lazily on its next
  // evaluation, or eagerly when it re-reads the committed solution under
  // the committing move's hint (a mid-graph partial rewind) — through
  // randomized accept/reject sequences.
  EvalContext contexts[2] = {EvalContext(*evaluator_),
                             EvalContext(*evaluator_)};
  for (EvalContext& ctx : contexts) {
    expectBitIdentical(ctx.evaluate(initial_), evaluator_->evaluate(initial_));
  }

  Rng rng(4102);
  MappingSolution current = initial_;
  for (int step = 0; step < 240; ++step) {
    MappingSolution trial = current;
    const MoveHint hint = randomMove(trial, rng);
    EvalContext& ctx = contexts[step % 2];
    expectBitIdentical(ctx.evaluate(trial, hint), evaluator_->evaluate(trial));
    if (rng.chance(0.5)) {
      current = std::move(trial);
      // Sometimes re-align the idle context eagerly; otherwise leave the
      // catch-up to its next turn.
      if (rng.chance(0.3)) {
        expectBitIdentical(contexts[(step + 1) % 2].evaluate(current, hint),
                           evaluator_->evaluate(current));
      }
    }
  }
  // After the walk both contexts — however stale — converge on the
  // committed solution with an exact result.
  const EvalResult reference = evaluator_->evaluate(current);
  for (EvalContext& ctx : contexts) {
    expectBitIdentical(ctx.evaluate(current), reference);
  }
}

TEST_F(EvalContextTest, OutputsMatchFullEvaluator) {
  EvalContext ctx(*evaluator_);
  ScheduleOutcome co, eo;
  SlackInfo cs, es;
  const EvalResult cr = ctx.evaluate(initial_, &co, &cs);
  const EvalResult er = evaluator_->evaluate(initial_, &eo, &es);
  expectBitIdentical(cr, er);
  ASSERT_EQ(co.schedule.processEntryCount(), eo.schedule.processEntryCount());
  for (const ScheduledProcess& sp : eo.schedule.processes()) {
    const ScheduledProcess& other =
        co.schedule.processEntry(sp.pid, sp.instance);
    EXPECT_EQ(other.node, sp.node);
    EXPECT_EQ(other.start, sp.start);
    EXPECT_EQ(other.end, sp.end);
  }
  EXPECT_EQ(cs.nodeFree.size(), es.nodeFree.size());
  for (std::size_t n = 0; n < es.nodeFree.size(); ++n) {
    EXPECT_EQ(cs.nodeFree[n], es.nodeFree[n]);
  }
  // Re-reading the same solution serves the cached state.
  const std::size_t scheduledBefore = ctx.graphsScheduled();
  ScheduleOutcome again;
  expectBitIdentical(ctx.evaluate(initial_, &again, nullptr), er);
  EXPECT_EQ(ctx.graphsScheduled(), scheduledBefore);
}

TEST_F(EvalContextTest, StaleHintIsCorrectedNotTrusted) {
  // Claim a move touched the LAST graph while actually changing the FIRST:
  // the context must detect the earlier difference and restart there.
  EvalContext ctx(*evaluator_);
  ASSERT_TRUE(ctx.evaluate(initial_).feasible);

  const GraphId firstGraph = evaluator_->currentGraphs().front();
  const GraphId lastGraph = evaluator_->currentGraphs().back();
  MappingSolution trial = initial_;
  const ProcessId victim = suite_->system.graph(firstGraph).processes.front();
  trial.setStartHint(victim, trial.startHint(victim) + 3);

  MoveHint lyingHint;
  lyingHint.graph = lastGraph;
  expectBitIdentical(ctx.evaluate(trial, lyingHint),
                     evaluator_->evaluate(trial));
}

/// Runs `optimizer` from the Initial Mapping on a fresh context.
RunReport runFresh(const Optimizer& optimizer,
                   const SolutionEvaluator& evaluator) {
  RunContext context;
  return optimizer.run(evaluator, context);
}

/// The counters and result a strategy run must keep across incrementalEval
/// on/off; zeroDeltaSkips is the one counter the switch may move.
void expectSameRun(const RunReport& fast, const RunReport& slow) {
  EXPECT_EQ(fast.objective, slow.objective);
  EXPECT_EQ(fast.evaluations, slow.evaluations);
  EXPECT_EQ(fast.proposals, slow.proposals);
  EXPECT_EQ(fast.accepted, slow.accepted);
  EXPECT_TRUE(fast.mapping == slow.mapping);
}

TEST_F(EvalContextTest, SaIncrementalMatchesFullPass) {
  SaOptions opts;
  opts.seed = 5;
  opts.iterations = 1200;
  opts.incrementalEval = true;
  const RunReport fast =
      runFresh(SimulatedAnnealingOptimizer(opts), *evaluator_);
  opts.incrementalEval = false;
  const RunReport slow =
      runFresh(SimulatedAnnealingOptimizer(opts), *evaluator_);
  expectSameRun(fast, slow);
  // The zero-delta filter replays proposals without evaluating — but the
  // evaluation/acceptance counters above must stay invariant to it, and
  // full-pass mode (no fingerprint) never skips.
  EXPECT_GT(fast.zeroDeltaSkips, 0u);
  EXPECT_EQ(slow.zeroDeltaSkips, 0u);
}

TEST_F(EvalContextTest, PsaIncrementalMatchesFullPass) {
  SaOptions chain;
  chain.seed = 5;
  chain.iterations = 400;
  ParallelSaOptions ensemble;
  ensemble.restarts = 3;
  ensemble.threads = 2;
  chain.incrementalEval = true;
  const RunReport fast =
      runFresh(ParallelAnnealingOptimizer(chain, ensemble), *evaluator_);
  chain.incrementalEval = false;
  const RunReport slow =
      runFresh(ParallelAnnealingOptimizer(chain, ensemble), *evaluator_);
  expectSameRun(fast, slow);
  EXPECT_EQ(slow.zeroDeltaSkips, 0u);
}

TEST_F(EvalContextTest, MhIncrementalMatchesFullPass) {
  MhOptions opts;
  opts.maxIterations = 64;
  opts.incrementalEval = true;
  const RunReport fast = runFresh(MappingHeuristicOptimizer(opts), *evaluator_);
  opts.incrementalEval = false;
  const RunReport slow = runFresh(MappingHeuristicOptimizer(opts), *evaluator_);
  expectSameRun(fast, slow);
  EXPECT_NE(fast.mapping, initial_);  // MH moved off the Initial Mapping
}

}  // namespace
}  // namespace ides
