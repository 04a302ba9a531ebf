#include "core/optimizer.h"

#include <chrono>
#include <cmath>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/initial_mapping.h"
#include "model/system_model.h"
#include "obs/telemetry.h"

namespace ides {

namespace {

/// Per-strategy run telemetry, recorded once per completed run from the
/// report's own counters — the sums the strategy engines already track, so
/// the inner loops pay nothing extra. Write-only by design: nothing here
/// is ever read back into a decision (result neutrality).
void recordRunTelemetry(const RunReport& report) {
  if (!telemetryEnabled()) return;
  TelemetryRegistry& reg = telemetry();
  const MetricLabels labels = {{"strategy", report.strategy}};
  reg.counter("ides_opt_runs_total", "Completed optimizer runs", labels)
      .add();
  reg.counter("ides_opt_evaluations_total",
              "Schedule evaluations consumed by optimizer runs", labels)
      .add(report.evaluations);
  reg.counter("ides_opt_proposals_total",
              "Moves proposed by annealing/tabu inner loops", labels)
      .add(report.proposals);
  reg.counter("ides_opt_accepted_total",
              "Proposed moves accepted by the strategy", labels)
      .add(report.accepted);
  reg.counter("ides_opt_zero_delta_skips_total",
              "Proposals replayed by the zero-delta filter without "
              "evaluation",
              labels)
      .add(report.zeroDeltaSkips);
  reg.histogram("ides_opt_run_seconds",
                "Wall-clock seconds per optimizer run",
                {0.001, 0.005, 0.02, 0.1, 0.5, 2.0, 10.0, 60.0}, labels)
      .observe(report.seconds);
}

}  // namespace

void validateOptions(const DesignerOptions& options) {
  const auto weightOk = [](double w) { return std::isfinite(w) && w >= 0.0; };
  if (!weightOk(options.weights.w1p) || !weightOk(options.weights.w1m) ||
      !weightOk(options.weights.w2p) || !weightOk(options.weights.w2m)) {
    throw std::invalid_argument(
        "DesignerOptions: metric weights must be finite and >= 0");
  }
  validateOptions(options.mh);
  validateOptions(options.sa);
  validateOptions(options.psa);
  validateOptions(options.tabu);
}

EvalContext& RunContext::evalContext(const SolutionEvaluator& evaluator) {
  if (evalContext_ == nullptr || &evalContext_->evaluator() != &evaluator) {
    evalContext_ = std::make_unique<EvalContext>(evaluator);
  }
  return *evalContext_;
}

RunReport Optimizer::run(const SolutionEvaluator& evaluator,
                         RunContext& context,
                         const MappingSolution* warmStart) const {
  using Clock = std::chrono::steady_clock;
  const auto start = Clock::now();

  RunReport report;
  report.strategy = name();
  const bool warm = warmStart != nullptr;
  const TraceSpan span("optimizer:" + name() + (warm ? ":warm" : ""), "core");

  MappingSolution solution;
  if (warm) {
    // Validate the seed before committing to it: warm starts can be stale
    // (the platform or the application set changed since the placements
    // were committed), and improve() requires a feasible entry solution.
    const EvalResult seed = context.evalContext(evaluator).evaluate(*warmStart);
    report.evaluations = 1;
    if (seed.feasible) {
      report.warmStarted = true;
      solution = *warmStart;
      context.report({report.strategy, "warm-start", 0, 0, seed.cost});
    }
  }

  if (!report.warmStarted) {
    // Every strategy starts from the same Initial Mapping on the frozen
    // baseline, over the graphs the evaluator moves. The evaluator keeps
    // them heaviest-first; IM commits them in application order, which
    // for the default evaluator is the AppKind::Current list itself.
    const SystemModel& sys = evaluator.system();
    std::vector<GraphId> graphs;
    for (const Application& app : sys.applications()) {
      for (const GraphId g : app.graphs) {
        if (evaluator.graphIndexOf(g) < evaluator.currentGraphs().size()) {
          graphs.push_back(g);
        }
      }
    }
    PlatformState state = evaluator.baseline();
    ScheduleOutcome im = initialMapping(sys, state, graphs);
    ++report.evaluations;
    context.report({report.strategy, "initial-mapping", 0, 0, 0.0});
    if (!im.feasible) {
      report.seconds =
          std::chrono::duration<double>(Clock::now() - start).count();
      recordRunTelemetry(report);
      return report;
    }
    solution = std::move(im.mapping);
  }

  if (context.stopRequested()) {
    report.stopped = true;
  } else {
    report.evaluations += improve(evaluator, solution, context, report);
  }

  // Final full evaluation through the shared context (bit-identical to the
  // stateless pass; re-uses whatever checkpoints the improvement left).
  EvalContext& final = context.evalContext(evaluator);
  ScheduleOutcome outcome;
  const EvalResult eval = final.evaluate(solution, &outcome, nullptr);
  ++report.evaluations;
  context.report(
      {report.strategy, "final", report.evaluations, 0, eval.cost});

  report.feasible = eval.feasible;
  report.mapping = std::move(solution);
  report.schedule = std::move(outcome.schedule);
  report.metrics = eval.metrics;
  report.objective = eval.cost;
  report.seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  recordRunTelemetry(report);
  return report;
}

// ---- registry -------------------------------------------------------------

void StrategyRegistry::add(std::string name, Factory factory) {
  if (contains(name)) {
    throw std::invalid_argument("StrategyRegistry: duplicate strategy \"" +
                                name + "\"");
  }
  factories_.emplace_back(std::move(name), std::move(factory));
}

bool StrategyRegistry::contains(const std::string& name) const {
  for (const auto& [n, f] : factories_) {
    if (n == name) return true;
  }
  return false;
}

std::vector<std::string> StrategyRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(factories_.size());
  for (const auto& [n, f] : factories_) out.push_back(n);
  return out;
}

std::unique_ptr<Optimizer> StrategyRegistry::create(
    const std::string& name, const DesignerOptions& options) const {
  for (const auto& [n, factory] : factories_) {
    if (n == name) {
      validateOptions(options);
      return factory(options);
    }
  }
  std::string known;
  for (const auto& [n, f] : factories_) {
    known += known.empty() ? n : ", " + n;
  }
  throw std::invalid_argument("unknown strategy \"" + name +
                              "\" (registered: " + known + ")");
}

const StrategyRegistry& StrategyRegistry::builtin() {
  static const StrategyRegistry registry = [] {
    StrategyRegistry r;
    r.add("AH", [](const DesignerOptions&) {
      return std::make_unique<AdHocOptimizer>();
    });
    r.add("MH", [](const DesignerOptions& o) {
      return std::make_unique<MappingHeuristicOptimizer>(o.mh);
    });
    r.add("SA", [](const DesignerOptions& o) {
      return std::make_unique<SimulatedAnnealingOptimizer>(o.sa);
    });
    r.add("PSA", [](const DesignerOptions& o) {
      return std::make_unique<ParallelAnnealingOptimizer>(o.sa, o.psa);
    });
    r.add("tabu", [](const DesignerOptions& o) {
      return std::make_unique<TabuSearchOptimizer>(o.tabu);
    });
    return r;
  }();
  return registry;
}

}  // namespace ides
