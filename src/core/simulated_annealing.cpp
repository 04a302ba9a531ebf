#include "core/simulated_annealing.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "core/optimizer.h"
#include "model/system_model.h"
#include "util/log.h"

namespace ides {

namespace {

[[noreturn]] void invalidOption(const char* field, const std::string& detail) {
  throw std::invalid_argument(std::string("SaOptions: ") + field + " " +
                              detail);
}

/// Geometric cooling from t0 down to options.finalTemp over the chain.
struct SaSchedule {
  double t0 = 1.0;
  double alpha = 1.0;
};

SaSchedule saSchedule(const SaOptions& options, double initialCost) {
  SaSchedule s;
  // Proportional to the starting cost, floored at finalTemp (never a
  // heating schedule). An absolute floor of 1.0 here used to make the
  // start infinitely hot for sub-unit objectives — small instances and
  // lifecycle steps — where it erased any good starting solution before
  // the chain cooled into the exploitation regime.
  s.t0 = std::max(options.finalTemp,
                  options.initialTempFactor * initialCost);
  s.alpha = options.iterations > 1
                ? std::pow(options.finalTemp / s.t0,
                           1.0 / static_cast<double>(options.iterations - 1))
                : 1.0;
  return s;
}

/// The Metropolis criterion. The acceptance stream is consumed only for
/// uphill moves (delta > 0), so the draw pattern is a pure function of the
/// decision sequence.
bool metropolisAccept(double delta, double temp, Rng& acceptanceRng) {
  return delta <= 0.0 ||
         acceptanceRng.uniform01() < std::exp(-delta / std::max(temp, 1e-12));
}

}  // namespace

void validateOptions(const SaOptions& options) {
  if (options.iterations < 0) {
    invalidOption("iterations",
                  "must be >= 0 (got " + std::to_string(options.iterations) +
                      ")");
  }
  if (!(options.initialTempFactor >= 0.0) ||
      !std::isfinite(options.initialTempFactor)) {
    invalidOption("initialTempFactor", "must be finite and >= 0");
  }
  if (!(options.finalTemp > 0.0) || !std::isfinite(options.finalTemp)) {
    invalidOption("finalTemp", "must be finite and > 0");
  }
  const auto isProbability = [](double p) {
    return std::isfinite(p) && p >= 0.0 && p <= 1.0;
  };
  if (!isProbability(options.probRemap) ||
      !isProbability(options.probProcessHint) ||
      options.probRemap + options.probProcessHint > 1.0) {
    invalidOption("move mix",
                  "probRemap and probProcessHint must each lie in [0, 1] "
                  "and sum to at most 1");
  }
}

SaMoveProposer::SaMoveProposer(const SolutionEvaluator& evaluator,
                               double probRemap, double probProcessHint)
    : sys_(&evaluator.system()),
      probRemap_(probRemap),
      probProcessHint_(probProcessHint) {
  for (GraphId g : evaluator.currentGraphs()) {
    const ProcessGraph& graph = sys_->graph(g);
    procs_.insert(procs_.end(), graph.processes.begin(),
                  graph.processes.end());
    msgs_.insert(msgs_.end(), graph.messages.begin(), graph.messages.end());
  }
  if (procs_.empty()) {
    throw std::invalid_argument(
        "SA/PSA/tabu optimizer: empty application (no process to move)");
  }
  allowedSpan_.assign(sys_->processes().size(), {0, 0});
  for (const ProcessId p : procs_) {
    const std::vector<NodeId> nodes = sys_->process(p).allowedNodes();
    allowedSpan_[p.index()] = {static_cast<std::uint32_t>(allowed_.size()),
                               static_cast<std::uint32_t>(nodes.size())};
    allowed_.insert(allowed_.end(), nodes.begin(), nodes.end());
  }
}

SaMove SaMoveProposer::propose(const MappingSolution& current,
                               Rng& proposalRng) const {
  SaMove move;
  const double dice = proposalRng.uniform01();
  if (dice < probRemap_) {
    // Re-map a process to a random allowed node, ASAP.
    const ProcessId p = proposalRng.pick(procs_);
    const auto [begin, count] = allowedSpan_[p.index()];
    move.kind = SaMove::Kind::Remap;
    move.process = p;
    move.node = allowed_[begin + proposalRng.index(count)];
    move.evalHint.graph = sys_->process(p).graph;
    move.evalHint.process = p;
  } else if (dice < probRemap_ + probProcessHint_) {
    // Move a process into a random slack of its node: a random
    // period-relative start hint that still leaves room for the WCET.
    const ProcessId p = proposalRng.pick(procs_);
    const Process& proc = sys_->process(p);
    const ProcessGraph& graph = sys_->graph(proc.graph);
    const Time maxHint = std::max<Time>(
        0, graph.deadline - proc.wcetOn(current.nodeOf(p)));
    move.kind = SaMove::Kind::ProcessHint;
    move.process = p;
    move.hint = maxHint > 0 ? proposalRng.uniformInt(0, maxHint) : 0;
    move.evalHint.graph = proc.graph;
    move.evalHint.process = p;
  } else if (!msgs_.empty()) {
    // Move a message into a random bus slack.
    const MessageId m = proposalRng.pick(msgs_);
    const ProcessGraph& graph = sys_->graph(sys_->message(m).graph);
    move.kind = SaMove::Kind::MessageHint;
    move.message = m;
    move.hint = proposalRng.uniformInt(0, graph.deadline - 1);
    move.evalHint.graph = graph.id;
    move.evalHint.message = m;
  }
  return move;  // Kind::None when the message branch found nothing to move
}

void SaMoveProposer::apply(const SaMove& move, MappingSolution& solution) {
  switch (move.kind) {
    case SaMove::Kind::None:
      break;
    case SaMove::Kind::Remap:
      solution.setNode(move.process, move.node);
      solution.setStartHint(move.process, 0);
      break;
    case SaMove::Kind::ProcessHint:
      solution.setStartHint(move.process, move.hint);
      break;
    case SaMove::Kind::MessageHint:
      solution.setMessageHint(move.message, move.hint);
      break;
  }
}

// ---- ZeroDeltaFilter ------------------------------------------------------

ZeroDeltaFilter::ZeroDeltaFilter(const SolutionEvaluator& evaluator)
    : ev_(&evaluator), sys_(&evaluator.system()) {
  const SystemModel& sys = *sys_;
  period_.assign(sys.processes().size(), 0);
  instances_.assign(sys.processes().size(), 0);
  for (const GraphId g : evaluator.currentGraphs()) {
    const ProcessGraph& graph = sys.graph(g);
    const auto instances = static_cast<std::int32_t>(sys.instanceCount(g));
    for (const ProcessId p : graph.processes) {
      const auto pi = static_cast<std::size_t>(p.index());
      period_[pi] = graph.period;
      instances_[pi] = instances;
    }
  }
}

void ZeroDeltaFilter::captureAccepted(const EvalContext& ctx,
                                      const EvalResult& result) {
  if (!result.feasible) {
    valid_ = false;
    return;
  }
  arrivals_ = ctx.arrivalBounds();
  const std::vector<ScheduledProcess>& procs = ctx.processes();
  ends_.resize(procs.size());
  for (std::size_t i = 0; i < procs.size(); ++i) ends_[i] = procs[i].end;
  valid_ = true;
}

bool ZeroDeltaFilter::zeroDelta(const SaMove& move,
                                const MappingSolution& current) const {
  if (!valid_) return false;
  switch (move.kind) {
    case SaMove::Kind::ProcessHint: {
      const ProcessId p = move.process;
      const Time bound =
          std::max(current.startHint(p), move.hint);  // covers old and new
      const auto pi = static_cast<std::size_t>(p.index());
      const Time period = period_[pi];
      for (std::int32_t k = 0; k < instances_[pi]; ++k) {
        if (static_cast<Time>(k) * period + bound >
            arrivals_[ev_->jobIndexOf(p, k)]) {
          return false;
        }
      }
      return true;
    }
    case SaMove::Kind::MessageHint: {
      const Message& msg = sys_->message(move.message);
      if (current.nodeOf(msg.src) == current.nodeOf(msg.dst)) {
        return true;  // hand-off never reads the hint
      }
      const Time bound = std::max(current.messageHint(move.message), move.hint);
      const auto pi = static_cast<std::size_t>(msg.src.index());
      const Time period = period_[pi];
      for (std::int32_t k = 0; k < instances_[pi]; ++k) {
        if (static_cast<Time>(k) * period + bound >
            ends_[ev_->jobIndexOf(msg.src, k)]) {
          return false;
        }
      }
      return true;
    }
    case SaMove::Kind::Remap:
    case SaMove::Kind::None:
      return false;
  }
  return false;
}

// ---- SimulatedAnnealingOptimizer ------------------------------------------

SimulatedAnnealingOptimizer::SimulatedAnnealingOptimizer(SaOptions options)
    : options_(options) {
  validateOptions(options_);
}

std::size_t SimulatedAnnealingOptimizer::improve(
    const SolutionEvaluator& evaluator, MappingSolution& solution,
    RunContext& context, RunReport& report) const {
  const SaOptions& options = options_;
  const SaMoveProposer proposer(evaluator, options.probRemap,
                                options.probProcessHint);
  Rng proposalRng(rngStreamSeed(options.seed, kSaProposalStream));
  Rng acceptanceRng(rngStreamSeed(options.seed, kSaAcceptanceStream));

  // One journaled scratch state for the whole chain: each move re-schedules
  // only the graphs it touches (full pass when incrementalEval is off). The
  // context's checkpoints are verified, never trusted, so whatever an
  // earlier run left in it cannot change the result.
  EvalContext& ctx = context.evalContext(evaluator);
  auto evaluateMove = [&](const MappingSolution& s,
                          const MoveHint& hint) -> EvalResult {
    return options.incrementalEval ? ctx.evaluate(s, hint)
                                   : evaluator.evaluate(s);
  };

  // The incumbent is `solution` itself; `best` is its evaluation. Proposals
  // the zero-delta filter replays without computing still count as
  // evaluations (their result is known exactly), so the count stays
  // invariant across incrementalEval on/off.
  EvalResult best = options.incrementalEval ? ctx.evaluate(solution)
                                            : evaluator.evaluate(solution);
  std::size_t evaluations = 1;
  // Gap-fingerprint filter: replay provably schedule-identical hint moves
  // without evaluating them (incremental mode only — the fingerprint comes
  // from the context's committed schedule).
  const bool useFilter = options.incrementalEval;
  ZeroDeltaFilter filter(evaluator);
  if (useFilter) filter.captureAccepted(ctx, best);

  MappingSolution current = solution;
  double currentCost = best.cost;

  const SaSchedule schedule = saSchedule(options, best.cost);
  double temp = schedule.t0;

  MappingSolution trial;
  for (int it = 0; it < options.iterations; ++it, temp *= schedule.alpha) {
    if (context.stopRequested()) {
      report.stopped = true;
      break;
    }
    const SaMove move = proposer.propose(current, proposalRng);
    ++report.proposals;
    if (move.kind != SaMove::Kind::None) {
      if (useFilter && filter.zeroDelta(move, current)) {
        // The evaluation would return exactly currentCost: delta == 0
        // accepts without an acceptance draw, and the incumbent cannot
        // improve. Replay the certain acceptance without evaluating; the
        // fingerprint stays valid (the schedule is unchanged).
        SaMoveProposer::apply(move, current);
        ++evaluations;
        ++report.zeroDeltaSkips;
        ++report.accepted;
      } else {
        trial = current;
        SaMoveProposer::apply(move, trial);
        const EvalResult r = evaluateMove(trial, move.evalHint);
        ++evaluations;
        const double delta = r.cost - currentCost;
        if (metropolisAccept(delta, temp, acceptanceRng)) {
          current = std::move(trial);
          currentCost = r.cost;
          ++report.accepted;
          if (r.feasible && r.cost < best.cost) {
            solution = current;
            best = r;
            IDES_LOG_AT(LogLevel::Debug)
                << "SA iter " << it << ": best C=" << r.cost << " T=" << temp;
          }
          if (useFilter) filter.captureAccepted(ctx, r);
        }
      }
    }
  }
  report.objective = best.cost;
  context.report({"SA", "improve", evaluations, 0, best.cost});
  return evaluations;
}

}  // namespace ides
