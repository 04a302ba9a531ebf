#include "core/tabu_search.h"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/optimizer.h"
#include "core/simulated_annealing.h"
#include "model/system_model.h"
#include "util/fork_join.h"
#include "util/rng.h"

namespace ides {

namespace {

/// Threads evaluating each candidate batch: options.threads (0 = hardware
/// concurrency), capped at the batch size since one candidate is the unit
/// of work.
int tabuThreads(const TabuOptions& options) {
  int threads = options.threads > 0
                    ? options.threads
                    : static_cast<int>(std::thread::hardware_concurrency());
  return std::clamp(threads, 1, options.candidates);
}

}  // namespace

void validateOptions(const TabuOptions& options) {
  if (options.iterations < 0) {
    throw std::invalid_argument("TabuOptions: iterations must be >= 0");
  }
  if (options.candidates < 1) {
    throw std::invalid_argument("TabuOptions: candidates must be >= 1");
  }
  if (options.threads < 0) {
    throw std::invalid_argument(
        "TabuOptions: threads must be >= 0 (0 = hardware concurrency)");
  }
  if (options.tenure < 0) {
    throw std::invalid_argument("TabuOptions: tenure must be >= 0");
  }
  const auto probOk = [](double p) { return p >= 0.0 && p <= 1.0; };
  if (!probOk(options.probRemap) || !probOk(options.probProcessHint) ||
      options.probRemap + options.probProcessHint > 1.0) {
    throw std::invalid_argument(
        "TabuOptions: move probabilities must be in [0, 1] and sum to <= 1");
  }
}

TabuSearchOptimizer::TabuSearchOptimizer(TabuOptions options)
    : options_(options) {
  validateOptions(options_);
}

std::size_t TabuSearchOptimizer::improve(const SolutionEvaluator& evaluator,
                                         MappingSolution& solution,
                                         RunContext& context,
                                         RunReport& report) const {
  const TabuOptions& options = options_;
  const SystemModel& sys = evaluator.system();
  const SaMoveProposer proposer(evaluator, options.probRemap,
                                options.probProcessHint);
  EvalContext& ctx = context.evalContext(evaluator);

  // `solution` keeps the best feasible state seen; the walk moves
  // `current`.
  MappingSolution current = solution;
  EvalResult curEval = options.incrementalEval ? ctx.evaluate(current)
                                               : evaluator.evaluate(current);
  std::size_t evaluations = 1;
  double bestCost = curEval.cost;

  // Recency memory, expiry-stamped: an attribute is tabu while its stamp is
  // > the current iteration. Keys are the REVERSED attributes — the node a
  // process just left, the hint that was just set — so the walk cannot
  // immediately undo itself.
  const std::size_t nodeCount = sys.architecture().nodeCount();
  std::vector<int> remapExpiry(sys.processes().size() * nodeCount, 0);
  std::vector<int> hintExpiry(sys.processes().size(), 0);
  std::vector<int> msgExpiry(sys.messages().size(), 0);

  const auto isTabu = [&](const SaMove& move, int iter) {
    switch (move.kind) {
      case SaMove::Kind::Remap:
        return remapExpiry[static_cast<std::size_t>(move.process.index()) *
                               nodeCount +
                           static_cast<std::size_t>(move.node.index())] > iter;
      case SaMove::Kind::ProcessHint:
        return hintExpiry[move.process.index()] > iter;
      case SaMove::Kind::MessageHint:
        return msgExpiry[move.message.index()] > iter;
      case SaMove::Kind::None:
        break;
    }
    return false;
  };

  Rng proposalRng(rngStreamSeed(options.seed, kSaProposalStream));

  // The batch of one iteration: its moves, drawn up front in draw order,
  // and each candidate's evaluation in its own slot. The pool evaluates the
  // slots in any order on any thread; the selection below reads them in
  // draw order, so the trajectory is the serial one at every thread count.
  // Worker 0 is the caller, on the run's own EvalContext; every pool thread
  // builds a private one on first use, plus a private candidate buffer.
  const std::size_t batchSize = static_cast<std::size_t>(options.candidates);
  std::vector<SaMove> moves(batchSize);
  std::vector<EvalResult> evals(batchSize);
  const int threads = tabuThreads(options);
  std::vector<std::unique_ptr<EvalContext>> workerContexts(
      static_cast<std::size_t>(threads));
  std::vector<MappingSolution> scratch(static_cast<std::size_t>(threads));
  const auto evaluateSlot = [&](std::size_t c, int worker) {
    const SaMove& move = moves[c];
    if (move.kind == SaMove::Kind::None) return;
    const auto w = static_cast<std::size_t>(worker);
    MappingSolution& candidate = scratch[w];
    candidate = current;
    SaMoveProposer::apply(move, candidate);
    if (!options.incrementalEval) {
      evals[c] = evaluator.evaluate(candidate);
      return;
    }
    std::unique_ptr<EvalContext>& own = workerContexts[w];
    if (worker > 0 && !own) own = std::make_unique<EvalContext>(evaluator);
    evals[c] = (worker == 0 ? ctx : *own).evaluate(candidate, move.evalHint);
  };
  ForkJoinPool pool(threads);

  for (int iter = 0; iter < options.iterations; ++iter) {
    if (context.stopRequested()) {
      report.stopped = true;
      break;
    }

    // Draw the whole batch first: propose() reads only `current` and the
    // RNG, so this is the stream the one-at-a-time loop would draw.
    for (SaMove& move : moves) move = proposer.propose(current, proposalRng);
    report.proposals += batchSize;
    pool.run(batchSize, evaluateSlot);

    // Select against the current state. The selection is deterministic:
    // lowest cost wins, first-drawn on ties, admissible (non-tabu or
    // aspiring) candidates strictly before inadmissible ones.
    std::size_t choice = batchSize;  // none yet
    bool choiceAdmissible = false;
    for (std::size_t c = 0; c < batchSize; ++c) {
      if (moves[c].kind == SaMove::Kind::None) continue;
      const EvalResult& eval = evals[c];
      ++evaluations;
      // Aspiration: a tabu move that beats the incumbent is admissible.
      const bool admissible = !isTabu(moves[c], iter) ||
                              (eval.feasible && eval.cost < bestCost);
      const bool better =
          choice == batchSize || (admissible && !choiceAdmissible) ||
          (admissible == choiceAdmissible && eval.cost < evals[choice].cost);
      if (better) {
        choice = c;
        choiceAdmissible = admissible;
      }
    }
    if (choice == batchSize) continue;  // every draw was a None move
    const SaMove& choiceMove = moves[choice];

    // Stamp the reversed attribute tabu, then always take the move (the
    // memory, not the acceptance rule, provides the diversification).
    switch (choiceMove.kind) {
      case SaMove::Kind::Remap:
        remapExpiry[static_cast<std::size_t>(choiceMove.process.index()) *
                        nodeCount +
                    static_cast<std::size_t>(
                        current.nodeOf(choiceMove.process).index())] =
            iter + 1 + options.tenure;
        break;
      case SaMove::Kind::ProcessHint:
        hintExpiry[choiceMove.process.index()] = iter + 1 + options.tenure;
        break;
      case SaMove::Kind::MessageHint:
        msgExpiry[choiceMove.message.index()] = iter + 1 + options.tenure;
        break;
      case SaMove::Kind::None:
        break;
    }
    SaMoveProposer::apply(choiceMove, current);
    curEval = evals[choice];
    ++report.accepted;

    if (curEval.feasible && curEval.cost < bestCost) {
      bestCost = curEval.cost;
      solution = current;
    }
  }
  report.objective = bestCost;
  context.report({"tabu", "improve", evaluations, 0, bestCost});
  return evaluations;
}

}  // namespace ides
