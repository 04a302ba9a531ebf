// Micro-benchmarks of the design metrics (ablation A4): C1 best-fit
// packing and C2 window scans, at realistic slack-fragment counts, and the
// incremental metrics cache under one optimizer move.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "core/evaluator.h"
#include "core/initial_mapping.h"
#include "core/metrics.h"
#include "sched/list_scheduler.h"
#include "sched/platform_state.h"
#include "tgen/benchmark_suite.h"
#include "tgen/profile_presets.h"

namespace {

using namespace ides;

/// 10 nodes, 400 frozen and 160 current processes.
const Suite& paperSuite() {
  static const Suite suite = [] {
    SuiteConfig cfg;
    cfg.nodeCount = 10;
    cfg.existingProcesses = 400;
    cfg.currentProcesses = 160;
    cfg.futureAppCount = 0;
    return buildSuite(cfg, 2);
  }();
  return suite;
}

const FrozenBase& paperBase() {
  static const FrozenBase frozen =
      freezeExistingApplications(paperSuite().system);
  return frozen;
}

SlackInfo realisticSlack() {
  PlatformState state = paperBase().state;
  initialMapping(paperSuite().system, state);
  return extractSlack(state);
}

/// One SA-style move on that instance: the platform after the Initial
/// Mapping and after re-mapping one current process to another allowed
/// node, re-scheduled from that process's graph on (as the delta
/// evaluator rewinds), plus the nodes and slot occurrences the journal
/// names dirty between the two.
struct MoveFixture {
  PlatformState before;
  PlatformState after;
  std::vector<std::uint32_t> dirtyNodes;
  std::vector<std::uint64_t> dirtyOccurrences;
};

template <typename T>
void sortUnique(std::vector<T>& keys) {
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
}

MoveFixture oneMove() {
  const SystemModel& sys = paperSuite().system;
  PlatformState st = paperBase().state;
  MappingSolution mapping = initialMapping(sys, st).mapping;
  const std::vector<GraphId> graphs = sys.graphsOfKind(AppKind::Current);
  const std::size_t moved = graphs.size() / 2;
  const auto schedule = [&](std::size_t first, std::size_t last) {
    ScheduleRequest req;
    req.graphs.assign(graphs.begin() + static_cast<std::ptrdiff_t>(first),
                      graphs.begin() + static_cast<std::ptrdiff_t>(last));
    req.mapping = &mapping;
    return scheduleGraphs(sys, req, st).feasible;
  };
  st = paperBase().state;
  st.setJournaling(true);
  schedule(0, moved);
  const PlatformState::Mark restart = st.mark();
  schedule(moved, graphs.size());
  const std::vector<PlatformState::JournalEntry> undone(
      st.journal().begin() + static_cast<std::ptrdiff_t>(restart),
      st.journal().end());

  MoveFixture fx{st, st, {}, {}};
  const auto noteDirty = [&](const PlatformState::JournalEntry& e) {
    if (e.kind == PlatformState::JournalEntry::Kind::Node) {
      fx.dirtyNodes.push_back(e.index);
    } else {
      fx.dirtyOccurrences.push_back(
          e.index * static_cast<std::uint64_t>(st.roundCount()) +
          static_cast<std::uint64_t>(e.round));
    }
  };
  for (const ProcessId p : sys.graph(graphs[moved]).processes) {
    const std::vector<NodeId> allowed = sys.process(p).allowedNodes();
    if (allowed.size() < 2) continue;
    const NodeId was = mapping.nodeOf(p);
    mapping.setNode(p, allowed[0] == was ? allowed[1] : allowed[0]);
    st.rollbackTo(restart);
    if (!schedule(moved, graphs.size())) {
      mapping.setNode(p, was);
      continue;
    }
    for (const auto& e : undone) noteDirty(e);
    for (std::size_t i = restart; i < st.mark(); ++i) {
      noteDirty(st.journal()[i]);
    }
    // The evaluator names each dirty node and occurrence once.
    sortUnique(fx.dirtyNodes);
    sortUnique(fx.dirtyOccurrences);
    fx.after = st;
    return fx;
  }
  throw std::runtime_error("no feasible single-process move");
}

void BM_ComputeAllMetrics(benchmark::State& state) {
  const SlackInfo slack = realisticSlack();
  const FutureProfile profile = paperFutureProfile(4000, 5520, 450);
  for (auto _ : state) {
    DesignMetrics m = computeMetrics(slack, profile);
    benchmark::DoNotOptimize(m.c1p);
  }
}
BENCHMARK(BM_ComputeAllMetrics);

/// The metrics side of one SA step: sync the incremental cache to the
/// moved platform and read C, then sync back (a rejected move) and read C
/// again. Two updates per iteration.
void BM_IncrementalMetricsUpdate(benchmark::State& state) {
  static const MoveFixture fx = oneMove();
  const FutureProfile& profile = paperSuite().profile;
  IncrementalMetrics metrics;
  metrics.rebuild(fx.before, profile);
  for (auto _ : state) {
    metrics.update(fx.after, fx.dirtyNodes, fx.dirtyOccurrences);
    benchmark::DoNotOptimize(metrics.metrics(profile).c1p);
    metrics.update(fx.before, fx.dirtyNodes, fx.dirtyOccurrences);
    benchmark::DoNotOptimize(metrics.metrics(profile).c1p);
  }
  state.SetItemsProcessed(state.iterations() * 2);
  state.counters["dirty_nodes"] = static_cast<double>(fx.dirtyNodes.size());
  state.counters["dirty_occurrences"] =
      static_cast<double>(fx.dirtyOccurrences.size());
}
BENCHMARK(BM_IncrementalMetricsUpdate);

void BM_BestFitPacking(benchmark::State& state) {
  const std::int64_t containerCount = state.range(0);
  std::vector<std::int64_t> containers;
  containers.reserve(static_cast<std::size_t>(containerCount));
  for (std::int64_t i = 0; i < containerCount; ++i) {
    containers.push_back(40 + (i * 37) % 200);
  }
  std::int64_t total = 0;
  for (auto c : containers) total += c;
  const auto items = largestFutureDemand(paperWcetDistribution(), total);
  for (auto _ : state) {
    benchmark::DoNotOptimize(bestFitUnpacked(items, containers));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(items.size()));
}
BENCHMARK(BM_BestFitPacking)->Arg(64)->Arg(256)->Arg(1024);

void BM_DeterministicStream(benchmark::State& state) {
  const DiscreteDistribution d = paperWcetDistribution();
  for (auto _ : state) {
    auto stream = d.deterministicStream(
        static_cast<std::size_t>(state.range(0)));
    benchmark::DoNotOptimize(stream.data());
  }
}
BENCHMARK(BM_DeterministicStream)->Arg(100)->Arg(1000);

void BM_ObjectiveValue(benchmark::State& state) {
  DesignMetrics m;
  m.c1p = 12.5;
  m.c1m = 3.5;
  m.c2p = 2500;
  m.c2mBytes = 300;
  const FutureProfile profile = paperFutureProfile(4000, 5520, 450);
  const MetricWeights w;
  for (auto _ : state) {
    benchmark::DoNotOptimize(objectiveValue(m, profile, w));
  }
}
BENCHMARK(BM_ObjectiveValue);

}  // namespace

BENCHMARK_MAIN();
