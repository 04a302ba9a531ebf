#include "core/metrics.h"

#include <algorithm>
#include <utility>
#include <vector>

namespace ides {

namespace {

/// (value, count) runs of the trimmed largest-future-demand stream,
/// descending by value — the compact form of largestFutureDemand that the
/// hot path consumes without materializing one element per item.
using DemandRuns = ValueCounts;

/// Fills `runs` with the demand stream for `totalSlack`. The deterministic
/// stream is runs of identical values in descending order (largest-
/// remainder quotas per entry), and the greedy trim keeps a prefix of every
/// run: once sum + v overflows, every later item of the same value
/// overflows too. This runs once per evaluation — thousands of times per
/// optimization — on streams of ~10^3 items.
void demandRunsInto(const DiscreteDistribution& dist, std::int64_t totalSlack,
                    DemandRuns& runs) {
  runs.clear();
  if (totalSlack <= 0) return;
  const double expected = dist.expectedValue();
  const auto bound = static_cast<std::size_t>(
      static_cast<double>(totalSlack) / std::max(1.0, expected) +
      static_cast<double>(dist.entries().size()) + 8);
  const std::vector<std::size_t> quotas = dist.deterministicQuotas(bound);
  const auto& entries = dist.entries();
  std::int64_t sum = 0;
  for (std::size_t i = entries.size(); i > 0; --i) {
    const std::int64_t v = entries[i - 1].value;
    if (v <= 0) continue;
    const auto room = static_cast<std::int64_t>((totalSlack - sum) / v);
    const std::int64_t take =
        std::min(static_cast<std::int64_t>(quotas[i - 1]), room);
    if (take > 0) {
      runs.emplace_back(v, take);
      sum += take * v;
    }
  }
}

/// Flat ordered multiset of container capacities: (capacity, count) pairs,
/// ascending, reusing the caller's scratch. Only the multiset matters for
/// the unpacked total, never container identity.
using CapacityCounts = ValueCounts;

void capacityCountsInto(std::vector<std::int64_t>& capacities,
                        CapacityCounts& counts) {
  std::sort(capacities.begin(), capacities.end());
  counts.clear();
  for (const std::int64_t c : capacities) {
    if (c <= 0) continue;
    if (!counts.empty() && counts.back().first == c) {
      counts.back().second += 1;
    } else {
      counts.emplace_back(c, 1);
    }
  }
}

/// First (value, count) entry whose value is >= v.
ValueCounts::iterator firstAtLeast(ValueCounts& counts, std::int64_t v) {
  return std::lower_bound(
      counts.begin(), counts.end(), v,
      [](const auto& entry, std::int64_t x) { return entry.first < x; });
}

/// Best-fit-decreasing over run-length-encoded items and capacity counts,
/// one ascending sweep per demand run. Equal to placing the items one at a
/// time into the smallest capacity c >= v that still takes them:
///  - A container filled with c / v items keeps c mod v < v, which this
///    run never picks again. So the run uses up the capacities >= v in
///    ascending order, and an equal-capacity block at a time.
///  - Only the container that takes the run's last items can keep a
///    remainder >= v, and the run ends there.
///  - Every other remainder is < v. Merged back once per run, they leave
///    the multiset exactly as per-item placement would, so each later
///    (smaller) run sees the same containers.
/// The C1 histograms have ~4 distinct values over ~10^3 items, so this is
/// a few linear passes over the capacity multiset per evaluation. Consumes
/// `counts`: the last run's remainders are never merged back.
std::int64_t bestFitUnpackedRuns(const DemandRuns& runs,
                                 CapacityCounts& counts) {
  static thread_local CapacityCounts rests;
  static thread_local CapacityCounts merged;
  std::int64_t unpacked = 0;
  for (const auto& run : runs) {
    const auto [item, runLength] = run;
    if (item <= 0) continue;
    const auto first = firstAtLeast(counts, item);
    rests.clear();
    std::int64_t remaining = runLength;
    std::int64_t lastRest = 0;  // the run's last container, if it keeps >= v
    auto last = first;
    for (; last != counts.end() && remaining > 0; ++last) {
      const std::int64_t capacity = last->first;
      const std::int64_t perContainer = capacity / item;
      const std::int64_t full = last->second * perContainer <= remaining
                                    ? last->second
                                    : remaining / perContainer;
      const std::int64_t rest = capacity - perContainer * item;
      remaining -= full * perContainer;
      last->second -= full;
      if (full > 0 && rest > 0) rests.emplace_back(rest, full);
      if (remaining > 0 && last->second > 0) {
        // Fewer than perContainer items left: one more container ends it.
        lastRest = capacity - remaining * item;
        last->second -= 1;
        remaining = 0;
      }
    }
    unpacked += item * remaining;
    // Nothing fitted, or no run is left to see the containers.
    if (first == last || &run == &runs.back()) continue;

    // Rebuild the multiset: the prefix below v merged with the sorted
    // rests (all < v), then lastRest (between v and the capacity it came
    // from), then the swept entries still holding containers, then the
    // untouched suffix.
    std::sort(rests.begin(), rests.end());
    merged.clear();
    auto r = rests.begin();
    for (auto it = counts.begin(); it != first || r != rests.end();) {
      const bool takeRest =
          r != rests.end() && (it == first || r->first <= it->first);
      const auto entry = takeRest ? *r++ : *it++;
      if (!merged.empty() && merged.back().first == entry.first) {
        merged.back().second += entry.second;
      } else {
        merged.push_back(entry);
      }
    }
    if (lastRest > 0) merged.emplace_back(lastRest, 1);
    for (auto it = first; it != counts.end(); ++it) {
      if (it->second > 0) merged.push_back(*it);
    }
    counts.swap(merged);
  }
  return unpacked;
}

}  // namespace

std::vector<std::int64_t> largestFutureDemand(const DiscreteDistribution& dist,
                                              std::int64_t totalSlack) {
  DemandRuns runs;
  demandRunsInto(dist, totalSlack, runs);
  std::vector<std::int64_t> out;
  for (const auto& [value, count] : runs) {
    out.insert(out.end(), static_cast<std::size_t>(count), value);
  }
  return out;  // descending, exactly the trimmed deterministic stream
}

std::int64_t bestFitUnpacked(const std::vector<std::int64_t>& itemsDesc,
                             std::vector<std::int64_t> containers) {
  DemandRuns runs;
  for (const std::int64_t item : itemsDesc) {
    if (!runs.empty() && runs.back().first == item) {
      runs.back().second += 1;
    } else {
      runs.emplace_back(item, 1);
    }
  }
  CapacityCounts counts;
  capacityCountsInto(containers, counts);
  return bestFitUnpackedRuns(runs, counts);
}

namespace {

/// Per-thread scratch for the C1 computation: evaluated once per candidate
/// solution, the container/demand buffers would otherwise be re-allocated
/// thousands of times per optimization run.
struct C1Scratch {
  std::vector<std::int64_t> containers;
  DemandRuns runs;
  CapacityCounts counts;
};

C1Scratch& c1Scratch() {
  static thread_local C1Scratch scratch;
  return scratch;
}

/// C1 for one resource class from the capacity multiset and its total.
/// Consumes `counts`. Only the multiset enters the packing, so any producer
/// that maintains the same multiset (notably IncrementalMetrics) gets the
/// exact same doubles as a fresh extraction.
double c1PercentFromCounts(CapacityCounts& counts, std::int64_t total,
                           const DiscreteDistribution& dist,
                           DemandRuns& runs) {
  demandRunsInto(dist, total, runs);
  std::int64_t demand = 0;
  for (const auto& [value, count] : runs) demand += value * count;
  if (demand == 0) {
    // No future item fits even in contiguous slack: the design alternative
    // leaves no usable slack at all.
    return total > 0 ? 0.0 : 100.0;
  }
  const std::int64_t unpacked = bestFitUnpackedRuns(runs, counts);
  return 100.0 * static_cast<double>(unpacked) / static_cast<double>(demand);
}

/// C1 for one resource class: slack containers vs. the deterministic
/// largest-future-application demand. Returns percent unpacked. Consumes
/// scratch.containers.
double c1Percent(C1Scratch& scratch, const DiscreteDistribution& dist) {
  std::int64_t total = 0;
  for (std::int64_t c : scratch.containers) total += c;
  capacityCountsInto(scratch.containers, scratch.counts);
  return c1PercentFromCounts(scratch.counts, total, dist, scratch.runs);
}

}  // namespace

DesignMetrics computeMetrics(const SlackInfo& slack,
                             const FutureProfile& profile) {
  profile.validate();
  DesignMetrics m;
  C1Scratch& scratch = c1Scratch();

  // ---- C1P: processor slack intervals as containers ----------------------
  scratch.containers.clear();
  for (const IntervalSet& free : slack.nodeFree) {
    for (const Interval& iv : free.intervals()) {
      scratch.containers.push_back(iv.length());
    }
  }
  m.c1p = c1Percent(scratch, profile.wcetDistribution);

  // ---- C1m: per-slot-occurrence free bytes as containers -----------------
  scratch.containers.clear();
  for (const SlackInfo::BusChunk& c : slack.busChunks) {
    scratch.containers.push_back(c.freeTicks * slack.busBytesPerTick);
  }
  m.c1m = c1Percent(scratch, profile.messageSizeDistribution);

  // ---- C2: minimum slack inside any Tmin window ---------------------------
  const std::int64_t windows = slack.horizon / profile.tmin;
  if (windows > 0) {
    Time sumOfMins = 0;
    for (std::size_t n = 0; n < slack.nodeFree.size(); ++n) {
      Time nodeMin = kTimeMax;
      for (std::int64_t w = 0; w < windows; ++w) {
        nodeMin = std::min(
            nodeMin, slack.nodeSlackInWindow(n, w * profile.tmin,
                                             (w + 1) * profile.tmin));
      }
      sumOfMins += nodeMin;
    }
    m.c2p = sumOfMins;

    Time busMin = kTimeMax;
    for (std::int64_t w = 0; w < windows; ++w) {
      busMin = std::min(busMin, slack.busSlackInWindow(
                                    w * profile.tmin, (w + 1) * profile.tmin));
    }
    m.c2mBytes = busMin * slack.busBytesPerTick;
  }
  return m;
}

// ---- IncrementalMetrics ---------------------------------------------------

namespace {

/// Insert one value into the ordered (value, count) multiset.
void countsAdd(ValueCounts& counts, std::int64_t value) {
  if (value <= 0) return;
  const auto it = firstAtLeast(counts, value);
  if (it != counts.end() && it->first == value) {
    it->second += 1;
  } else {
    counts.insert(it, {value, 1});
  }
}

/// Remove one value. The cache only ever removes what it added, so the
/// value is always present.
void countsRemove(ValueCounts& counts, std::int64_t value) {
  if (value <= 0) return;
  const auto it = firstAtLeast(counts, value);
  if (--(it->second) == 0) counts.erase(it);
}

}  // namespace

void IncrementalMetrics::refreshNode(const PlatformState& state,
                                     std::size_t n) {
  const NodeId id{static_cast<std::int32_t>(n)};
  // Rollback + replay commonly restores the exact occupancy (a rejected
  // move, or the untouched part of a partial rewind); recompute the free
  // set first and bail before touching the multiset when nothing changed.
  state.nodeBusy(id).complementWithinInto({0, horizon_}, scratchSet_);
  IntervalSet& free = nodeFree_[n];
  if (scratchSet_ == free) return;
  // One merge over the old and new free sets, both sorted by start: an
  // interval in both (same start, same end) stays in the multiset, every
  // other old one leaves it and every other new one enters it. A move
  // reshapes a few gaps of a node, so this edits a handful of entries
  // instead of re-inserting the node's every gap.
  const std::vector<Interval>& before = free.intervals();
  const std::vector<Interval>& after = scratchSet_.intervals();
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < before.size() || j < after.size()) {
    const Time oldStart = i < before.size() ? before[i].start : kTimeMax;
    const Time newStart = j < after.size() ? after[j].start : kTimeMax;
    if (oldStart == newStart && before[i].end == after[j].end) {
      ++i;
      ++j;
      continue;
    }
    if (oldStart <= newStart) {
      countsRemove(c1pCounts_, before[i].length());
      c1pTotal_ -= before[i++].length();
    }
    if (newStart <= oldStart) {
      countsAdd(c1pCounts_, after[j].length());
      c1pTotal_ += after[j++].length();
    }
  }
  std::swap(free, scratchSet_);
  if (windows_ > 0) {
    Time rowMin = kTimeMax;
    for (std::int64_t w = 0; w < windows_; ++w) {
      rowMin =
          std::min(rowMin, free.lengthWithin({w * tmin_, (w + 1) * tmin_}));
    }
    nodeMin_[n] = rowMin;
  }
}

void IncrementalMetrics::refreshOccurrence(const PlatformState& state,
                                           std::size_t slot,
                                           std::int64_t round) {
  const std::size_t key =
      slot * static_cast<std::size_t>(roundCount_) +
      static_cast<std::size_t>(round);
  const Time oldUsed = slotUsed_[key];
  const Time newUsed = state.slotUsedTicks(slot, round);
  if (oldUsed == newUsed) return;
  const TdmaBus& bus = state.bus();
  const Time len = bus.slot(slot).length;
  countsRemove(c1mCounts_, (len - oldUsed) * bytesPerTick_);
  c1mTotal_ -= (len - oldUsed) * bytesPerTick_;
  countsAdd(c1mCounts_, (len - newUsed) * bytesPerTick_);
  c1mTotal_ += (len - newUsed) * bytesPerTick_;
  if (windows_ > 0) {
    // The occurrence's free chunk is [slotStart + used, slotStart + len);
    // only the span between the two used marks flips state.
    const Time slotStart = bus.slotStart(round, slot);
    const Time lo = slotStart + std::min(oldUsed, newUsed);
    const Time hi = std::min<Time>(slotStart + std::max(oldUsed, newUsed),
                                   windows_ * tmin_);
    const Time delta = newUsed > oldUsed ? -1 : 1;  // grew => free lost
    for (std::int64_t w = lo / tmin_; w < windows_ && w * tmin_ < hi; ++w) {
      const Time s = std::max(lo, w * tmin_);
      const Time e = std::min(hi, (w + 1) * tmin_);
      if (e > s) busWin_[static_cast<std::size_t>(w)] += delta * (e - s);
    }
  }
  slotUsed_[key] = newUsed;
}

void IncrementalMetrics::rebuild(const PlatformState& state,
                                 const FutureProfile& profile) {
  const TdmaBus& bus = state.bus();
  horizon_ = state.horizon();
  tmin_ = profile.tmin;
  windows_ = horizon_ / tmin_;
  bytesPerTick_ = bus.bytesPerTick();
  roundCount_ = state.roundCount();

  const std::size_t nodes = state.nodeCount();
  nodeFree_.resize(nodes);
  nodeMin_.assign(nodes, 0);
  C1Scratch& scratch = c1Scratch();
  scratch.containers.clear();
  c1pTotal_ = 0;
  for (std::size_t n = 0; n < nodes; ++n) {
    const NodeId id{static_cast<std::int32_t>(n)};
    state.nodeBusy(id).complementWithinInto({0, horizon_}, nodeFree_[n]);
    for (const Interval& iv : nodeFree_[n].intervals()) {
      scratch.containers.push_back(iv.length());
      c1pTotal_ += iv.length();
    }
    if (windows_ > 0) {
      Time rowMin = kTimeMax;
      for (std::int64_t w = 0; w < windows_; ++w) {
        rowMin = std::min(rowMin, nodeFree_[n].lengthWithin(
                                      {w * tmin_, (w + 1) * tmin_}));
      }
      nodeMin_[n] = rowMin;
    }
  }
  capacityCountsInto(scratch.containers, c1pCounts_);

  slotUsed_.assign(bus.slotCount() * static_cast<std::size_t>(roundCount_),
                   0);
  busWin_.assign(static_cast<std::size_t>(windows_), 0);
  scratch.containers.clear();
  c1mTotal_ = 0;
  for (std::size_t s = 0; s < bus.slotCount(); ++s) {
    const Time len = bus.slot(s).length;
    for (std::int64_t r = 0; r < roundCount_; ++r) {
      const Time used = state.slotUsedTicks(s, r);
      slotUsed_[s * static_cast<std::size_t>(roundCount_) +
                static_cast<std::size_t>(r)] = used;
      const Time freeTicks = len - used;
      if (freeTicks <= 0) continue;
      scratch.containers.push_back(freeTicks * bytesPerTick_);
      c1mTotal_ += freeTicks * bytesPerTick_;
      if (windows_ > 0) {
        const Time lo = bus.slotStart(r, s) + used;
        const Time hi =
            std::min<Time>(bus.slotStart(r, s) + len, windows_ * tmin_);
        for (std::int64_t w = lo / tmin_; w < windows_ && w * tmin_ < hi;
             ++w) {
          const Time ws = std::max(lo, w * tmin_);
          const Time we = std::min(hi, (w + 1) * tmin_);
          if (we > ws) busWin_[static_cast<std::size_t>(w)] += we - ws;
        }
      }
    }
  }
  capacityCountsInto(scratch.containers, c1mCounts_);
  memoValid_ = false;  // a rebuild may come with a different profile
  valid_ = true;
}

void IncrementalMetrics::update(
    const PlatformState& state, const std::vector<std::uint32_t>& dirtyNodes,
    const std::vector<std::uint64_t>& dirtyOccurrences) {
  for (const std::uint32_t n : dirtyNodes) refreshNode(state, n);
  for (const std::uint64_t key : dirtyOccurrences) {
    refreshOccurrence(state,
                      static_cast<std::size_t>(
                          key / static_cast<std::uint64_t>(roundCount_)),
                      static_cast<std::int64_t>(
                          key % static_cast<std::uint64_t>(roundCount_)));
  }
}

DesignMetrics IncrementalMetrics::metrics(const FutureProfile& profile) {
  profile.validate();
  DesignMetrics m;
  C1Scratch& scratch = c1Scratch();
  if (memoValid_ && c1pCounts_ == c1pMemoCounts_) {
    m.c1p = c1pMemoValue_;
  } else {
    scratch.counts = c1pCounts_;
    m.c1p = c1PercentFromCounts(scratch.counts, c1pTotal_,
                                profile.wcetDistribution, scratch.runs);
    c1pMemoCounts_ = c1pCounts_;
    c1pMemoValue_ = m.c1p;
  }
  if (memoValid_ && c1mCounts_ == c1mMemoCounts_) {
    m.c1m = c1mMemoValue_;
  } else {
    scratch.counts = c1mCounts_;
    m.c1m = c1PercentFromCounts(scratch.counts, c1mTotal_,
                                profile.messageSizeDistribution, scratch.runs);
    c1mMemoCounts_ = c1mCounts_;
    c1mMemoValue_ = m.c1m;
  }
  memoValid_ = true;
  if (windows_ > 0) {
    Time sumOfMins = 0;
    for (const Time v : nodeMin_) sumOfMins += v;
    m.c2p = sumOfMins;
    Time busMin = kTimeMax;
    for (const Time v : busWin_) busMin = std::min(busMin, v);
    m.c2mBytes = busMin * bytesPerTick_;
  }
  return m;
}

double objectiveValue(const DesignMetrics& metrics,
                      const FutureProfile& profile,
                      const MetricWeights& weights) {
  const double p2p =
      100.0 *
      static_cast<double>(std::max<Time>(0, profile.tneed - metrics.c2p)) /
      static_cast<double>(profile.tneed);
  const double p2m =
      100.0 *
      static_cast<double>(
          std::max<std::int64_t>(0, profile.bneedBytes - metrics.c2mBytes)) /
      static_cast<double>(profile.bneedBytes);
  return weights.w1p * metrics.c1p + weights.w1m * metrics.c1m +
         weights.w2p * p2p + weights.w2m * p2m;
}

}  // namespace ides
