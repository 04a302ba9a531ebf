#include "sched/platform_state.h"

#include <algorithm>
#include <stdexcept>

namespace ides {

PlatformState::PlatformState(const Architecture& arch, Time horizon)
    : arch_(&arch), bus_(&arch.bus()), horizon_(horizon) {
  if (horizon_ <= 0 || horizon_ % bus_->roundLength() != 0) {
    throw std::invalid_argument(
        "PlatformState: horizon must be a positive multiple of the round");
  }
  roundCount_ = horizon_ / bus_->roundLength();
  nodeBusy_.resize(arch.nodeCount());
  slotUsed_.assign(bus_->slotCount(),
                   std::vector<Time>(static_cast<std::size_t>(roundCount_),
                                     0));
  slotCursor_.assign(bus_->slotCount(), 0);
}

Time PlatformState::earliestFit(NodeId node, Time after, Time duration) const {
  if (after < 0) after = 0;
  if (duration <= 0) throw std::invalid_argument("earliestFit: duration <= 0");
  const auto& busy = nodeBusy_[node.index()].intervals();
  Time cursor = after;
  // Skip straight to the first busy interval that can constrain the cursor
  // (end > after); everything before it is history. The evaluation inner
  // loop calls this once per job against node sets holding the whole frozen
  // base, so the scan start matters more than the scan itself.
  auto it = std::upper_bound(
      busy.begin(), busy.end(), after,
      [](Time t, const Interval& iv) { return t < iv.end; });
  for (; it != busy.end(); ++it) {
    if (it->start >= cursor + duration) break;  // gap before it is big enough
    cursor = std::max(cursor, it->end);
  }
  return cursor + duration <= horizon_ ? cursor : kNoTime;
}

void PlatformState::occupyNode(NodeId node, Interval iv) {
  if (iv.empty() || iv.start < 0 || iv.end > horizon_) {
    throw std::logic_error("occupyNode: interval outside horizon");
  }
  IntervalSet& busy = nodeBusy_[node.index()];
  if (busy.intersects(iv)) {
    throw std::logic_error("occupyNode: double booking");
  }
  busy.add(iv);
  if (journaling_) {
    journal_.push_back({JournalEntry::Kind::Node,
                        static_cast<std::uint32_t>(node.index()), iv, 0, 0});
  }
}

std::optional<PlatformState::BusPlacement> PlatformState::findBusSlot(
    std::size_t slotIndex, Time ready, Time txTicks,
    std::int64_t minRound) const {
  if (txTicks <= 0) throw std::invalid_argument("findBusSlot: txTicks <= 0");
  if (txTicks > bus_->slot(slotIndex).length) return std::nullopt;
  if (ready < 0) ready = 0;
  std::int64_t round =
      std::max(minRound, bus_->firstRoundAtOrAfter(slotIndex, ready));
  // Every round below the cursor is full; txTicks >= 1 can never fit there.
  round = std::max(round, slotCursor_[slotIndex]);
  for (; round < roundCount_; ++round) {
    const Time used = slotUsed_[slotIndex][static_cast<std::size_t>(round)];
    if (used + txTicks > bus_->slot(slotIndex).length) continue;
    const Time start = bus_->slotStart(round, slotIndex) + used;
    return BusPlacement{round, start, start + txTicks};
  }
  return std::nullopt;
}

void PlatformState::occupyBus(std::size_t slotIndex, std::int64_t round,
                              Time txTicks) {
  if (round < 0 || round >= roundCount_) {
    throw std::logic_error("occupyBus: round outside horizon");
  }
  Time& used = slotUsed_[slotIndex][static_cast<std::size_t>(round)];
  if (used + txTicks > bus_->slot(slotIndex).length) {
    throw std::logic_error("occupyBus: slot overflow");
  }
  used += txTicks;
  // Advance the first-free-round cursor past every round this occupy just
  // sealed (amortized O(1): each round is crossed once until a rollback
  // reopens it).
  std::int64_t& cursor = slotCursor_[slotIndex];
  if (round == cursor) {
    const Time length = bus_->slot(slotIndex).length;
    while (cursor < roundCount_ &&
           slotUsed_[slotIndex][static_cast<std::size_t>(cursor)] >= length) {
      ++cursor;
    }
  }
  if (journaling_) {
    journal_.push_back({JournalEntry::Kind::Bus,
                        static_cast<std::uint32_t>(slotIndex),
                        Interval{},
                        round,
                        txTicks});
  }
}

void PlatformState::setJournaling(bool enabled) {
  journaling_ = enabled;
  journal_.clear();
}

void PlatformState::rollbackTo(Mark m) {
  if (!journaling_) {
    throw std::logic_error("rollbackTo: journaling is off");
  }
  if (m > journal_.size()) {
    throw std::logic_error("rollbackTo: mark ahead of the journal");
  }
  // Bus ticks subtract directly. Transmissions pack from the slot front,
  // so freeing the ticks restores exactly the position the next
  // findBusSlot would hand out. Node intervals go into one bucket per
  // node, in journal order; a node's undone occupies are pairwise disjoint
  // (each saw its range free), so their starts are distinct and sorting a
  // bucket by start gives the unique order subtractSorted needs. A bucket
  // holds one node's share of the undone suffix, which is far cheaper to
  // sort than every undone record at once.
  static thread_local std::vector<std::vector<Interval>> buckets;
  if (buckets.size() < nodeBusy_.size()) buckets.resize(nodeBusy_.size());
  for (std::vector<Interval>& bucket : buckets) bucket.clear();
  for (std::size_t i = m; i < journal_.size(); ++i) {
    const JournalEntry& e = journal_[i];
    if (e.kind == JournalEntry::Kind::Node) {
      buckets[e.index].push_back(e.iv);
    } else {
      slotUsed_[e.index][static_cast<std::size_t>(e.round)] -= e.txTicks;
      // The freed ticks reopen this round: lower the cursor so findBusSlot
      // sees it again (rounds below it stay full, keeping the invariant).
      slotCursor_[e.index] = std::min(slotCursor_[e.index], e.round);
    }
  }
  journal_.resize(m);
  for (std::size_t n = 0; n < nodeBusy_.size(); ++n) {
    std::vector<Interval>& bucket = buckets[n];
    if (bucket.empty()) continue;
    std::sort(bucket.begin(), bucket.end(),
              [](const Interval& a, const Interval& b) {
                return a.start < b.start;
              });
    nodeBusy_[n].subtractSorted(bucket.data(), bucket.data() + bucket.size());
  }
}

void PlatformState::replay(const JournalEntry* first,
                           const JournalEntry* last) {
  for (const JournalEntry* e = first; e != last; ++e) {
    if (e->kind == JournalEntry::Kind::Node) {
      occupyNode(NodeId{static_cast<std::int32_t>(e->index)}, e->iv);
    } else {
      occupyBus(e->index, e->round, e->txTicks);
    }
  }
}

Time PlatformState::totalNodeSlack() const {
  Time total = 0;
  for (const IntervalSet& busy : nodeBusy_) {
    total += horizon_ - busy.totalLength();
  }
  return total;
}

Time PlatformState::totalBusSlackTicks() const {
  Time total = 0;
  for (std::size_t s = 0; s < slotUsed_.size(); ++s) {
    for (Time used : slotUsed_[s]) {
      total += bus_->slot(s).length - used;
    }
  }
  return total;
}

}  // namespace ides
