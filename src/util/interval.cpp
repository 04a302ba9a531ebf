#include "util/interval.h"

#include <algorithm>
#include <cassert>
#include <ostream>

namespace ides {

std::ostream& operator<<(std::ostream& os, const Interval& iv) {
  return os << '[' << iv.start << ',' << iv.end << ')';
}

IntervalSet::IntervalSet(std::vector<Interval> intervals) {
  for (const Interval& iv : intervals) add(iv);
}

void IntervalSet::add(Interval iv) {
  if (iv.empty()) return;
  // Find the first member that ends at or after iv.start (touching counts,
  // so adjacent intervals coalesce into one).
  auto first = std::lower_bound(
      intervals_.begin(), intervals_.end(), iv,
      [](const Interval& a, const Interval& b) { return a.end < b.start; });
  // Find one past the last member that starts at or before iv.end.
  auto last = first;
  while (last != intervals_.end() && last->start <= iv.end) {
    iv.start = std::min(iv.start, last->start);
    iv.end = std::max(iv.end, last->end);
    ++last;
  }
  auto pos = intervals_.erase(first, last);
  intervals_.insert(pos, iv);
  checkInvariant();
}

void IntervalSet::subtract(Interval iv) {
  if (iv.empty() || intervals_.empty()) return;
  // Locate the overlapping run with binary search and rewrite only it; the
  // journal rollback path subtracts one interval at a time from large sets,
  // where rebuilding the whole vector per call dominated.
  const auto first = std::lower_bound(
      intervals_.begin(), intervals_.end(), iv,
      [](const Interval& a, const Interval& b) { return a.end <= b.start; });
  auto last = first;
  while (last != intervals_.end() && last->start < iv.end) ++last;
  if (first == last) return;  // no overlap

  // Clipped edges of the outermost overlapped members survive.
  const Interval head{first->start, iv.start};
  const Interval tail{iv.end, std::prev(last)->end};
  auto pos = intervals_.erase(first, last);
  if (!tail.empty()) pos = intervals_.insert(pos, tail);
  if (!head.empty()) intervals_.insert(pos, head);
  checkInvariant();
}

void IntervalSet::subtractSorted(const Interval* begin, const Interval* end) {
  if (begin == end || intervals_.empty()) return;
  if (std::next(begin) == end) {
    subtract(*begin);
    return;
  }
  // Only members between the first and the last one the cuts overlap can
  // change. The cuts are sorted and disjoint, so their ends ascend too:
  // binary-search the span [first, last) and rewrite it alone — the frozen
  // base around the undone suffix stays where it is.
  const auto first = std::lower_bound(
      intervals_.begin(), intervals_.end(), *begin,
      [](const Interval& a, const Interval& b) { return a.end <= b.start; });
  const auto last = std::lower_bound(
      first, intervals_.end(), std::prev(end)->end,
      [](const Interval& a, Time t) { return a.start < t; });
  if (first == last) return;  // no overlap

  // The span's survivors go to a reused buffer (a cut inside a member
  // splits it, so they can outnumber the span), then back over the span;
  // only a change in count moves the members behind it.
  static thread_local std::vector<Interval> buffer;
  buffer.clear();
  const Interval* cut = begin;
  for (auto member = first; member != last; ++member) {
    Time cursor = member->start;
    while (cut != end && cut->end <= cursor) ++cut;
    const Interval* c = cut;
    for (; c != end && c->start < member->end; ++c) {
      if (c->start > cursor) buffer.push_back({cursor, c->start});
      cursor = std::max(cursor, c->end);
    }
    if (cursor < member->end) buffer.push_back({cursor, member->end});
  }
  const auto span = static_cast<std::size_t>(last - first);
  if (buffer.size() <= span) {
    intervals_.erase(std::copy(buffer.begin(), buffer.end(), first), last);
  } else {
    const auto extra = buffer.begin() + static_cast<std::ptrdiff_t>(span);
    intervals_.insert(std::copy(buffer.begin(), extra, first), extra,
                      buffer.end());
  }
  checkInvariant();
}

Time IntervalSet::totalLength() const {
  Time total = 0;
  for (const Interval& iv : intervals_) total += iv.length();
  return total;
}

bool IntervalSet::covers(Interval iv) const {
  if (iv.empty()) return true;
  // The covering member, if any, is the last one starting at or before
  // iv.start.
  auto it = std::upper_bound(
      intervals_.begin(), intervals_.end(), iv,
      [](const Interval& a, const Interval& b) { return a.start < b.start; });
  if (it == intervals_.begin()) return false;
  --it;
  return it->start <= iv.start && it->end >= iv.end;
}

bool IntervalSet::intersects(Interval iv) const {
  if (iv.empty()) return false;
  auto it = std::lower_bound(
      intervals_.begin(), intervals_.end(), iv,
      [](const Interval& a, const Interval& b) { return a.end <= b.start; });
  return it != intervals_.end() && it->overlaps(iv);
}

IntervalSet IntervalSet::complementWithin(Interval horizon) const {
  IntervalSet out;
  complementWithinInto(horizon, out);
  return out;
}

void IntervalSet::complementWithinInto(Interval horizon,
                                       IntervalSet& out) const {
  out.intervals_.clear();
  if (horizon.empty()) return;
  Time cursor = horizon.start;
  for (const Interval& iv : intervals_) {
    if (iv.end <= horizon.start) continue;
    if (iv.start >= horizon.end) break;
    if (iv.start > cursor) {
      out.intervals_.push_back({cursor, std::min(iv.start, horizon.end)});
    }
    cursor = std::max(cursor, iv.end);
    if (cursor >= horizon.end) break;
  }
  if (cursor < horizon.end) {
    out.intervals_.push_back({cursor, horizon.end});
  }
  out.checkInvariant();
}

IntervalSet IntervalSet::intersectWith(Interval window) const {
  IntervalSet out;
  if (window.empty()) return out;
  for (const Interval& iv : intervals_) {
    if (iv.end <= window.start) continue;
    if (iv.start >= window.end) break;
    out.intervals_.push_back(
        {std::max(iv.start, window.start), std::min(iv.end, window.end)});
  }
  out.checkInvariant();
  return out;
}

Time IntervalSet::lengthWithin(Interval window) const {
  Time total = 0;
  for (const Interval& iv : intervals_) {
    if (iv.end <= window.start) continue;
    if (iv.start >= window.end) break;
    total += std::min(iv.end, window.end) - std::max(iv.start, window.start);
  }
  return total;
}

Time IntervalSet::largest() const {
  Time best = 0;
  for (const Interval& iv : intervals_) best = std::max(best, iv.length());
  return best;
}

void IntervalSet::checkInvariant() const {
#ifndef NDEBUG
  for (std::size_t i = 0; i < intervals_.size(); ++i) {
    assert(!intervals_[i].empty());
    if (i > 0) assert(intervals_[i - 1].end < intervals_[i].start);
  }
#endif
}

std::ostream& operator<<(std::ostream& os, const IntervalSet& set) {
  os << '{';
  bool first = true;
  for (const Interval& iv : set.intervals()) {
    if (!first) os << ", ";
    os << iv;
    first = false;
  }
  return os << '}';
}

}  // namespace ides
