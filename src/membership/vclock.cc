#include "membership/vclock.h"

#include <cstdio>

namespace taureau::membership {

uint64_t VectorClock::Count(NodeId node) const {
  auto it = counts_.find(node);
  return it == counts_.end() ? 0 : it->second;
}

uint64_t VectorClock::TotalTicks() const {
  uint64_t total = 0;
  for (const auto& [node, count] : counts_) total += count;
  return total;
}

void VectorClock::MergeFrom(const VectorClock& other) {
  for (const auto& [node, count] : other.counts_) {
    uint64_t& mine = counts_[node];
    if (count > mine) mine = count;
  }
}

ClockOrder VectorClock::Compare(const VectorClock& a, const VectorClock& b) {
  // Walk both sorted maps once; absent components are zero.
  bool a_ahead = false;
  bool b_ahead = false;
  auto ia = a.counts_.begin();
  auto ib = b.counts_.begin();
  while (ia != a.counts_.end() || ib != b.counts_.end()) {
    if (ib == b.counts_.end() || (ia != a.counts_.end() && ia->first < ib->first)) {
      a_ahead = true;  // b's component is 0 here.
      ++ia;
    } else if (ia == a.counts_.end() || ib->first < ia->first) {
      b_ahead = true;
      ++ib;
    } else {
      if (ia->second > ib->second) a_ahead = true;
      if (ib->second > ia->second) b_ahead = true;
      ++ia;
      ++ib;
    }
    if (a_ahead && b_ahead) return ClockOrder::kConcurrent;
  }
  if (a_ahead) return ClockOrder::kAfter;
  if (b_ahead) return ClockOrder::kBefore;
  return ClockOrder::kEqual;
}

std::string VectorClock::ToString() const {
  std::string out = "{";
  bool first = true;
  char buf[48];
  for (const auto& [node, count] : counts_) {
    std::snprintf(buf, sizeof(buf), "%s%u:%llu", first ? "" : " ", node,
                  static_cast<unsigned long long>(count));
    out += buf;
    first = false;
  }
  out += "}";
  return out;
}

}  // namespace taureau::membership
