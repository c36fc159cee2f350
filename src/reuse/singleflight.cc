#include "reuse/singleflight.h"

#include <algorithm>
#include <utility>

namespace taureau::reuse {

bool Singleflight::Lead(const ContentKey& key, uint64_t leader_id) {
  if (Find(key) != kAbsent) return false;
  if (2 * (size_ + 1) > table_.size()) Grow();
  const size_t mask = table_.size() - 1;
  size_t i = key.Hash() & mask;
  while (table_[i].live) i = (i + 1) & mask;
  Flight& flight = table_[i];
  flight.live = true;
  flight.key = key;
  flight.leader_id = leader_id;
  ++size_;
  ++leaders_;
  return true;
}

bool Singleflight::Attach(const ContentKey& key, Follower follower) {
  const size_t i = Find(key);
  if (i == kAbsent) return false;
  std::vector<Follower>& followers = table_[i].followers;
  followers.push_back(std::move(follower));
  ++followers_attached_;
  max_fanout_ = std::max<uint64_t>(max_fanout_, followers.size());
  return true;
}

std::vector<Follower> Singleflight::Complete(const ContentKey& key) {
  size_t hole = Find(key);
  if (hole == kAbsent) return {};
  std::vector<Follower> out = std::move(table_[hole].followers);
  --size_;
  // Backward-shift deletion: pull each later flight of the probe run into
  // the hole unless its home slot lies cyclically in (hole, j].
  const size_t mask = table_.size() - 1;
  for (size_t j = (hole + 1) & mask; table_[j].live; j = (j + 1) & mask) {
    const size_t home = table_[j].key.Hash() & mask;
    const bool stays = hole <= j ? (hole < home && home <= j)
                                 : (hole < home || home <= j);
    if (!stays) {
      table_[hole] = std::move(table_[j]);
      hole = j;
    }
  }
  table_[hole] = Flight{};
  return out;
}

size_t Singleflight::Find(const ContentKey& key) const {
  if (table_.empty()) return kAbsent;
  const size_t mask = table_.size() - 1;
  // At most half full, so every probe run ends at an empty slot.
  for (size_t i = key.Hash() & mask; table_[i].live; i = (i + 1) & mask) {
    if (table_[i].key == key) return i;
  }
  return kAbsent;
}

void Singleflight::Grow() {
  std::vector<Flight> old(table_.empty() ? 16 : 2 * table_.size());
  old.swap(table_);
  const size_t mask = table_.size() - 1;
  for (Flight& flight : old) {
    if (!flight.live) continue;
    size_t i = flight.key.Hash() & mask;
    while (table_[i].live) i = (i + 1) & mask;
    table_[i] = std::move(flight);
  }
}

}  // namespace taureau::reuse
