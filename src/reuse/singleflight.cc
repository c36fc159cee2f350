#include "reuse/singleflight.h"

#include <algorithm>
#include <utility>

namespace taureau::reuse {

namespace {

/// Confirms a flight's key among the flights whose key hashes are equal.
auto KeyIs(const ContentKey& key) {
  return [&key](const auto& flight) { return flight.key == key; };
}

}  // namespace

bool Singleflight::Lead(const ContentKey& key, uint64_t leader_id) {
  if (InFlight(key)) return false;
  Flight& flight = flights_.Insert(key.Hash());
  flight.key = key;
  flight.leader_id = leader_id;
  ++leaders_;
  return true;
}

bool Singleflight::Attach(const ContentKey& key, Follower follower) {
  Flight* flight = flights_.Find(key.Hash(), KeyIs(key));
  if (flight == nullptr) return false;
  flight->followers.push_back(std::move(follower));
  ++followers_attached_;
  max_fanout_ = std::max<uint64_t>(max_fanout_, flight->followers.size());
  return true;
}

bool Singleflight::InFlight(const ContentKey& key) const {
  return flights_.Find(key.Hash(), KeyIs(key)) != nullptr;
}

std::vector<Follower> Singleflight::Complete(const ContentKey& key) {
  Flight* flight = flights_.Find(key.Hash(), KeyIs(key));
  if (flight == nullptr) return {};
  std::vector<Follower> out = std::move(flight->followers);
  flights_.Erase(*flight);
  return out;
}

}  // namespace taureau::reuse
