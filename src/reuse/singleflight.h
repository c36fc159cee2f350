// Singleflight request coalescing (the Go x/sync/singleflight shape, in
// simulated time): concurrent identical idempotent requests attach to the
// one execution already in flight and fan its result out on completion —
// one execution, one bill, N callbacks.
//
// The group is addressed by the same ContentKeys as the result cache. The
// platform registers the first request for a key as the *leader* and
// attaches later arrivals as *followers*; when the leader completes,
// Complete() returns the followers in attach order so the caller can
// deliver deterministically. The group itself never invokes callbacks —
// delivery stays with the module that owns the request lifecycle (spans,
// metrics, billing).
//
// Flights live inline in one FlatTable keyed on the key's hash
// (common/flat_table.h), so leading and closing a flight allocate nothing
// once the table has grown to the in-flight high-water mark.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/flat_table.h"
#include "reuse/result_cache.h"

namespace taureau::reuse {

/// One request waiting on another's execution. `deliver` is built by the
/// owning module and carries everything delivery needs (callback, span
/// context, per-tenant metric handles).
struct Follower {
  uint64_t id = 0;
  std::function<void(const CachedResult&)> deliver;
};

class Singleflight {
 public:
  /// Registers `leader_id` as the in-flight execution for `key`. False
  /// (and no change) when the key already has a leader.
  bool Lead(const ContentKey& key, uint64_t leader_id);

  /// Attaches a follower to `key`'s in-flight execution. False when no
  /// execution is in flight (the caller should become the leader).
  bool Attach(const ContentKey& key, Follower follower);

  /// True when `key` has an in-flight leader.
  bool InFlight(const ContentKey& key) const;

  /// Closes the flight and returns its followers in attach order (empty
  /// when the key was not led). The caller delivers to each.
  std::vector<Follower> Complete(const ContentKey& key);

  size_t inflight() const { return flights_.size(); }
  uint64_t leaders() const { return leaders_; }
  uint64_t followers_attached() const { return followers_attached_; }
  uint64_t max_fanout() const { return max_fanout_; }

 private:
  struct Flight {
    uint64_t tag = 0;  ///< key.Hash()
    ContentKey key;
    uint64_t leader_id = 0;
    std::vector<Follower> followers;
  };

  FlatTable<Flight> flights_;
  uint64_t leaders_ = 0;
  uint64_t followers_attached_ = 0;
  uint64_t max_fanout_ = 0;  ///< Largest follower count of any one flight.
};

}  // namespace taureau::reuse
