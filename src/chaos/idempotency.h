// Idempotency keys for at-least-once execution (Jangda et al., "Formal
// Foundations of Serverless Computing": naive retry of non-idempotent
// steps double-applies side effects; recording completed steps under a
// client-supplied key makes re-delivery safe).
//
// The orchestrator records each completed step under
// "<run key>:<node path>:<input hash>"; a re-delivered step with the same
// key replays the recorded output instead of re-invoking the function — no
// second side effect, no second charge.
//
// The cache can be bounded: with a nonzero capacity it evicts the least
// recently used entry (Lookup and Record both refresh recency) so a long
// run cannot grow it without limit. Eviction trades safety for memory — an
// evicted key's re-delivery re-executes — so `evictions()` is surfaced for
// operators to size the cache against their redelivery window.
//
// Since E29 this is a thin policy over reuse::ResultCache — the one
// LRU/TTL implementation shared with the content-addressed result cache,
// instantiated here over std::string because these keys are arbitrary
// strings that must match exactly.
// This class pins the idempotency shape: entry-count bound, no TTL, no
// byte budget, plain LRU (no cost-aware admission), first-writer-wins.
// Where the result cache asks "is recomputing cheaper than caching?", this
// cache asks "was this side effect already applied?" — correctness, not
// economics, so nothing may evict preferentially.
#pragma once

#include <cstdint>
#include <string>

#include "common/status.h"
#include "reuse/result_cache.h"

namespace taureau::chaos {

class IdempotencyCache {
 public:
  /// A recorded completion (`status` + `output`; the reuse fields are
  /// unused in the idempotency shape).
  using Entry = reuse::CachedResult;

  /// `capacity` == 0 means unbounded (the historical behaviour).
  explicit IdempotencyCache(size_t capacity = 0)
      : cache_({/*max_bytes=*/0, /*max_entries=*/capacity, /*ttl_us=*/0,
                /*cost_aware=*/false}) {}

  /// The recorded completion for `key`, or nullptr if none. Counts a hit
  /// and refreshes the key's recency when found.
  const Entry* Lookup(const std::string& key) {
    return cache_.Lookup(key, /*now_us=*/0);
  }

  /// Records a completion. First writer wins: returns false (and leaves
  /// the original record, refreshing its recency) when the key was already
  /// recorded — the caller is the duplicate. When bounded and full, the
  /// least recently used entry is evicted to make room.
  bool Record(const std::string& key, Status status, std::string output) {
    return cache_.Put(key, Entry{std::move(status), std::move(output)},
                      /*now_us=*/0) == reuse::PutOutcome::kInserted;
  }

  /// Re-bounds the cache, evicting LRU entries if the new capacity is
  /// smaller than the current size. 0 = unbounded.
  void set_capacity(size_t capacity) {
    cache_.SetLimits(/*max_bytes=*/0, capacity);
  }

  size_t capacity() const { return cache_.config().max_entries; }
  size_t size() const { return cache_.size(); }
  uint64_t hits() const { return cache_.hits(); }
  uint64_t duplicate_records() const { return cache_.duplicate_puts(); }
  uint64_t evictions() const { return cache_.evictions(); }

  void Clear() { cache_.Clear(); }

 private:
  reuse::ResultCache<std::string> cache_;
};

}  // namespace taureau::chaos
