// taureau::reuse — the computation-reuse layer (E29, ROADMAP item 5).
//
// The paper's economic argument is that serverless platforms charge every
// invocation as if it were novel work, while real traffic is heavily skewed
// and repetitive. The cheapest capacity is the work you never redo: this
// file holds the shared cache substrate — one LRU/TTL implementation that
// backs both the content-addressed result cache (memoized idempotent
// invocations, keyed by a 16-byte ContentKey) and the chaos idempotency
// cache (exactly-once replay under at-least-once delivery, keyed by
// arbitrary strings), which since E29 is a thin policy over it.
//
// Design points:
//   - First-writer-wins: Put() of an existing key refreshes recency and
//     returns kDuplicate without touching the stored value — the semantics
//     the idempotency path has relied on since E20.
//   - Bounded two ways: by entry count (the idempotency shape) and by a
//     byte budget (the result-cache shape; an entry costs its key + output
//     bytes plus a fixed bookkeeping overhead).
//   - TTL: entries older than `ttl_us` are dead on arrival at Lookup time
//     (lazy, deterministic — no sweeper event needed) and are also swept
//     before eviction decisions so stale entries never veto admission.
//   - Cost-aware admission (cost_aware = true): every entry carries a
//     score = observed execution cost x recurrence estimate. When full,
//     the incoming entry evicts LRU victims only while their scores do not
//     exceed its own; meeting a more valuable victim rejects the insert.
//     One-hit wonders (recurrence 1, cheap exec) therefore never displace
//     hot expensive results, while plain LRU (cost_aware = false) keeps
//     the historical idempotency behaviour.
//   - Allocation-free in steady state: entries live in a Slab of 256-node
//     chunks, linked into the LRU list by index, and found through a
//     FlatTable keyed on the key's hash (common/flat_table.h). An erased
//     node goes on the slab's free list and the next insert reuses it,
//     strings and all, so a full cache allocates nothing.
//
// Deterministic by construction: no clocks, no randomness — the hit/miss/
// eviction sequence is a pure function of the call sequence, which is what
// the serial-vs-psim differential tests byte-compare. The index's hash only
// decides where an entry sits in the index, never which entry is evicted.
#pragma once

#include <cstdint>
#include <string>

#include "common/flat_table.h"
#include "common/hash.h"
#include "common/status.h"
#include "common/time_types.h"

namespace taureau::reuse {

/// A result cache key for one function's payload: the payload's Fnv1a64,
/// the function's id in the reuse layer that made the key, and the length
/// of the string key `function + 0x1f + 16 hex digits` this key replaces,
/// which is what the byte budget charges for it. Built by ReuseLayer::Key.
struct ContentKey {
  uint64_t payload_hash = 0;
  uint32_t function = 0;
  uint32_t bytes = 0;

  friend bool operator==(const ContentKey&, const ContentKey&) = default;
  /// Position hash for the open-addressed tables keyed by it.
  uint64_t Hash() const {
    return MixU64(payload_hash ^ (uint64_t(function) << 32));
  }
};

/// One memoized completion. `exec_us` and `recurrence` feed the cost-aware
/// admission score; both are 0/1 and unused on plain-LRU caches.
struct CachedResult {
  Status status;
  std::string output;
  /// Observed execution time of the run that produced this result (the
  /// work a hit saves).
  SimDuration exec_us = 0;
  /// Recurrence estimate (CountMin) for the key at admission time.
  uint64_t recurrence = 1;
  SimTime stored_at_us = 0;

  /// Admission/eviction score: the expected work this entry saves.
  double Score() const { return double(exec_us) * double(recurrence); }
};

struct ResultCacheConfig {
  /// Byte budget over keys + outputs + per-entry overhead (0 = unbounded).
  size_t max_bytes = 0;
  /// Entry-count bound (0 = unbounded). Both bounds may be active.
  size_t max_entries = 0;
  /// Entries expire this long after `stored_at_us` (0 = never).
  SimDuration ttl_us = 0;
  /// Score-gated admission (see header comment). Off = plain LRU.
  bool cost_aware = false;
};

enum class PutOutcome { kInserted, kDuplicate, kRejected };

/// The shared LRU/TTL store, keyed by ContentKey (the reuse layer) or by
/// std::string (chaos::IdempotencyCache); both are instantiated in
/// result_cache.cc. Single-threaded, like every per-shard module.
template <class Key>
class ResultCache {
 public:
  /// Fixed bookkeeping cost charged per entry against `max_bytes`.
  static constexpr size_t kEntryOverheadBytes = 64;

  explicit ResultCache(ResultCacheConfig config = {}) : config_(config) {}

  /// The live entry for `key`, or nullptr (absent or expired). A hit
  /// refreshes recency; an expired entry is erased and counted. Entries
  /// never move, so the pointer stays valid across later calls until this
  /// entry is evicted, expires or the cache is cleared.
  const CachedResult* Lookup(const Key& key, SimTime now_us);

  /// Stores a copy of `value` stamped with stored_at_us = now_us. First
  /// writer wins: an existing live key counts a duplicate and keeps the
  /// original. Cost-aware caches may reject the insert instead of evicting
  /// a more valuable victim.
  PutOutcome Put(const Key& key, const CachedResult& value, SimTime now_us);

  /// Re-bounds the cache (0 = unbounded), evicting LRU entries as needed.
  void SetLimits(size_t max_bytes, size_t max_entries);

  void Clear();

  const ResultCacheConfig& config() const { return config_; }
  size_t size() const { return index_.size(); }
  size_t bytes() const { return bytes_; }
  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }
  uint64_t duplicate_puts() const { return duplicate_puts_; }
  uint64_t evictions() const { return evictions_; }
  uint64_t expirations() const { return expirations_; }
  uint64_t rejected_admissions() const { return rejected_admissions_; }

 private:
  static constexpr uint32_t kNone = UINT32_MAX;

  /// One slab slot. Live slots form the LRU list.
  struct Node {
    Key key{};
    CachedResult entry;
    size_t bytes = 0;
    uint32_t hash = 0;  ///< The key's index tag.
    uint32_t prev = kNone;  ///< Toward the most recently used end.
    uint32_t next = kNone;  ///< Toward the LRU tail.
  };
  /// An index entry: a live node and its key's hash, so probes rarely touch
  /// the slab.
  struct IndexEntry {
    uint32_t tag = 0;
    uint32_t node = kNone;
  };

  bool Expired(const Node& node, SimTime now_us) const {
    return config_.ttl_us > 0 &&
           now_us - node.entry.stored_at_us >= config_.ttl_us;
  }
  /// The node holding `key`, or kNone.
  uint32_t NodeOf(const Key& key, uint32_t hash) const;
  /// Stores a new entry (the key must be absent) at the LRU front.
  void Insert(const Key& key, uint32_t hash, const CachedResult& value,
              size_t bytes, SimTime now_us);
  void Erase(uint32_t n);
  void Unlink(uint32_t n);
  void PushFront(uint32_t n);
  void Touch(uint32_t n);
  /// Drops expired entries from the LRU tail (cheap pre-pass so stale
  /// entries never win an admission comparison).
  void SweepExpiredTail(SimTime now_us);
  bool OverBudget(size_t incoming_bytes) const;

  ResultCacheConfig config_;
  Slab<Node, 256> nodes_;
  /// Most recently used, and the next eviction candidate.
  uint32_t head_ = kNone;
  uint32_t tail_ = kNone;
  FlatTable<IndexEntry> index_;  ///< The live nodes by key hash.
  size_t bytes_ = 0;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t duplicate_puts_ = 0;
  uint64_t evictions_ = 0;
  uint64_t expirations_ = 0;
  uint64_t rejected_admissions_ = 0;
};

extern template class ResultCache<ContentKey>;
extern template class ResultCache<std::string>;

}  // namespace taureau::reuse
