#include "reuse/result_cache.h"

namespace taureau::reuse {

namespace {

/// The index hash: 32 bits address up to 2^32 slots.
uint32_t KeyHash(const ContentKey& key) { return uint32_t(key.Hash()); }
uint32_t KeyHash(const std::string& key) { return uint32_t(Fnv1a64(key)); }

/// What the byte budget charges for a key: a ContentKey counts as the
/// string key it replaces.
size_t KeyBytes(const ContentKey& key) { return key.bytes; }
size_t KeyBytes(const std::string& key) { return key.size(); }

}  // namespace

template <class Key>
const CachedResult* ResultCache<Key>::Lookup(const Key& key, SimTime now_us) {
  const uint32_t n = NodeOf(key, KeyHash(key));
  if (n == kNone) {
    ++misses_;
    return nullptr;
  }
  if (Expired(nodes_[n], now_us)) {
    ++expirations_;
    ++misses_;
    Erase(n);
    return nullptr;
  }
  ++hits_;
  Touch(n);
  return &nodes_[n].entry;
}

template <class Key>
PutOutcome ResultCache<Key>::Put(const Key& key, const CachedResult& value,
                                 SimTime now_us) {
  const uint32_t hash = KeyHash(key);
  if (const uint32_t n = NodeOf(key, hash); n != kNone) {
    if (!Expired(nodes_[n], now_us)) {
      // First writer wins: keep the original, refresh recency.
      ++duplicate_puts_;
      Touch(n);
      return PutOutcome::kDuplicate;
    }
    ++expirations_;
    Erase(n);
  }
  const size_t incoming =
      KeyBytes(key) + value.output.size() + kEntryOverheadBytes;
  SweepExpiredTail(now_us);
  if (config_.cost_aware) {
    // Evict LRU victims only while they are worth no more than the
    // incoming entry; a more valuable victim rejects the insert instead.
    const double score = value.Score();
    while (OverBudget(incoming) && tail_ != kNone) {
      if (nodes_[tail_].entry.Score() > score) {
        ++rejected_admissions_;
        return PutOutcome::kRejected;
      }
      ++evictions_;
      Erase(tail_);
    }
  } else {
    while (OverBudget(incoming) && tail_ != kNone) {
      ++evictions_;
      Erase(tail_);
    }
  }
  if (OverBudget(incoming)) {
    // The entry alone exceeds the budget (or entries are capped at 0).
    ++rejected_admissions_;
    return PutOutcome::kRejected;
  }
  Insert(key, hash, value, incoming, now_us);
  return PutOutcome::kInserted;
}

template <class Key>
void ResultCache<Key>::SetLimits(size_t max_bytes, size_t max_entries) {
  config_.max_bytes = max_bytes;
  config_.max_entries = max_entries;
  while (OverBudget(0) && tail_ != kNone) {
    ++evictions_;
    Erase(tail_);
  }
}

template <class Key>
void ResultCache<Key>::Clear() {
  *this = ResultCache(config_);
}

template <class Key>
bool ResultCache<Key>::OverBudget(size_t incoming_bytes) const {
  if (config_.max_entries > 0 &&
      size() + (incoming_bytes > 0 ? 1 : 0) > config_.max_entries) {
    return true;
  }
  return config_.max_bytes > 0 && bytes_ + incoming_bytes > config_.max_bytes;
}

template <class Key>
void ResultCache<Key>::SweepExpiredTail(SimTime now_us) {
  while (tail_ != kNone && Expired(nodes_[tail_], now_us)) {
    ++expirations_;
    Erase(tail_);
  }
}

template <class Key>
uint32_t ResultCache<Key>::NodeOf(const Key& key, uint32_t hash) const {
  const IndexEntry* e = index_.Find(
      hash, [&](const IndexEntry& c) { return nodes_[c.node].key == key; });
  return e != nullptr ? e->node : kNone;
}

template <class Key>
void ResultCache<Key>::Insert(const Key& key, uint32_t hash,
                              const CachedResult& value, size_t bytes,
                              SimTime now_us) {
  const uint32_t n = nodes_.Acquire();
  index_.Insert(hash).node = n;
  Node& node = nodes_[n];
  // Copy-assignment keeps a recycled node's string capacity.
  node.key = key;
  node.entry = value;
  node.entry.stored_at_us = now_us;
  node.bytes = bytes;
  node.hash = hash;
  PushFront(n);
  bytes_ += bytes;
}

template <class Key>
void ResultCache<Key>::Erase(uint32_t n) {
  Node& node = nodes_[n];
  bytes_ -= node.bytes;
  Unlink(n);
  index_.Erase(*index_.Find(
      node.hash, [n](const IndexEntry& c) { return c.node == n; }));
  // The key and entry stay in the node so the next insert reuses their
  // storage.
  nodes_.Release(n);
}

template <class Key>
void ResultCache<Key>::Unlink(uint32_t n) {
  Node& node = nodes_[n];
  if (node.prev != kNone) {
    nodes_[node.prev].next = node.next;
  } else {
    head_ = node.next;
  }
  if (node.next != kNone) {
    nodes_[node.next].prev = node.prev;
  } else {
    tail_ = node.prev;
  }
}

template <class Key>
void ResultCache<Key>::PushFront(uint32_t n) {
  Node& node = nodes_[n];
  node.prev = kNone;
  node.next = head_;
  if (head_ != kNone) {
    nodes_[head_].prev = n;
  } else {
    tail_ = n;
  }
  head_ = n;
}

template <class Key>
void ResultCache<Key>::Touch(uint32_t n) {
  if (n == head_) return;
  Unlink(n);
  PushFront(n);
}

template class ResultCache<ContentKey>;
template class ResultCache<std::string>;

}  // namespace taureau::reuse
