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
  const uint32_t n = Find(key, KeyHash(key));
  if (n == kNone) {
    ++misses_;
    return nullptr;
  }
  if (Expired(At(n), now_us)) {
    ++expirations_;
    ++misses_;
    Erase(n);
    return nullptr;
  }
  ++hits_;
  Touch(n);
  return &At(n).entry;
}

template <class Key>
PutOutcome ResultCache<Key>::Put(const Key& key, const CachedResult& value,
                                 SimTime now_us) {
  const uint32_t hash = KeyHash(key);
  if (const uint32_t n = Find(key, hash); n != kNone) {
    if (!Expired(At(n), now_us)) {
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
      if (At(tail_).entry.Score() > score) {
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
      size_ + (incoming_bytes > 0 ? 1 : 0) > config_.max_entries) {
    return true;
  }
  return config_.max_bytes > 0 && bytes_ + incoming_bytes > config_.max_bytes;
}

template <class Key>
void ResultCache<Key>::SweepExpiredTail(SimTime now_us) {
  while (tail_ != kNone && Expired(At(tail_), now_us)) {
    ++expirations_;
    Erase(tail_);
  }
}

template <class Key>
uint32_t ResultCache<Key>::Find(const Key& key, uint32_t hash) {
  if (index_.empty()) return kNone;
  const size_t mask = index_.size() - 1;
  // The index is at most half full, so every probe run ends at an empty
  // slot.
  for (size_t i = hash & mask;; i = (i + 1) & mask) {
    const IndexSlot& slot = index_[i];
    if (slot.node == kNone) return kNone;
    if (slot.hash == hash && At(slot.node).key == key) return slot.node;
  }
}

template <class Key>
void ResultCache<Key>::Insert(const Key& key, uint32_t hash,
                              const CachedResult& value, size_t bytes,
                              SimTime now_us) {
  uint32_t n = free_;
  if (n != kNone) {
    free_ = At(n).next;
  } else {
    if (nodes_created_ % kChunkNodes == 0) {
      chunks_.push_back(std::make_unique<Node[]>(kChunkNodes));
    }
    n = nodes_created_++;
  }
  IndexInsert(n, hash);
  Node& node = At(n);
  // Copy-assignment keeps a recycled node's string capacity.
  node.key = key;
  node.entry = value;
  node.entry.stored_at_us = now_us;
  node.bytes = bytes;
  node.hash = hash;
  PushFront(n);
  bytes_ += bytes;
  ++size_;
}

template <class Key>
void ResultCache<Key>::Erase(uint32_t n) {
  Node& node = At(n);
  bytes_ -= node.bytes;
  --size_;
  Unlink(n);
  IndexErase(n, node.hash);
  // The key and entry stay in the node so the next insert reuses their
  // storage.
  node.next = free_;
  free_ = n;
}

template <class Key>
void ResultCache<Key>::Unlink(uint32_t n) {
  Node& node = At(n);
  if (node.prev != kNone) {
    At(node.prev).next = node.next;
  } else {
    head_ = node.next;
  }
  if (node.next != kNone) {
    At(node.next).prev = node.prev;
  } else {
    tail_ = node.prev;
  }
}

template <class Key>
void ResultCache<Key>::PushFront(uint32_t n) {
  Node& node = At(n);
  node.prev = kNone;
  node.next = head_;
  if (head_ != kNone) {
    At(head_).prev = n;
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

template <class Key>
void ResultCache<Key>::IndexInsert(uint32_t n, uint32_t hash) {
  if (2 * (size_ + 1) > index_.size()) GrowIndex();
  const size_t mask = index_.size() - 1;
  size_t i = hash & mask;
  while (index_[i].node != kNone) i = (i + 1) & mask;
  index_[i] = IndexSlot{n, hash};
}

template <class Key>
void ResultCache<Key>::IndexErase(uint32_t n, uint32_t hash) {
  const size_t mask = index_.size() - 1;
  size_t hole = hash & mask;
  while (index_[hole].node != n) hole = (hole + 1) & mask;
  // Backward-shift deletion: pull each later slot of the probe run into
  // the hole unless its home position lies cyclically in (hole, j].
  for (size_t j = (hole + 1) & mask; index_[j].node != kNone;
       j = (j + 1) & mask) {
    const size_t home = index_[j].hash & mask;
    const bool stays = hole <= j ? (hole < home && home <= j)
                                 : (hole < home || home <= j);
    if (!stays) {
      index_[hole] = index_[j];
      hole = j;
    }
  }
  index_[hole] = IndexSlot{};
}

template <class Key>
void ResultCache<Key>::GrowIndex() {
  std::vector<IndexSlot> old(index_.empty() ? 16 : 2 * index_.size());
  old.swap(index_);
  const size_t mask = index_.size() - 1;
  for (const IndexSlot& slot : old) {
    if (slot.node == kNone) continue;
    size_t i = slot.hash & mask;
    while (index_[i].node != kNone) i = (i + 1) & mask;
    index_[i] = slot;
  }
}

template class ResultCache<ContentKey>;
template class ResultCache<std::string>;

}  // namespace taureau::reuse
