// Id-keyed slot storage for the tracer's open spans and the sampling
// pipeline's pending trace groups.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace taureau::obs {

/// Objects keyed by a nonzero 64-bit id (span ids and trace ids are issued
/// from 1), held in a slab of fixed-size chunks and found through one flat
/// index. The index is a power-of-two table of (id, slot) pairs, at most
/// half full, with linear probing and backward-shift deletion (the rule
/// reuse::ResultCache's index uses), so there are no tombstones.
///
/// Slots never move: a pointer from Find stays valid until that id is
/// erased. An erased slot goes on a free list with its contents intact and
/// serves the next Insert, so whatever storage it holds (a span's spilled
/// attribute block, a trace group's span slots) is reused; the caller
/// resets the fields it needs. Steady-state Insert/Erase allocate nothing.
template <class T>
class IdSlab {
 public:
  IdSlab() = default;
  IdSlab(const IdSlab&) = delete;
  IdSlab& operator=(const IdSlab&) = delete;

  /// The object under `id`, or nullptr.
  T* Find(uint64_t id) {
    const uint32_t slot = SlotOf(id);
    return slot != kNone ? &At(slot) : nullptr;
  }
  const T* Find(uint64_t id) const {
    const uint32_t slot = SlotOf(id);
    return slot != kNone ? &At(slot) : nullptr;
  }

  /// A slot for `id`, which must be nonzero and absent. The slot holds
  /// whatever its last occupant left.
  T& Insert(uint64_t id) {
    assert(id != 0 && SlotOf(id) == kNone);
    if (2 * (size_ + 1) > index_.size()) GrowIndex();
    uint32_t slot;
    if (!free_.empty()) {
      slot = free_.back();
      free_.pop_back();
    } else {
      if (slots_created_ % kChunkSlots == 0) {
        chunks_.push_back(std::make_unique<T[]>(kChunkSlots));
      }
      slot = slots_created_++;
    }
    const size_t mask = index_.size() - 1;
    size_t i = Home(id);
    while (index_[i].id != 0) i = (i + 1) & mask;
    index_[i] = IndexSlot{id, slot};
    ++size_;
    return At(slot);
  }

  /// Frees `id`'s slot; absent ids are ignored.
  void Erase(uint64_t id) {
    if (index_.empty() || id == 0) return;
    const size_t mask = index_.size() - 1;
    size_t hole = Home(id);
    while (index_[hole].id != id) {
      if (index_[hole].id == 0) return;
      hole = (hole + 1) & mask;
    }
    free_.push_back(index_[hole].slot);
    --size_;
    // Backward-shift deletion: pull each later entry of the probe run into
    // the hole unless its home position lies cyclically in (hole, j].
    for (size_t j = (hole + 1) & mask; index_[j].id != 0;
         j = (j + 1) & mask) {
      const size_t home = Home(index_[j].id);
      const bool stays = hole <= j ? (hole < home && home <= j)
                                   : (hole < home || home <= j);
      if (!stays) {
        index_[hole] = index_[j];
        hole = j;
      }
    }
    index_[hole] = IndexSlot{};
  }

  size_t size() const { return size_; }

  /// Calls f(id, const T&) for every live entry, in index order (a pure
  /// function of the insert/erase history, not of id order).
  template <class F>
  void ForEach(F&& f) const {
    for (const IndexSlot& e : index_) {
      if (e.id != 0) f(e.id, At(e.slot));
    }
  }

  /// Erases every entry; the slots stay allocated for reuse.
  void Clear() {
    for (IndexSlot& e : index_) {
      if (e.id != 0) free_.push_back(e.slot);
      e = IndexSlot{};
    }
    size_ = 0;
  }

 private:
  static constexpr uint32_t kNone = UINT32_MAX;
  static constexpr uint32_t kChunkSlots = 64;

  struct IndexSlot {
    uint64_t id = 0;  ///< 0: empty.
    uint32_t slot = kNone;
  };

  T& At(uint32_t slot) { return chunks_[slot / kChunkSlots][slot % kChunkSlots]; }
  const T& At(uint32_t slot) const {
    return chunks_[slot / kChunkSlots][slot % kChunkSlots];
  }

  /// Fibonacci hashing: the top log2(index size) bits of id × 2^64/φ, which
  /// spreads the sequential ids the tracer issues across the table.
  size_t Home(uint64_t id) const {
    return size_t((id * 0x9E3779B97F4A7C15ULL) >> shift_);
  }

  uint32_t SlotOf(uint64_t id) const {
    if (index_.empty() || id == 0) return kNone;
    const size_t mask = index_.size() - 1;
    // At most half full, so every probe run ends at an empty slot.
    for (size_t i = Home(id);; i = (i + 1) & mask) {
      if (index_[i].id == id) return index_[i].slot;
      if (index_[i].id == 0) return kNone;
    }
  }

  void GrowIndex() {
    std::vector<IndexSlot> old(index_.empty() ? 16 : 2 * index_.size());
    old.swap(index_);
    shift_ = 64;
    for (size_t n = index_.size(); n > 1; n >>= 1) --shift_;
    const size_t mask = index_.size() - 1;
    for (const IndexSlot& e : old) {
      if (e.id == 0) continue;
      size_t i = Home(e.id);
      while (index_[i].id != 0) i = (i + 1) & mask;
      index_[i] = e;
    }
  }

  /// Fixed-size chunks, so a slot never moves once created.
  std::vector<std::unique_ptr<T[]>> chunks_;
  uint32_t slots_created_ = 0;
  std::vector<uint32_t> free_;  ///< Erased slots, reused last-in first-out.
  std::vector<IndexSlot> index_;
  int shift_ = 64;  ///< 64 - log2(index_.size()).
  size_t size_ = 0;
};

}  // namespace taureau::obs
