// The two containers behind the id-keyed and content-keyed tables of the
// tracer, the sampling pipeline, the result cache and singleflight: a slab
// whose slots never move, and an open-addressed table with backward-shift
// deletion.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

namespace taureau {

/// Slots of T in chunks of kChunkSlots that never move, addressed by a
/// 32-bit index, plus a last-in-first-out free list. A slot's address stays
/// valid for the slab's lifetime. A released slot keeps its contents for its
/// next occupant, so whatever storage it holds (strings, vectors) is reused
/// and the occupant resets the fields it needs. The free list is threaded
/// through a link array in each chunk, so Release never allocates.
template <class T, uint32_t kChunkSlots>
class Slab {
 public:
  /// A free slot, holding whatever its last occupant left (a new slot holds
  /// a value-initialized T).
  uint32_t Acquire() {
    if (free_ != kNone) {
      const uint32_t slot = free_;
      free_ = NextFree(slot);
      return slot;
    }
    if (created_ % kChunkSlots == 0) {
      chunks_.push_back(std::make_unique<Chunk>());
    }
    return created_++;
  }

  /// Returns `slot` to the free list; the next Acquire hands it out first.
  void Release(uint32_t slot) {
    NextFree(slot) = free_;
    free_ = slot;
  }

  T& operator[](uint32_t slot) {
    return chunks_[slot / kChunkSlots]->slots[slot % kChunkSlots];
  }
  const T& operator[](uint32_t slot) const {
    return chunks_[slot / kChunkSlots]->slots[slot % kChunkSlots];
  }

 private:
  static constexpr uint32_t kNone = UINT32_MAX;

  struct Chunk {
    T slots[kChunkSlots];
    uint32_t next_free[kChunkSlots];  ///< Free-list links of free slots.
  };

  uint32_t& NextFree(uint32_t slot) {
    return chunks_[slot / kChunkSlots]->next_free[slot % kChunkSlots];
  }

  std::vector<std::unique_ptr<Chunk>> chunks_;
  uint32_t created_ = 0;
  uint32_t free_ = kNone;  ///< The most recently released slot.
};

/// A FlatTable's size when its first entry arrives; each growth doubles it.
inline constexpr size_t kFlatTableFirstCapacity = 16;

/// The slot where a FlatTable of `capacity` slots (a power of two, at least
/// 2) starts probing for `tag`. Fibonacci hashing: the top log2(capacity)
/// bits of tag × 2^64/φ, which spreads sequential ids across the table.
inline size_t FlatHome(uint64_t tag, size_t capacity) {
  const int bits = std::countr_zero(capacity);
  return size_t((tag * 0x9E3779B97F4A7C15ULL) >> (64 - bits));
}

/// An open-addressed table of Entry values: a power-of-two array, at most
/// half full, probed linearly from each entry's FlatHome, with backward-shift
/// deletion, so there are no tombstones and every probe run ends at an empty
/// slot.
///
/// Entry is default-constructible and movable, with a public unsigned
/// integer member `tag` that is 0 in a default Entry and marks an empty slot.
/// Tags need not be unique: Find asks `match` to confirm every entry whose
/// tag is equal. Tag 0 is stored as 1.
///
/// Pointers and references into the table die at the next Insert or Erase.
template <class Entry>
class FlatTable {
 public:
  using Tag = decltype(Entry::tag);

  /// The first entry with `tag` for which match(const Entry&) holds, or
  /// nullptr.
  template <class Match>
  const Entry* Find(Tag tag, Match&& match) const {
    if (slots_.empty()) return nullptr;
    tag = Stored(tag);
    const size_t mask = slots_.size() - 1;
    for (size_t i = FlatHome(tag, slots_.size());; i = (i + 1) & mask) {
      const Entry& e = slots_[i];
      if (e.tag == 0) return nullptr;
      if (e.tag == tag && match(e)) return &e;
    }
  }
  template <class Match>
  Entry* Find(Tag tag, Match&& match) {
    return const_cast<Entry*>(std::as_const(*this).Find(tag, match));
  }

  /// A default Entry carrying `tag`, placed in the table. Growth doubles the
  /// array and re-places every entry.
  Entry& Insert(Tag tag) {
    if (2 * (size_ + 1) > slots_.size()) Grow();
    tag = Stored(tag);
    Entry& e = slots_[EmptySlotFor(tag)];
    e.tag = tag;
    ++size_;
    return e;
  }

  /// Removes `e`, which must be an entry of this table.
  void Erase(Entry& e) {
    const size_t mask = slots_.size() - 1;
    size_t hole = size_t(&e - slots_.data());
    // Backward-shift deletion: pull each later entry of the probe run into
    // the hole unless its home lies cyclically in (hole, j].
    for (size_t j = (hole + 1) & mask; slots_[j].tag != 0;
         j = (j + 1) & mask) {
      const size_t home = FlatHome(slots_[j].tag, slots_.size());
      const bool stays = hole <= j ? (hole < home && home <= j)
                                   : (hole < home || home <= j);
      if (!stays) {
        slots_[hole] = std::move(slots_[j]);
        hole = j;
      }
    }
    slots_[hole] = Entry{};
    --size_;
  }

  /// Calls f(const Entry&) for every entry, in slot order (a pure function
  /// of the insert/erase history).
  template <class F>
  void ForEach(F&& f) const {
    for (const Entry& e : slots_) {
      if (e.tag != 0) f(e);
    }
  }

  /// Removes every entry; the array keeps its size.
  void Clear() {
    for (Entry& e : slots_) e = Entry{};
    size_ = 0;
  }

  size_t size() const { return size_; }

 private:
  static Tag Stored(Tag tag) { return tag != 0 ? tag : 1; }

  size_t EmptySlotFor(Tag tag) const {
    const size_t mask = slots_.size() - 1;
    size_t i = FlatHome(tag, slots_.size());
    while (slots_[i].tag != 0) i = (i + 1) & mask;
    return i;
  }

  void Grow() {
    std::vector<Entry> old(slots_.empty() ? kFlatTableFirstCapacity
                                          : 2 * slots_.size());
    old.swap(slots_);
    for (Entry& e : old) {
      if (e.tag != 0) slots_[EmptySlotFor(e.tag)] = std::move(e);
    }
  }

  std::vector<Entry> slots_;
  size_t size_ = 0;
};

}  // namespace taureau
