// Id-keyed slot storage for the tracer's open spans and the sampling
// pipeline's pending trace groups.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>

#include "common/flat_table.h"

namespace taureau::obs {

/// Objects keyed by a nonzero 64-bit id (span ids and trace ids are issued
/// from 1), held in a Slab of 64-slot chunks and found through a FlatTable
/// of (id, slot) entries hashed on the id.
///
/// Slots never move: a pointer from Find stays valid until that id is
/// erased. An erased slot keeps its contents and serves a later Insert, so
/// whatever storage it holds (a span's spilled attribute block, a trace
/// group's span slots) is reused; the caller resets the fields it needs.
/// Steady-state Insert/Erase allocate nothing.
template <class T>
class IdSlab {
 public:
  IdSlab() = default;
  IdSlab(const IdSlab&) = delete;
  IdSlab& operator=(const IdSlab&) = delete;

  /// The object under `id`, or nullptr.
  T* Find(uint64_t id) {
    const Entry* e = index_.Find(id, Is(id));
    return e != nullptr ? &slab_[e->slot] : nullptr;
  }
  const T* Find(uint64_t id) const {
    const Entry* e = index_.Find(id, Is(id));
    return e != nullptr ? &slab_[e->slot] : nullptr;
  }

  /// A slot for `id`, which must be nonzero and absent. The slot holds
  /// whatever its last occupant left.
  T& Insert(uint64_t id) {
    assert(id != 0 && Find(id) == nullptr);
    const uint32_t slot = slab_.Acquire();
    index_.Insert(id).slot = slot;
    return slab_[slot];
  }

  /// Frees `id`'s slot; absent ids are ignored.
  void Erase(uint64_t id) {
    if (Entry* e = index_.Find(id, Is(id))) {
      slab_.Release(e->slot);
      index_.Erase(*e);
    }
  }

  size_t size() const { return index_.size(); }

  /// Calls f(id, const T&) for every live entry, in index order (a pure
  /// function of the insert/erase history, not of id order).
  template <class F>
  void ForEach(F&& f) const {
    index_.ForEach([&](const Entry& e) { f(e.tag, slab_[e.slot]); });
  }

  /// Erases every entry; the slots stay allocated for reuse.
  void Clear() {
    index_.ForEach([this](const Entry& e) { slab_.Release(e.slot); });
    index_.Clear();
  }

 private:
  struct Entry {
    uint64_t tag = 0;  ///< The id.
    uint32_t slot = 0;
  };

  /// Confirms the id itself: only id 0, which is looked up as tag 1, can
  /// meet an entry whose tag is not its own.
  static auto Is(uint64_t id) {
    return [id](const Entry& e) { return e.tag == id; };
  }

  Slab<T, 64> slab_;
  FlatTable<Entry> index_;
};

}  // namespace taureau::obs
