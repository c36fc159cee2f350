// Vector clocks and versioned values with semilattice joins — the
// metadata-consistency substrate of the cluster control plane.
//
// Le Taureau's §6 asks the platform to keep metadata consistent while
// machines churn; *Formal Foundations of Serverless Computing* (arXiv
// 1902.05870) pins the safety bar: under crashes, message loss and retries
// no acknowledged effect may be lost or duplicated. Both sides of a
// network partition keep writing their own copy of cluster metadata; when
// the partition heals the copies must merge to one value on every node,
// regardless of merge order or grouping. That is exactly a join
// semilattice, so Versioned<T>::Join is built to satisfy the lattice laws
// (commutative, associative, idempotent — property-tested in
// tests/membership_test.cc):
//
//  - clocks join by pointwise max (the classic vector-clock merge);
//  - the surviving value is chosen by a *frozen write priority* stamped at
//    write time: (total clock ticks at the write, writer id). Causally
//    newer writes always have strictly more total ticks than the writes
//    they observed, so dominance wins; concurrent writes resolve by the
//    deterministic (weight, writer) total order. Because the priority is
//    frozen at write time, Join is a pure max and the lattice laws hold.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>

namespace taureau::membership {

/// Index of a participant in the cluster-wide membership space. Machines,
/// memory nodes, bookies and brokers are all mapped onto these ids by the
/// world that wires them together.
using NodeId = uint32_t;

/// Outcome of comparing two vector clocks under the causal partial order.
enum class ClockOrder {
  kEqual,
  kBefore,      ///< a happened-before b (b dominates).
  kAfter,       ///< b happened-before a (a dominates).
  kConcurrent,  ///< neither dominates: a genuine conflict.
};

/// A vector clock over NodeIds. Components absent from the map are zero,
/// and zero components are never stored, so structural equality is value
/// equality.
class VectorClock {
 public:
  /// Increments this node's component (a local event).
  void Tick(NodeId node) { ++counts_[node]; }

  /// The component for `node` (0 when absent).
  uint64_t Count(NodeId node) const;

  /// Sum of all components — strictly increases along any causal chain.
  uint64_t TotalTicks() const;

  /// Pointwise max (the semilattice join).
  void MergeFrom(const VectorClock& other);

  static ClockOrder Compare(const VectorClock& a, const VectorClock& b);

  /// True when this clock is >= other on every component.
  bool DominatesOrEquals(const VectorClock& other) const {
    ClockOrder o = Compare(*this, other);
    return o == ClockOrder::kEqual || o == ClockOrder::kAfter;
  }

  size_t component_count() const { return counts_.size(); }

  /// Deterministic "{0:3 2:1}" rendering, sorted by node id.
  std::string ToString() const;

  bool operator==(const VectorClock&) const = default;

 private:
  std::map<NodeId, uint64_t> counts_;
};

/// The frozen priority of one write: total clock ticks at write time plus
/// the writer id. Two writes by the same writer are causally ordered (the
/// writer ticks its own component each time), so (weight, writer) is
/// unique per write and totally ordered across all writes.
struct WritePriority {
  uint64_t weight = 0;
  NodeId writer = 0;

  auto operator<=>(const WritePriority&) const = default;
};

/// A value paired with the vector clock of its last write. Join keeps the
/// causally newest value, resolves concurrent writes deterministically,
/// and always merges the clocks, so every replica converges to the same
/// (value, clock) no matter the merge order.
template <typename T>
class Versioned {
 public:
  Versioned() = default;
  Versioned(T value, VectorClock clock, WritePriority priority)
      : value_(std::move(value)),
        clock_(std::move(clock)),
        priority_(priority) {}

  /// Records a write by `node`: ticks the clock and freezes the priority.
  void Write(NodeId node, T value) {
    clock_.Tick(node);
    value_ = std::move(value);
    priority_ = WritePriority{clock_.TotalTicks(), node};
  }

  /// Semilattice join: max by frozen priority, clocks merged pointwise.
  void Join(const Versioned& other) {
    if (other.priority_ > priority_) {
      value_ = other.value_;
      priority_ = other.priority_;
    }
    clock_.MergeFrom(other.clock_);
  }

  /// True when the two versions were written concurrently with different
  /// values — the conflict a heal-time reconciliation must count.
  bool ConflictsWith(const Versioned& other) const {
    return VectorClock::Compare(clock_, other.clock_) ==
               ClockOrder::kConcurrent &&
           !(value_ == other.value_);
  }

  const T& value() const { return value_; }
  const VectorClock& clock() const { return clock_; }
  WritePriority priority() const { return priority_; }

  bool operator==(const Versioned&) const = default;

 private:
  T value_{};
  VectorClock clock_;
  WritePriority priority_;
};

}  // namespace taureau::membership
