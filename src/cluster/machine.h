// A physical machine hosting execution units at some isolation level.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>

#include "cluster/resources.h"
#include "cluster/virtualization.h"
#include "common/status.h"

namespace taureau::cluster {

using MachineId = uint32_t;
using UnitId = uint64_t;

/// One execution unit (a tenant's VM / container / lambda slot) placed on a
/// machine.
struct ExecutionUnit {
  UnitId id = 0;
  MachineId machine = 0;
  IsolationLevel level = IsolationLevel::kContainer;
  /// The tenant-visible demand, excluding virtualization overhead.
  ResourceVector demand;
  /// Demand + per-unit overhead actually charged against the machine.
  ResourceVector footprint;
  /// Opaque owner tag (application / tenant name) for interference analysis.
  std::string owner;
};

/// A physical machine: capacity, current allocations, utilization counters.
class Machine {
 public:
  Machine(MachineId id, ResourceVector capacity)
      : id_(id), capacity_(capacity) {}

  MachineId id() const { return id_; }
  const ResourceVector& capacity() const { return capacity_; }
  const ResourceVector& allocated() const { return allocated_; }
  ResourceVector Free() const { return capacity_ - allocated_; }

  /// Crash/restart state (chaos injection). A crashed machine hosts
  /// nothing; its units are evicted by Cluster::CrashMachine.
  bool healthy() const { return healthy_; }
  void set_healthy(bool healthy) { healthy_ = healthy; }

  /// Network partition state: a partitioned machine keeps its units but
  /// accepts no new placements and cannot be reached.
  bool reachable() const { return reachable_; }
  void set_reachable(bool reachable) { reachable_ = reachable; }

  bool usable() const { return healthy_ && reachable_; }

  /// Fraction of the dominant resource in use, in [0,1].
  double Utilization() const { return allocated_.DominantShare(capacity_); }
  double CpuUtilization() const {
    return capacity_.cpu_millis > 0
               ? double(allocated_.cpu_millis) / double(capacity_.cpu_millis)
               : 0.0;
  }
  double MemUtilization() const {
    return capacity_.memory_mb > 0
               ? double(allocated_.memory_mb) / double(capacity_.memory_mb)
               : 0.0;
  }

  /// True when the machine is usable and `footprint` fits in the remaining
  /// capacity.
  bool CanHost(const ResourceVector& footprint) const {
    return usable() && footprint.FitsIn(Free());
  }

  /// Places a unit. Fails with ResourceExhausted if it does not fit.
  Status Place(const ExecutionUnit& unit);

  /// Removes a unit, returning its resources. NotFound if absent.
  Status Remove(UnitId id);

  const std::unordered_map<UnitId, ExecutionUnit>& units() const {
    return units_;
  }
  size_t unit_count() const { return units_.size(); }

 private:
  MachineId id_;
  ResourceVector capacity_;
  ResourceVector allocated_;
  bool healthy_ = true;
  bool reachable_ = true;
  std::unordered_map<UnitId, ExecutionUnit> units_;
};

}  // namespace taureau::cluster
