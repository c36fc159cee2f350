// Deterministic fault schedules (§6: "failures must be masked by the
// platform" — so the platform must be tested against them).
//
// A FaultPlan is a pre-generated, time-sorted list of fault events drawn
// from the shared taureau::common RNG: machine crashes and restarts,
// container kills mid-invocation, network delay spikes and partitions,
// bookie failures, and message drop/duplication. Because the plan is fully
// materialized before the simulation runs, two runs with the same seed see
// byte-identical fault timelines regardless of what the workload does.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.h"
#include "common/time_types.h"

namespace taureau::chaos {

/// Everything the registry knows how to inject.
enum class FaultKind {
  kMachineCrash,       ///< target = machine id; param = restart delay (us).
  kMachineRestart,     ///< target = machine id.
  kContainerKill,      ///< target = selection key (victim picked by index).
  kNetworkDelay,       ///< target = machine id; param = added latency (us).
  kNetworkPartition,   ///< target = machine a; param = heal delay (us).
  kPartitionHeal,      ///< target = machine a.
  kBookieCrash,        ///< target = bookie id; param = recover delay (us).
  kBookieRecover,      ///< target = bookie id.
  kMemoryNodeFail,     ///< target = memory node id; param = recover delay.
  kMemoryNodeRecover,  ///< target = memory node id.
  kMessageDrop,        ///< arm: drop the next published message.
  kMessageDuplicate,   ///< arm: duplicate the next published message.
  kStepRedeliver,      ///< orchestrator: re-deliver a completed step
                       ///< (at-least-once duplicate; idempotency must dedupe).
  kGroupPartition,     ///< target = minority-node bitmask; param = heal
                       ///< delay (us). Symmetric split at the transport.
  kGroupHeal,          ///< target = the bitmask of the matching partition.
  kLinkLoss,           ///< target = (from << 32) | to; param = restore
                       ///< delay (us). Asymmetric: only from -> to drops.
  kLinkRestore,        ///< target = (from << 32) | to.
  kConfigPushDelay,    ///< arm: delay the next config push by param (us).
  kConfigCorrupt,      ///< arm: corrupt the next config push's payload
                       ///< (the typed store must reject it).
};

/// Packs a directed link fault target for kLinkLoss / kLinkRestore.
constexpr uint64_t PackLink(uint32_t from, uint32_t to) {
  return (uint64_t(from) << 32) | to;
}
constexpr uint32_t LinkFrom(uint64_t target) {
  return static_cast<uint32_t>(target >> 32);
}
constexpr uint32_t LinkTo(uint64_t target) {
  return static_cast<uint32_t>(target);
}

std::string_view FaultKindName(FaultKind kind);

/// One scheduled fault.
struct FaultEvent {
  SimTime at_us = 0;
  FaultKind kind = FaultKind::kMachineCrash;
  /// Kind-specific victim selector (see FaultKind comments).
  uint64_t target = 0;
  /// Kind-specific parameter (usually a recovery delay in us).
  uint64_t param = 0;

  bool operator==(const FaultEvent&) const = default;
};

/// Size of every planned network-delay spike (a kNetworkDelay's param).
constexpr SimDuration kNetworkDelayUs = 50 * kMillisecond;
/// How long after its fault each paired recovery event lands.
constexpr SimDuration kPartitionHealAfterUs = 1 * kSecond;
constexpr SimDuration kBookieRecoverAfterUs = 2 * kSecond;
constexpr SimDuration kMemoryNodeRecoverAfterUs = 2 * kSecond;

/// Poisson rates (events per simulated second) for each fault class over
/// the plan horizon. A rate of 0 disables the class. Recovery events
/// (restart / recover / heal) are scheduled automatically after each
/// corresponding fault: `*_after_us` later where the config has one, the
/// constants above otherwise.
struct FaultPlanConfig {
  SimTime horizon_us = 60 * kSecond;

  double machine_crash_per_s = 0.0;
  SimDuration machine_restart_after_us = 2 * kSecond;
  size_t num_machines = 0;

  double container_kill_per_s = 0.0;
  double network_delay_per_s = 0.0;
  double partition_per_s = 0.0;

  double bookie_crash_per_s = 0.0;
  size_t num_bookies = 0;

  double memory_node_fail_per_s = 0.0;
  size_t num_memory_nodes = 0;

  double message_drop_per_s = 0.0;
  double message_duplicate_per_s = 0.0;

  double step_redeliver_per_s = 0.0;

  /// Symmetric network partitions at the cluster transport (E25). Each
  /// event splits `num_cluster_nodes` into a seeded minority group of
  /// 1..num_cluster_nodes/2 nodes (encoded as the event's target bitmask)
  /// and the rest; a paired kGroupHeal lands `group_heal_after_us` later.
  /// Requires num_cluster_nodes in [2, 64].
  double group_partition_per_s = 0.0;
  SimDuration group_heal_after_us = 2 * kSecond;
  size_t num_cluster_nodes = 0;

  /// Asymmetric link faults: a seeded ordered pair (from, to) of distinct
  /// cluster nodes loses from -> to traffic until the paired kLinkRestore
  /// `link_restore_after_us` later.
  double link_loss_per_s = 0.0;
  SimDuration link_restore_after_us = 1 * kSecond;
};

/// A materialized, time-sorted fault schedule.
class FaultPlan {
 public:
  FaultPlan() = default;

  /// Draws a plan from `rng`. Deterministic in the Rng's stream position;
  /// callers typically pass a Fork() of the experiment's root generator.
  static FaultPlan Generate(const FaultPlanConfig& config, Rng* rng);

  /// Adds one event by hand (tests, targeted scenarios). Keeps the
  /// schedule sorted.
  void Add(FaultEvent event);

  const std::vector<FaultEvent>& events() const { return events_; }
  size_t size() const { return events_.size(); }
  bool empty() const { return events_.empty(); }

  /// Events of one kind (for assertions).
  size_t CountKind(FaultKind kind) const;

  /// Deterministic one-event-per-line rendering.
  std::string ToString() const;

  bool operator==(const FaultPlan&) const = default;

 private:
  std::vector<FaultEvent> events_;  ///< Sorted by (at_us, kind, target).
};

}  // namespace taureau::chaos
