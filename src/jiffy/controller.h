// Jiffy's control plane (paper §4.4, Figure 2): hierarchical namespaces
// with lease-based lifetime management and per-namespace notifications.
//
// "Hierarchical namespaces, with sub-namespaces for sub-tasks, allow
// capturing the ephemeral state dependency between an application's tasks...
// namespaces naturally enable lifetime management using a namespace-
// granularity leasing mechanism, and signaling to applications when relevant
// state is ready for processing using a per-namespace notification
// mechanism."
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "chaos/injector.h"
#include "common/status.h"
#include "guard/admission.h"
#include "guard/deadline.h"
#include "guard/guard.h"
#include "jiffy/data_structures.h"
#include "jiffy/memory_pool.h"
#include "membership/control_plane.h"
#include "sim/simulation.h"

namespace taureau::jiffy {

struct JiffyConfig {
  uint32_t num_memory_nodes = 8;
  uint32_t blocks_per_node = 4096;
  uint32_t block_size_bytes = 128 * 1024;
  /// Lease granted to namespaces created without an explicit duration.
  SimDuration default_lease_us = 30 * kSecond;
  /// Period of the controller's lease-expiry scan.
  SimDuration lease_scan_period_us = 1 * kSecond;
  /// Overload protection on the control plane (taureau::guard): with
  /// admission enabled, block-allocating create ops are shed when pool
  /// pressure leaves less than `min_free_block_fraction` of capacity free,
  /// and ops whose caller deadline has no room for the expected control-op
  /// service time are rejected on arrival.
  bool enable_admission = false;
  guard::AdmissionConfig admission{};
  double min_free_block_fraction = 0.02;
};

/// Notification callback: (event, namespace path).
using NotificationCallback =
    std::function<void(const std::string& event, const std::string& path)>;

/// Placement of Jiffy memory nodes on cluster nodes (E25).
struct JiffyNodeMap {
  std::vector<membership::NodeId> node_of_memory_node;
  membership::NodeId controller_node = 0;
};

struct ControllerStats {
  uint64_t namespaces_created = 0;
  uint64_t namespaces_removed = 0;
  uint64_t leases_expired = 0;
  uint64_t notifications_sent = 0;
  uint64_t blocks_rehomed = 0;  ///< Chaos: blocks moved off failed nodes.
  uint64_t ops_shed = 0;        ///< Guard: control-plane ops rejected.
};

/// The controller: owns the memory pool, the namespace tree, and all data
/// structures. Paths are absolute, '/'-separated ("/job-7/map/3").
class JiffyController {
 public:
  JiffyController(sim::Simulation* sim, JiffyConfig config);
  ~JiffyController();

  /// Creates a namespace (and any missing ancestors, which inherit the same
  /// lease). lease_us == 0 uses the configured default; lease_us < 0 means
  /// permanent (pinned).
  /// `deadline` (optional, here and on the structure factories) enables
  /// deadline-aware shedding when admission is enabled.
  Status CreateNamespace(const std::string& path, SimDuration lease_us = 0,
                         guard::Deadline deadline = {});

  /// Extends the namespace's lease to Now() + its original duration.
  Status RenewLease(const std::string& path);

  /// Recursively removes the namespace: destroys its data structures (all
  /// blocks return to the pool) and fires a "removed" notification.
  Status RemoveNamespace(const std::string& path);

  bool Exists(const std::string& path) const;
  /// Remaining lease at `now`; negative when already past due.
  Result<SimDuration> LeaseRemaining(const std::string& path) const;

  /// Data structure factories. The structure is owned by the namespace and
  /// destroyed with it; pointers remain valid until then.
  Result<JiffyHashTable*> CreateHashTable(const std::string& path,
                                          const std::string& name,
                                          uint32_t partitions = 1,
                                          guard::Deadline deadline = {});
  Result<JiffyQueue*> CreateQueue(const std::string& path,
                                  const std::string& name,
                                  guard::Deadline deadline = {});

  Result<JiffyHashTable*> GetHashTable(const std::string& path,
                                       const std::string& name);
  Result<JiffyQueue*> GetQueue(const std::string& path,
                               const std::string& name);

  /// Per-namespace notifications (paper cites Redis keyspace notifications
  /// / SNS as the analogue).
  Status Subscribe(const std::string& path, NotificationCallback cb);
  Status Notify(const std::string& path, const std::string& event);

  /// Runs the periodic lease scan on the simulation.
  void StartLeaseScan();
  void StopLeaseScan();

  /// Re-homes the pool's stats onto the shared registry and enables op
  /// metrics + cat=shuffle span emission on every data structure, existing
  /// and future.
  void AttachObservability(obs::Observability* o);

  /// Registers memory-node fail/recover hooks under the "jiffy" module. A
  /// node failure immediately re-homes every structure's blocks from the
  /// failed node onto healthy ones (recorded as the recovery).
  void AttachChaos(chaos::InjectorRegistry* registry);

  /// Wires control-plane shed decisions into the guard's metric/span
  /// stream (taureau::guard).
  void AttachGuard(guard::Guard* g) { guard_ = g; }
  const guard::AdmissionController& admission() const { return admission_; }

  /// Drives block placement from cluster membership (E25): a node the
  /// membership service declares dead has its memory nodes failed and
  /// every structure's blocks re-homed; namespace primaries become
  /// control-plane leases (hash-placed on memory nodes) that re-assign on
  /// death and reconcile after heal. Only a replica attached with
  /// `actuate` touches the pool; a metadata-only replica claims ownership
  /// without moving blocks.
  void AttachMembership(membership::ControlPlane* cp, JiffyNodeMap map,
                        bool actuate = true);

  /// Namespace-primary ownership key (exposed for tests/bench asserts).
  static uint64_t NamespaceKey(const std::string& path);

  MemoryPool& pool() { return pool_; }
  const ControllerStats& stats() const { return stats_; }
  size_t namespace_count() const { return namespaces_.size(); }

  /// The top-level segment of a path — the pool-accounting owner tag.
  static std::string OwnerTag(const std::string& path);
  /// Validates and normalizes a path; empty result = invalid.
  static std::string NormalizePath(const std::string& path);

 private:
  struct Namespace {
    std::string path;
    SimTime lease_expiry_us = 0;  ///< 0 = permanent.
    SimDuration lease_duration_us = 0;
    std::map<std::string, std::unique_ptr<BlockBacked>> structures;
    std::vector<NotificationCallback> subscribers;
  };

  /// Admission gate for block-allocating control ops; OK = admitted.
  Status AdmitControlOp(guard::Deadline deadline);

  Namespace* Find(const std::string& path);
  const Namespace* Find(const std::string& path) const;
  Status RemoveSubtree(const std::string& path, const std::string& event);
  bool LeaseScanTick();

  /// Re-homes every structure's blocks off failed nodes; returns blocks
  /// moved (shared by the chaos hook and the membership dead handler).
  size_t RehomeAllBlocks(bool* exhausted);
  /// Cluster node hosting the namespace's primary memory node.
  membership::NodeId PrimaryNodeOf(const std::string& path) const;
  void RegisterNamespaceLease(const std::string& path);
  membership::RehomeAction MembershipDead(membership::ControlPlane* cp,
                                          bool actuate,
                                          membership::NodeId dead);
  membership::RehomeAction MembershipRejoin(bool actuate,
                                            membership::NodeId rejoined);

  template <typename T>
  Result<T*> GetTyped(const std::string& path, const std::string& name);

  sim::Simulation* sim_;
  JiffyConfig config_;
  MemoryPool pool_;
  std::map<std::string, Namespace> namespaces_;  ///< Keyed by path; sorted so
                                                 ///< subtrees are contiguous.
  std::unique_ptr<sim::PeriodicProcess> lease_scan_;
  ControllerStats stats_;
  obs::Observability* obs_ = nullptr;
  guard::AdmissionController admission_;
  guard::Guard* guard_ = nullptr;
  JiffyNodeMap node_map_;
  /// Control-plane replicas attached via AttachMembership.
  std::vector<std::pair<membership::ControlPlane*, bool>> planes_;
};

}  // namespace taureau::jiffy
