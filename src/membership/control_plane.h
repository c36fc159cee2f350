// Replication control plane: turns membership transitions into ownership
// changes, safely.
//
// Ownership of every logical resource (a Jiffy namespace, a pubsub
// partition, ...) is a `Versioned<NodeId>` entry in an OwnershipTable —
// a vector-clock-stamped register whose Join is a semilattice, so two
// control-plane replicas that diverged during a partition merge to the
// same table no matter who reconciles first.
//
// Two kinds of state flow through the plane:
//
//  - *leases*: the current owner of a resource periodically re-asserts
//    its claim. A replica only renews on behalf of owners it can reach,
//    and — when `require_quorum` is set — only while the replica itself
//    sees a majority alive. That is the split-brain gate: a minority-side
//    replica stops renewing (its primaries step down) instead of fighting
//    the majority's re-assignments.
//  - *re-homing*: when membership declares a node dead, registered
//    per-module handlers move the physical state (re-replicate ledgers,
//    re-home memory blocks) and the plane re-assigns the dead node's
//    leases, claiming the new owners in the table.
//
// On rejoin (a healed partition), the plane runs rejoin handlers (drop
// stale replicas, re-drive stalled dispatch) and reconciles with its peer
// replica: both tables join, concurrent conflicting claims are counted
// and resolved deterministically. bench_e25 asserts the guarded plane
// reconciles with zero conflicts while a naive (quorum-off) plane does
// not.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/time_types.h"
#include "membership/membership.h"
#include "membership/vclock.h"
#include "obs/observability.h"
#include "sim/simulation.h"

namespace taureau::membership {

/// "No owner" sentinel for lease re-assignment handlers.
inline constexpr NodeId kNoNode = UINT32_MAX;

/// Tag in the top byte of an ownership key, so the domains of different
/// modules never collide in one table.
enum class OwnershipDomain : uint8_t {
  kJiffyNamespace = 1,
  kPubsubPartition = 2,
};

constexpr uint64_t MakeOwnershipKey(OwnershipDomain domain, uint64_t id) {
  return (uint64_t(domain) << 56) | (id & ((uint64_t(1) << 56) - 1));
}

/// key -> Versioned<owner>. All mutation goes through Claim (a stamped
/// write) or Join (the semilattice merge).
class OwnershipTable {
 public:
  void Claim(uint64_t key, NodeId owner, NodeId writer);
  /// Owner of `key`, or kNoNode if unclaimed.
  NodeId OwnerOf(uint64_t key) const;
  size_t size() const { return entries_.size(); }

  /// Concurrent claims of *different* owners for the same key — the
  /// split-brain incidents a guarded control plane must keep at zero.
  size_t CountConflicts(const OwnershipTable& other) const;

  struct JoinResult {
    size_t merged = 0;     ///< Keys copied or joined from `other`.
    size_t conflicts = 0;  ///< Conflicting concurrent claims resolved.
  };
  JoinResult Join(const OwnershipTable& other);

  /// Deterministic "key->owner" listing (sorted by key).
  std::string ToString() const;

  bool operator==(const OwnershipTable&) const = default;

 private:
  std::map<uint64_t, Versioned<NodeId>> entries_;
};

/// Physical repair performed by a module handler; `moved` feeds the
/// rebalance-traffic accounting in bench_e25.
struct RehomeAction {
  uint64_t moved = 0;
  std::string detail;
};

/// How often a control plane renews the leases it holds.
constexpr SimDuration kLeasePeriodUs = 200 * kMillisecond;

struct ControlPlaneConfig {
  /// Cluster node this replica runs on (its membership observer).
  NodeId self = 0;
  /// Refuse ownership changes (and lease renewals) without a majority
  /// alive. Turning this off reproduces split-brain in bench_e25.
  bool require_quorum = true;
};

struct ControlPlaneStats {
  uint64_t renewals = 0;
  uint64_t suppressed_renewals = 0;
  uint64_t rehomes = 0;        ///< Dead-handler invocations that ran.
  uint64_t rehomed_units = 0;  ///< Sum of RehomeAction::moved.
  uint64_t reassigned_leases = 0;
  uint64_t suppressed_no_quorum = 0;  ///< Transitions gated off.
  uint64_t rejoins_handled = 0;
  uint64_t reconciliations = 0;
  /// Split-brain incidents found at reconcile: keys both replicas still
  /// *actively* leased (renewed within two lease periods) to different
  /// owners. A guarded minority steps down (stops renewing) at quorum
  /// loss, so its claims are stale by heal time and this stays zero.
  uint64_t conflicts_resolved = 0;
};

class ControlPlane {
 public:
  using DeadHandler = std::function<RehomeAction(NodeId dead, uint64_t epoch)>;
  using RejoinHandler =
      std::function<RehomeAction(NodeId rejoined, uint64_t epoch)>;
  /// Picks (and physically prepares) a new owner for a lease whose owner
  /// died; kNoNode leaves the lease orphaned until the owner rejoins.
  using ReassignHandler = std::function<NodeId(uint64_t key, NodeId dead)>;

  ControlPlane(sim::Simulation* sim, MembershipService* membership,
               ControlPlaneConfig config);
  ~ControlPlane();

  ControlPlane(const ControlPlane&) = delete;
  ControlPlane& operator=(const ControlPlane&) = delete;

  /// Starts the periodic lease-renewal tick.
  void Start();
  void Stop();

  void OnNodeDead(std::string module, DeadHandler handler);
  void OnNodeRejoin(std::string module, RejoinHandler handler);
  void SetReassign(std::string module, ReassignHandler handler);

  /// Registers (or re-asserts) a lease. Claims the owner in the table.
  void RegisterLease(std::string module, uint64_t key, NodeId owner);
  /// Drops a lease (resource destroyed); its ownership history remains.
  void RemoveLease(uint64_t key) { leases_.erase(key); }
  NodeId LeaseOwner(uint64_t key) const;
  size_t lease_count() const { return leases_.size(); }

  /// One renewal round (also driven by Start()'s ticker). Returns the
  /// number of leases renewed.
  size_t LeaseTick();

  /// Peer replica to reconcile with after rejoin transitions.
  void SetPeer(ControlPlane* peer) { peer_ = peer; }

  /// Joins both replicas' tables (both directions) and re-points both
  /// replicas' leases at the merged owners. Returns the number of
  /// split-brain conflicts: keys both replicas actively leased to
  /// different owners when the reconcile ran.
  size_t ReconcileWith(ControlPlane* other);

  OwnershipTable& ownership() { return ownership_; }
  const OwnershipTable& ownership() const { return ownership_; }

  void AttachObservability(obs::Observability* o);
  const ControlPlaneStats& stats() const;
  NodeId self() const { return config_.self; }
  MembershipService* membership() const { return membership_; }

 private:
  struct LeaseRecord {
    NodeId owner = kNoNode;
    std::string module;
    /// Last renewal (or registration / reassignment) time. A lease not
    /// renewed within two lease periods is *stale*: its replica stepped
    /// down, so it cannot be party to a split-brain conflict.
    SimTime last_renewed_us = 0;
  };

  bool LeaseActive(const LeaseRecord& lease, SimTime now) const {
    return now - lease.last_renewed_us <= 2 * kLeasePeriodUs;
  }

  struct MetricHandles {
    obs::CounterHandle renewals;
    obs::CounterHandle suppressed_renewals;
    obs::CounterHandle rehomes;
    obs::CounterHandle rehomed_units;
    obs::CounterHandle reassigned_leases;
    obs::CounterHandle suppressed_no_quorum;
    obs::CounterHandle rejoins_handled;
    obs::CounterHandle reconciliations;
    obs::CounterHandle conflicts_resolved;
    obs::GaugeHandle epoch;
  };

  void BindMetrics();
  void OnTransition(NodeId observer, NodeId peer, MemberState from,
                    MemberState to, uint64_t epoch);
  void HandleDead(NodeId dead, uint64_t epoch);
  void HandleRejoin(NodeId rejoined, uint64_t epoch);
  /// `attrs` views the caller's strings (temporaries of the call are fine).
  void EmitSpan(const std::string& name, const char* category,
                obs::SpanAttrList attrs);

  sim::Simulation* sim_;
  MembershipService* membership_;
  ControlPlaneConfig config_;
  std::string metric_prefix_;

  OwnershipTable ownership_;
  std::map<uint64_t, LeaseRecord> leases_;
  std::vector<std::pair<std::string, DeadHandler>> dead_handlers_;
  std::vector<std::pair<std::string, RejoinHandler>> rejoin_handlers_;
  std::map<std::string, ReassignHandler> reassign_handlers_;
  ControlPlane* peer_ = nullptr;
  std::unique_ptr<sim::PeriodicProcess> lease_ticker_;

  obs::Registry own_registry_;
  obs::Registry* registry_ = &own_registry_;
  MetricHandles h_;
  obs::Observability* obs_ = nullptr;
  mutable ControlPlaneStats stats_view_;
};

}  // namespace taureau::membership
