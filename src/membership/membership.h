// Cluster membership: who is in the cluster, who is alive, and — after a
// partition heals — one merged answer on every node.
//
// Every node runs the same loop on the sim kernel: each heartbeat period
// it (1) re-evaluates its phi-accrual detector for every peer and updates
// its local view (alive -> suspect -> dead), then (2) sends a heartbeat to
// every peer the ClusterTransport can still reach, piggybacking a snapshot
// of its view (gossip). Views follow the SWIM discipline:
//
//  - each member entry is (incarnation, state); entries join by the
//    lexicographic max on (incarnation, rank) with alive < suspect < dead,
//    so rumors are a semilattice and gossip converges regardless of
//    delivery order;
//  - only a node itself refutes its own death or suspicion, by bumping its
//    incarnation — the one counterexample to "dead wins" that lets a
//    healed partition resurrect both sides without resurrecting actually
//    crashed nodes;
//  - every local view change bumps the observer's *epoch* and ticks its
//    component of the view's vector clock, so metadata writers (the
//    control plane) can stamp their writes with a causal timestamp.
//
// A node has *quorum* when it currently sees a strict majority of the
// cluster alive (itself included). The control plane refuses ownership
// changes without quorum — the split-brain gate E25 measures.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/time_types.h"
#include "membership/detector.h"
#include "membership/transport.h"
#include "membership/vclock.h"
#include "obs/observability.h"
#include "sim/simulation.h"

namespace taureau::membership {

enum class MemberState { kAlive, kSuspect, kDead };

std::string_view MemberStateName(MemberState state);

/// Join order on states: a more-suspicious rumor wins at equal
/// incarnation.
int MemberStateRank(MemberState state);

/// One member entry of a node's view.
struct MemberInfo {
  MemberState state = MemberState::kAlive;
  uint64_t incarnation = 0;
  SimTime since_us = 0;  ///< When the *observer* last changed this entry.

  bool operator==(const MemberInfo&) const = default;
};

/// Every node gossips its view to each peer once per heartbeat period. A
/// heartbeat takes the one-way latency plus seeded uniform jitter in
/// [0, kHeartbeatJitterUs] to arrive.
constexpr SimDuration kHeartbeatPeriodUs = 50 * kMillisecond;
constexpr SimDuration kHeartbeatLatencyUs = 1 * kMillisecond;
constexpr SimDuration kHeartbeatJitterUs = 2 * kMillisecond;

struct MembershipConfig {
  size_t num_nodes = 0;
  uint64_t seed = 25;
};

/// View materialized from the obs::Registry on each `stats()` call.
struct MembershipStats {
  uint64_t heartbeats_sent = 0;
  uint64_t heartbeats_blocked = 0;  ///< Refused by the transport.
  uint64_t suspicions = 0;
  uint64_t deaths = 0;
  uint64_t rejoins = 0;      ///< dead -> alive transitions.
  uint64_t refutations = 0;  ///< Self incarnation bumps.
  uint64_t epoch_transitions = 0;
};

class MembershipService {
 public:
  MembershipService(sim::Simulation* sim, ClusterTransport* transport,
                    MembershipConfig config);
  ~MembershipService();

  MembershipService(const MembershipService&) = delete;
  MembershipService& operator=(const MembershipService&) = delete;

  /// Starts every node's heartbeat/evaluation ticker.
  void Start();
  void Stop();

  size_t node_count() const { return nodes_.size(); }

  // ---- per-observer view ------------------------------------------------
  uint64_t epoch(NodeId observer) const;
  MemberState StateOf(NodeId observer, NodeId peer) const;
  uint64_t IncarnationOf(NodeId observer, NodeId peer) const;
  /// Members the observer currently sees alive (itself included).
  size_t AliveCount(NodeId observer) const;
  /// Strict majority of the whole cluster currently alive.
  bool HasQuorum(NodeId observer) const;

  /// Deterministic "epoch=3 [alive/0 dead/1 ...] clock={..}" rendering —
  /// the determinism assertions byte-compare these.
  std::string ViewToString(NodeId observer) const;

  /// Fires on every state transition in any observer's view, after the
  /// view (and epoch) updated. Registration order = call order.
  using TransitionListener =
      std::function<void(NodeId observer, NodeId peer, MemberState from,
                         MemberState to, uint64_t epoch)>;
  void AddListener(TransitionListener listener);

  /// Re-homes membership metrics onto the shared registry and enables one
  /// zero-length "member:<state>" span per transition (dead = fault
  /// outcome, so every partition shows up in tail-retained traces).
  void AttachObservability(obs::Observability* o);

  const MembershipStats& stats() const;
  const MembershipConfig& config() const { return config_; }
  ClusterTransport* transport() const { return transport_; }
  sim::Simulation* simulation() const { return sim_; }

 private:
  struct GossipMessage {
    NodeId from = 0;
    std::vector<MemberInfo> view;
    VectorClock clock;
  };

  struct NodeState {
    std::vector<MemberInfo> view;  ///< Indexed by peer id.
    std::vector<PhiAccrualDetector> detectors;
    VectorClock clock;
    uint64_t epoch = 0;
    std::unique_ptr<sim::PeriodicProcess> ticker;
  };

  /// Cached registry handles; rebound by AttachObservability.
  struct MetricHandles {
    obs::CounterHandle heartbeats_sent;
    obs::CounterHandle heartbeats_blocked;
    obs::CounterHandle suspicions;
    obs::CounterHandle deaths;
    obs::CounterHandle rejoins;
    obs::CounterHandle refutations;
    obs::CounterHandle epoch_transitions;
    obs::GaugeHandle max_epoch;
  };

  void BindMetrics();
  bool Tick(NodeId node);
  void EvaluatePeers(NodeId node);
  void SendHeartbeats(NodeId node);
  void ReceiveHeartbeat(NodeId to, GossipMessage msg);
  /// Applies one (state, incarnation) update; bumps epoch, ticks the
  /// clock, fires listeners and emits the transition span on change.
  void SetMember(NodeId observer, NodeId peer, MemberState state,
                 uint64_t incarnation);

  sim::Simulation* sim_;
  ClusterTransport* transport_;
  MembershipConfig config_;
  Rng rng_;
  std::vector<NodeState> nodes_;
  std::vector<TransitionListener> listeners_;
  bool running_ = false;

  obs::Registry own_registry_;
  obs::Registry* registry_ = &own_registry_;
  MetricHandles h_;
  obs::Observability* obs_ = nullptr;
  mutable MembershipStats stats_view_;
};

}  // namespace taureau::membership
