// Pulsar-like messaging cluster (paper §4.3, Figure 1).
//
// "A Pulsar cluster is composed of a set of brokers and bookies... The
// broker is a stateless component tasked with receiving and dispatching
// messages while using bookies as durable storage for messages until they
// are consumed." Brokers here are exactly that: stateless dispatchers whose
// partitions can move to another broker on crash, with all durable state in
// the BookKeeper ledgers; subscriptions provide the unified queuing
// (shared) and pub-sub (exclusive/failover) messaging models.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "chaos/injector.h"
#include "common/stats.h"
#include "guard/admission.h"
#include "guard/deadline.h"
#include "guard/guard.h"
#include "membership/control_plane.h"
#include "membership/transport.h"
#include "obs/observability.h"
#include "pubsub/bookkeeper.h"
#include "pubsub/message.h"
#include "sim/simulation.h"

namespace taureau::pubsub {

using BrokerId = uint32_t;
using ConsumerId = uint64_t;

/// Pulsar's three subscription modes.
enum class SubscriptionType {
  kExclusive,  ///< Single consumer; pub-sub semantics.
  kFailover,   ///< Single *active* consumer with hot standbys.
  kShared,     ///< Round-robin across consumers; queue semantics.
};

struct TopicConfig {
  /// Owning tenant (account). Threaded onto every publish span
  /// (obs::kTenantAttr) and the tenant-labeled publish counter
  /// ("pubsub.published{tenant=...}"); empty means untagged.
  std::string tenant{};
  uint32_t partitions = 1;
  uint32_t ensemble_size = 3;
  uint32_t write_quorum = 2;
  uint32_t ack_quorum = 2;
};

/// Per-byte part of the broker's publish-path service time.
constexpr double kBrokerProcUsPerByte = 0.002;
/// Broker -> consumer dispatch latency.
constexpr SimDuration kDispatchLatencyUs = 300;

struct PulsarConfig {
  size_t num_brokers = 3;
  size_t num_bookies = 6;
  /// Broker publish-path service time (per message, plus
  /// kBrokerProcUsPerByte per payload byte).
  SimDuration broker_proc_base_us = 20;
  uint64_t seed = 41;
  /// Overload protection on the publish path (taureau::guard): sheds a
  /// publish on arrival when the owning broker's backlog exceeds
  /// `admission.max_wait_us`, or when the caller's deadline cannot be met
  /// by the expected wait + durable-append time.
  bool enable_admission = false;
  guard::AdmissionConfig admission{};
};

/// View materialized from the obs::Registry on each `metrics()` call; the
/// registry (the cluster's own, or a shared one via AttachObservability) is
/// the canonical store. `last_ack_time_us` stays native (it is a timestamp,
/// not a metric).
struct PulsarMetrics {
  uint64_t published = 0;
  uint64_t delivered = 0;
  uint64_t redelivered = 0;
  uint64_t acked = 0;
  uint64_t dropped = 0;     ///< Chaos: publishes lost to injected drops.
  uint64_t duplicated = 0;  ///< Chaos: publishes duplicated (at-least-once).
  uint64_t shed = 0;        ///< Guard: publishes rejected on arrival.
  Histogram publish_latency_us{double(kMinute)};   ///< Submit -> durable ack.
  Histogram delivery_latency_us{double(kMinute)};  ///< Submit -> consumer.
  SimTime last_ack_time_us = 0;  ///< For throughput computations.
};

using ConsumerCallback = std::function<void(const Message&)>;

/// Placement of pubsub components on cluster nodes, for membership-driven
/// operation (E25).
struct PulsarNodeMap {
  std::vector<membership::NodeId> broker_node;  ///< Per broker id.
  std::vector<membership::NodeId> bookie_node;  ///< Per bookie id.
  /// Node producers/consumers talk from; publishes must reach the owning
  /// broker from here.
  membership::NodeId client_node = 0;
};

/// The cluster facade: topic management, producers, consumers, functions
/// workers all talk to this.
class PulsarCluster {
 public:
  PulsarCluster(sim::Simulation* sim, PulsarConfig config);

  /// Creates a partitioned topic; each partition gets its own ledger and a
  /// round-robin broker owner.
  Status CreateTopic(const std::string& topic, TopicConfig config);

  bool HasTopic(const std::string& topic) const;

  /// Publishes a message. Routing: hash of `key` when non-empty, else
  /// round-robin. The message becomes visible to subscriptions once its
  /// ledger append reaches the ack quorum (simulated time).
  ///
  /// With observability attached, each accepted publish emits a
  /// "publish:<topic>" span covering submit -> durable ack (optionally
  /// parented under `parent`), and every delivery emits an async child
  /// "deliver" span covering dispatch -> consumer callback.
  /// `deadline` (optional) enables deadline-aware shedding: with admission
  /// enabled, a publish whose deadline cannot be met by the broker's
  /// expected wait + append time is rejected on arrival
  /// (DeadlineExceeded) instead of queueing doomed work.
  Result<MessageId> Publish(const std::string& topic, std::string key,
                            std::string payload,
                            obs::TraceContext parent = {},
                            guard::Deadline deadline = {});

  /// Attaches a consumer to a (topic, subscription). The subscription is
  /// created on first use with the given type; later consumers must match.
  /// The callback fires in simulated time for each delivered message.
  Result<ConsumerId> Subscribe(const std::string& topic,
                               const std::string& subscription,
                               SubscriptionType type, ConsumerCallback cb);

  /// Acknowledges a message for the consumer's subscription.
  Status Ack(ConsumerId consumer, const MessageId& id);

  /// Detaches a consumer; unacked messages are redelivered to survivors
  /// (at-least-once semantics).
  Status Disconnect(ConsumerId consumer);

  /// Retention (§4.3 "durable storage for messages until they are
  /// consumed"): trims each partition's ledger up to the slowest
  /// subscription's fully-acknowledged floor. Returns the number of
  /// entries reclaimed. Topics without subscriptions retain everything.
  Result<uint64_t> TrimConsumedBacklog(const std::string& topic);

  /// Crashes a broker: its partitions move to a live broker and unacked
  /// in-flight messages are redelivered from the ledgers.
  Status CrashBroker(BrokerId id);
  Status RecoverBroker(BrokerId id);

  /// Snapshot of the cluster metrics, materialized from the registry.
  const PulsarMetrics& metrics() const;
  BookKeeper& bookkeeper() { return bookkeeper_; }
  size_t broker_count() const { return brokers_.size(); }

  /// Number of partitions currently owned by each broker (load map).
  std::vector<size_t> BrokerLoad() const;

  // ----------------------------------------------------------- obs
  /// Re-homes the cluster's metrics onto `o->registry` (folding in values
  /// recorded so far) and enables publish/deliver span emission.
  void AttachObservability(obs::Observability* o);

  // ------------------------------------------------------------- chaos
  /// Registers bookie crash/recover and message drop/duplicate hooks under
  /// the "pubsub" module. A crashed bookie's ledgers are healed and
  /// re-replicated immediately (recorded as the recovery).
  void AttachChaos(chaos::InjectorRegistry* registry);

  /// Arms one injected fault against the next Publish call.
  void ArmMessageDrop() { ++armed_drops_; }
  void ArmMessageDuplicate() { ++armed_duplicates_; }

  // ------------------------------------------------------------- guard
  /// Wires shed decisions into the guard's metrics and span stream.
  void AttachGuard(guard::Guard* g) { guard_ = g; }
  const guard::AdmissionController& admission() const { return admission_; }

  // -------------------------------------------------------- membership
  /// Drives the cluster from membership instead of the harness: publishes
  /// only reach brokers/bookies the transport says are reachable from the
  /// client's node, partition ownership becomes control-plane leases, and
  /// dead/rejoin transitions trigger ledger re-replication away from
  /// partitioned bookies (data preserved) and stale-replica cleanup after
  /// heal. May be called once per control-plane replica; only a replica
  /// attached with `actuate` moves physical state — a metadata-only
  /// replica claims ownership without touching brokers or bookies (how
  /// bench_e25 reproduces split-brain with quorum gating off).
  void AttachMembership(membership::ClusterTransport* transport,
                        membership::ControlPlane* cp, PulsarNodeMap map,
                        bool actuate = true);

  /// Re-drives dispatch stalled on unreachable replicas (called by the
  /// control plane after repair/heal; harmless any time). Returns the
  /// number of (subscription, partition) streams advanced.
  size_t RedrivePending();

 private:
  struct Broker {
    BrokerId id;
    bool alive = true;
    SimTime next_free_us = 0;  ///< Serial service device.
  };

  struct Partition {
    uint32_t index = 0;
    LedgerId ledger = 0;
    BrokerId owner = 0;
    /// Entries below this id are durable and dispatchable.
    uint64_t durable_upto = 0;
    /// Entries below this id were reclaimed by retention trimming.
    uint64_t trimmed_below = 0;
  };

  struct Subscription {
    std::string name;
    SubscriptionType type = SubscriptionType::kExclusive;
    std::vector<ConsumerId> consumers;
    uint64_t rr_next = 0;  ///< Shared-mode round-robin cursor.
    /// Per-partition next entry to dispatch.
    std::vector<uint64_t> cursor;
    /// In-flight (delivered, unacked) messages.
    std::map<MessageId, bool> unacked;
  };

  struct Topic {
    std::string name;
    TopicConfig config;
    std::vector<Partition> partitions;
    std::map<std::string, Subscription> subscriptions;
    uint64_t publish_rr = 0;
    /// Pre-resolved "pubsub.published{tenant=...}" (invalid when untagged).
    obs::CounterHandle tenant_published;
  };

  struct ConsumerInfo {
    std::string topic;
    std::string subscription;
    ConsumerCallback cb;
    bool connected = true;
  };

  /// Serializes key+payload into a ledger entry and back.
  static std::string EncodeEntry(const std::string& key,
                                 const std::string& payload);
  static void DecodeEntry(const std::string& entry, std::string* key,
                          std::string* payload);

  /// Dispatches all ready entries of a partition to a subscription.
  void DispatchFrom(Topic* topic, Subscription* sub, uint32_t partition,
                    SimTime not_before);

  /// Picks the receiving consumer for the subscription (type-dependent);
  /// returns nullptr when no consumer is connected.
  ConsumerInfo* PickConsumer(Subscription* sub);

  void Redeliver(Topic* topic, Subscription* sub);

  /// Cached registry handles (see obs::Registry); rebound by BindMetrics().
  struct MetricHandles {
    obs::CounterHandle published;
    obs::CounterHandle delivered;
    obs::CounterHandle redelivered;
    obs::CounterHandle acked;
    obs::CounterHandle dropped;
    obs::CounterHandle duplicated;
    obs::CounterHandle shed;
    obs::HistogramHandle publish_latency_us;
    obs::HistogramHandle delivery_latency_us;
  };
  void BindMetrics();
  /// Emits one async "deliver" span under the message's publish span.
  void EmitDeliverSpan(const MessageId& id, SimTime start_us,
                       SimTime deliver_at, const std::string& subscription,
                       bool redelivery);

  sim::Simulation* sim_;
  PulsarConfig config_;
  BookKeeper bookkeeper_;
  Rng rng_;
  std::vector<Broker> brokers_;
  std::map<std::string, Topic> topics_;
  std::unordered_map<ConsumerId, ConsumerInfo> consumers_;
  /// Publish timestamps for end-to-end latency accounting.
  std::map<MessageId, SimTime> publish_times_;
  /// Publish spans, so deliveries can parent-link to their cause.
  std::map<MessageId, obs::TraceContext> publish_spans_;
  ConsumerId next_consumer_ = 1;
  obs::Registry own_registry_;
  obs::Registry* registry_ = &own_registry_;
  MetricHandles h_;
  obs::Observability* obs_ = nullptr;
  SimTime last_ack_time_us_ = 0;
  mutable PulsarMetrics metrics_view_;
  uint32_t armed_drops_ = 0;       ///< Pending injected publish drops.
  uint32_t armed_duplicates_ = 0;  ///< Pending injected publish duplicates.
  guard::AdmissionController admission_;
  guard::Guard* guard_ = nullptr;

  // ---- membership wiring (E25) ----
  /// True when the broker is up AND reachable from the client's node.
  bool BrokerUsable(BrokerId id) const;
  void RegisterPartitionLeases(membership::ControlPlane* cp, Topic* t);
  membership::NodeId ReassignPartition(membership::ControlPlane* cp,
                                       bool actuate, uint64_t key,
                                       membership::NodeId dead);
  membership::RehomeAction HandleNodeDead(membership::ControlPlane* cp,
                                          bool actuate,
                                          membership::NodeId dead);
  membership::RehomeAction HandleNodeRejoin(membership::ControlPlane* cp,
                                            bool actuate,
                                            membership::NodeId rejoined);

  membership::ClusterTransport* transport_ = nullptr;
  PulsarNodeMap node_map_;
  /// Node the current bookie write/read originates from (the appending
  /// broker during Publish, the control plane during repair); consulted by
  /// the BookKeeper usability gate.
  membership::NodeId origin_node_ = 0;
  /// Control-plane replicas attached via AttachMembership.
  std::vector<std::pair<membership::ControlPlane*, bool>> planes_;
  /// Ownership-table key -> (topic, partition index).
  std::map<uint64_t, std::pair<std::string, uint32_t>> partition_keys_;
};

std::string_view SubscriptionTypeName(SubscriptionType type);

}  // namespace taureau::pubsub
