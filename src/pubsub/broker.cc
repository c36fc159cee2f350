#include "pubsub/broker.h"

#include <algorithm>
#include <cstring>

#include "common/hash.h"

namespace taureau::pubsub {

std::string_view SubscriptionTypeName(SubscriptionType type) {
  switch (type) {
    case SubscriptionType::kExclusive:
      return "exclusive";
    case SubscriptionType::kFailover:
      return "failover";
    case SubscriptionType::kShared:
      return "shared";
  }
  return "unknown";
}

PulsarCluster::PulsarCluster(sim::Simulation* sim, PulsarConfig config)
    : sim_(sim),
      config_(config),
      bookkeeper_(config.num_bookies, config.seed ^ 0xB00C),
      rng_(config.seed),
      admission_(config.admission) {
  brokers_.reserve(config_.num_brokers);
  for (size_t i = 0; i < config_.num_brokers; ++i) {
    brokers_.push_back(Broker{static_cast<BrokerId>(i), true, 0});
  }
  BindMetrics();
}

void PulsarCluster::BindMetrics() {
  h_.published = registry_->ResolveCounter("pubsub.published");
  h_.delivered = registry_->ResolveCounter("pubsub.delivered");
  h_.redelivered = registry_->ResolveCounter("pubsub.redelivered");
  h_.acked = registry_->ResolveCounter("pubsub.acked");
  h_.dropped = registry_->ResolveCounter("pubsub.dropped");
  h_.duplicated = registry_->ResolveCounter("pubsub.duplicated");
  h_.shed = registry_->ResolveCounter("pubsub.shed");
  h_.publish_latency_us =
      registry_->ResolveHistogram("pubsub.publish_latency_us", double(kMinute));
  h_.delivery_latency_us =
      registry_->ResolveHistogram("pubsub.delivery_latency_us", double(kMinute));
  // Re-resolve per-topic tenant series into the (possibly re-homed) registry.
  for (auto& [name, t] : topics_) {
    if (t.config.tenant.empty()) continue;
    t.tenant_published = registry_->ResolveCounter(
        "pubsub.published", obs::LabelSet{.tenant = t.config.tenant});
  }
}

void PulsarCluster::AttachObservability(obs::Observability* o) {
  if (o == nullptr || registry_ == &o->registry) return;
  o->registry.MergeFrom(*registry_);
  if (registry_ == &own_registry_) own_registry_.Reset();
  registry_ = &o->registry;
  obs_ = o;
  BindMetrics();
}

const PulsarMetrics& PulsarCluster::metrics() const {
  PulsarMetrics& m = metrics_view_;
  m.published = h_.published.value();
  m.delivered = h_.delivered.value();
  m.redelivered = h_.redelivered.value();
  m.acked = h_.acked.value();
  m.dropped = h_.dropped.value();
  m.duplicated = h_.duplicated.value();
  m.shed = h_.shed.value();
  m.publish_latency_us.Reset();
  m.publish_latency_us.Merge(*h_.publish_latency_us.raw());
  m.delivery_latency_us.Reset();
  m.delivery_latency_us.Merge(*h_.delivery_latency_us.raw());
  m.last_ack_time_us = last_ack_time_us_;
  return m;
}

void PulsarCluster::EmitDeliverSpan(const MessageId& id, SimTime start_us,
                                    SimTime deliver_at,
                                    const std::string& subscription,
                                    bool redelivery) {
  if (obs_ == nullptr) return;
  auto it = publish_spans_.find(id);
  const obs::TraceContext parent =
      it != publish_spans_.end() ? it->second : obs::TraceContext{};
  obs::SpanAttrList attrs = {
      {obs::kCategoryAttr, "queue"},
      {obs::kAsyncAttr, "1"},
      {"sub", subscription}};
  // A redelivery means the first delivery was lost/unacked — masked
  // trouble the tail sampler should see even on the async follow-up.
  if (redelivery) {
    attrs.Add("redelivery", "1");
    attrs.Add(obs::kSeverityAttr, "warn");
  }
  obs_->tracer.EmitSpan("deliver", "pubsub", parent, start_us, deliver_at,
                        attrs);
}

Status PulsarCluster::CreateTopic(const std::string& topic,
                                  TopicConfig config) {
  if (topics_.count(topic)) {
    return Status::AlreadyExists("topic '" + topic + "'");
  }
  if (config.partitions == 0) {
    return Status::InvalidArgument("topic needs >= 1 partition");
  }
  Topic t;
  t.name = topic;
  t.config = config;
  if (!t.config.tenant.empty()) {
    t.tenant_published = registry_->ResolveCounter(
        "pubsub.published", obs::LabelSet{.tenant = t.config.tenant});
  }
  t.partitions.reserve(config.partitions);
  for (uint32_t p = 0; p < config.partitions; ++p) {
    TAU_ASSIGN_OR_RETURN(
        LedgerId ledger,
        bookkeeper_.CreateLedger(config.ensemble_size, config.write_quorum,
                                 config.ack_quorum));
    Partition part;
    part.index = p;
    part.ledger = ledger;
    part.owner = static_cast<BrokerId>((topics_.size() + p) % brokers_.size());
    t.partitions.push_back(part);
  }
  auto [it, _] = topics_.emplace(topic, std::move(t));
  for (auto& [cp, actuate] : planes_) {
    RegisterPartitionLeases(cp, &it->second);
  }
  return Status::OK();
}

bool PulsarCluster::HasTopic(const std::string& topic) const {
  return topics_.count(topic) > 0;
}

std::string PulsarCluster::EncodeEntry(const std::string& key,
                                       const std::string& payload) {
  std::string out;
  out.resize(4 + key.size() + payload.size());
  const uint32_t klen = static_cast<uint32_t>(key.size());
  std::memcpy(out.data(), &klen, 4);
  std::memcpy(out.data() + 4, key.data(), key.size());
  std::memcpy(out.data() + 4 + key.size(), payload.data(), payload.size());
  return out;
}

void PulsarCluster::DecodeEntry(const std::string& entry, std::string* key,
                                std::string* payload) {
  uint32_t klen = 0;
  std::memcpy(&klen, entry.data(), 4);
  key->assign(entry.data() + 4, klen);
  payload->assign(entry.data() + 4 + klen, entry.size() - 4 - klen);
}

Result<MessageId> PulsarCluster::Publish(const std::string& topic,
                                         std::string key, std::string payload,
                                         obs::TraceContext parent,
                                         guard::Deadline deadline) {
  auto tit = topics_.find(topic);
  if (tit == topics_.end()) {
    return Status::NotFound("topic '" + topic + "'");
  }
  Topic& t = tit->second;
  if (armed_drops_ > 0) {
    --armed_drops_;
    h_.dropped.Inc();
    return Status::Unavailable("message dropped (injected network fault)");
  }
  const bool duplicate = armed_duplicates_ > 0;
  if (duplicate) {
    --armed_duplicates_;
    h_.duplicated.Inc();
  }
  const uint32_t pidx =
      key.empty()
          ? static_cast<uint32_t>(t.publish_rr++ % t.partitions.size())
          : static_cast<uint32_t>(Fnv1a64(key) % t.partitions.size());
  Partition& part = t.partitions[pidx];

  // Lazy broker failover: a crashed (or unreachable, with membership
  // attached) owner hands the partition to the next usable broker (the
  // "stateless broker" property — no data moves).
  if (!BrokerUsable(part.owner)) {
    bool moved = false;
    for (const Broker& b : brokers_) {
      if (BrokerUsable(b.id)) {
        part.owner = b.id;
        moved = true;
        break;
      }
    }
    if (!moved) return Status::Unavailable("no reachable live broker");
  }

  // Broker is a serial service device: queue + per-message processing.
  Broker& broker = brokers_[part.owner];
  const SimTime now = sim_->Now();

  // Admission control (taureau::guard): the broker's next-free time IS the
  // expected wait, so reject-on-arrival decisions are exact — a publish
  // that cannot reach durability inside its deadline, or that would push
  // the backlog past the configured bound, is shed before it consumes
  // broker or bookie capacity.
  if (config_.enable_admission) {
    const SimDuration wait =
        broker.next_free_us > now ? broker.next_free_us - now : 0;
    const auto decision = admission_.AdmitWithWait(wait, deadline, now);
    if (decision != guard::AdmissionDecision::kAdmit) {
      h_.shed.Inc();
      if (guard_ != nullptr) {
        guard_->RecordShed("pubsub", decision, parent, now, t.config.tenant);
      }
      if (decision == guard::AdmissionDecision::kShedDeadline) {
        return Status::DeadlineExceeded(
            "publish shed: deadline cannot be met by broker backlog");
      }
      return Status::ResourceExhausted("publish shed: broker backlog full");
    }
  }

  const SimDuration proc =
      config_.broker_proc_base_us +
      static_cast<SimDuration>(kBrokerProcUsPerByte * double(payload.size()));
  const SimTime start = std::max(now, broker.next_free_us);
  broker.next_free_us = start + proc;

  // The append originates at the owning broker's node: the usability gate
  // must see bookie reachability from there, not from the client.
  if (transport_ != nullptr && part.owner < node_map_.broker_node.size()) {
    origin_node_ = node_map_.broker_node[part.owner];
  }
  auto appended = bookkeeper_.Append(part.ledger, EncodeEntry(key, payload),
                                     broker.next_free_us);
  origin_node_ = node_map_.client_node;
  TAU_RETURN_IF_ERROR(appended.status());

  const MessageId id{pidx, part.ledger, appended->entry_id};
  const SimTime ack_time = appended->ack_time_us;
  // Feed the guard's service estimate: processing + durable-append time,
  // excluding queueing (the wait is measured separately at admission).
  admission_.RecordService(ack_time - start);
  h_.published.Inc();
  t.tenant_published.Inc();  // no-op when the topic is untagged
  h_.publish_latency_us.Add(double(ack_time - now));
  last_ack_time_us_ = std::max(last_ack_time_us_, ack_time);
  if (obs_ != nullptr) {
    const std::string partition = std::to_string(pidx);
    obs::SpanAttrList attrs = {{"partition", partition},
                               {obs::kOutcomeAttr, obs::kOutcomeOk},
                               {obs::kSeverityAttr, "info"}};
    if (!t.config.tenant.empty()) {
      attrs.Add(obs::kTenantAttr, t.config.tenant);
    }
    publish_spans_[id] = obs_->tracer.EmitSpan(
        "publish:" + topic, "pubsub", parent, now, ack_time, attrs);
  }

  // Once durable, the entry becomes dispatchable to every subscription.
  const std::string topic_name = topic;
  const uint64_t entry = appended->entry_id;
  const SimTime publish_time = now;
  sim_->ScheduleAt(ack_time, [this, topic_name, pidx, entry, publish_time] {
    auto it = topics_.find(topic_name);
    if (it == topics_.end()) return;
    Topic& tt = it->second;
    Partition& pp = tt.partitions[pidx];
    pp.durable_upto = std::max(pp.durable_upto, entry + 1);
    publish_times_[{pidx, pp.ledger, entry}] = publish_time;
    for (auto& [name, sub] : tt.subscriptions) {
      DispatchFrom(&tt, &sub, pidx, sim_->Now());
    }
  });
  if (duplicate) {
    // At-least-once duplication: the same message is appended and
    // dispatched a second time (consumers see it twice).
    Publish(topic, key, payload, parent, deadline);
  }
  return id;
}

void PulsarCluster::AttachChaos(chaos::InjectorRegistry* registry) {
  using chaos::FaultKind;
  registry->RegisterHook(
      "pubsub", FaultKind::kBookieCrash,
      [this, registry](const chaos::FaultEvent& e) {
        const BookieId id =
            static_cast<BookieId>(e.target % bookkeeper_.bookie_count());
        auto copied = bookkeeper_.CrashBookie(id, sim_->Now());
        if (copied.ok()) {
          registry->RecordRecovery(
              "pubsub", FaultKind::kBookieCrash, id,
              "re-replicated " + std::to_string(*copied) +
                  " entry replicas; write quorum restored");
        }
      });
  registry->RegisterHook(
      "pubsub", FaultKind::kBookieRecover, [this](const chaos::FaultEvent& e) {
        bookkeeper_.RecoverBookie(
            static_cast<BookieId>(e.target % bookkeeper_.bookie_count()));
      });
  registry->RegisterHook(
      "pubsub", FaultKind::kMessageDrop,
      [this](const chaos::FaultEvent&) { ArmMessageDrop(); });
  registry->RegisterHook(
      "pubsub", FaultKind::kMessageDuplicate,
      [this](const chaos::FaultEvent&) { ArmMessageDuplicate(); });
}

PulsarCluster::ConsumerInfo* PulsarCluster::PickConsumer(Subscription* sub) {
  // Prune disconnected consumers.
  auto& list = sub->consumers;
  list.erase(std::remove_if(list.begin(), list.end(),
                            [this](ConsumerId id) {
                              auto it = consumers_.find(id);
                              return it == consumers_.end() ||
                                     !it->second.connected;
                            }),
             list.end());
  if (list.empty()) return nullptr;
  switch (sub->type) {
    case SubscriptionType::kExclusive:
    case SubscriptionType::kFailover:
      return &consumers_.at(list.front());
    case SubscriptionType::kShared: {
      const ConsumerId id = list[sub->rr_next++ % list.size()];
      return &consumers_.at(id);
    }
  }
  return nullptr;
}

void PulsarCluster::DispatchFrom(Topic* topic, Subscription* sub,
                                 uint32_t partition, SimTime not_before) {
  Partition& part = topic->partitions[partition];
  while (sub->cursor[partition] < part.durable_upto) {
    const uint64_t entry = sub->cursor[partition];
    ConsumerInfo* consumer = PickConsumer(sub);
    const MessageId id{partition, part.ledger, entry};
    if (consumer == nullptr) {
      ++sub->cursor[partition];
      sub->unacked.emplace(id, true);  // redelivered when one connects
      continue;
    }
    auto raw = bookkeeper_.Read(part.ledger, entry);
    if (!raw.ok()) {
      // Unavailable means every replica is temporarily unreachable (a
      // partition, not data loss): hold the cursor so the acked entry is
      // dispatched after repair/heal instead of silently skipped.
      // Anything else (trimmed, deleted) is permanent: skip it.
      if (raw.status().IsUnavailable()) break;
      ++sub->cursor[partition];
      sub->unacked.emplace(id, true);
      continue;
    }
    ++sub->cursor[partition];
    sub->unacked.emplace(id, true);
    Message msg;
    msg.id = id;
    DecodeEntry(*raw, &msg.key, &msg.payload);
    auto pt = publish_times_.find(id);
    msg.publish_time_us = pt != publish_times_.end() ? pt->second : not_before;
    const SimTime dispatch_us = std::max(not_before, sim_->Now());
    const SimTime deliver_at = dispatch_us + kDispatchLatencyUs;
    msg.deliver_time_us = deliver_at;
    EmitDeliverSpan(id, dispatch_us, deliver_at, sub->name,
                    /*redelivery=*/false);
    auto cb = consumer->cb;
    sim_->ScheduleAt(deliver_at, [this, cb, msg] {
      h_.delivered.Inc();
      h_.delivery_latency_us.Add(
          double(msg.deliver_time_us - msg.publish_time_us));
      cb(msg);
    });
  }
}

Result<ConsumerId> PulsarCluster::Subscribe(const std::string& topic,
                                            const std::string& subscription,
                                            SubscriptionType type,
                                            ConsumerCallback cb) {
  auto tit = topics_.find(topic);
  if (tit == topics_.end()) {
    return Status::NotFound("topic '" + topic + "'");
  }
  Topic& t = tit->second;
  auto [sit, created] = t.subscriptions.try_emplace(subscription);
  Subscription& sub = sit->second;
  if (created) {
    sub.name = subscription;
    sub.type = type;
    // New subscriptions start from the earliest retained message, so
    // analytics consumers see the full stream.
    sub.cursor.assign(t.partitions.size(), 0);
  } else if (sub.type != type) {
    return Status::FailedPrecondition(
        "subscription '" + subscription + "' is " +
        std::string(SubscriptionTypeName(sub.type)));
  }
  if (sub.type == SubscriptionType::kExclusive && !sub.consumers.empty()) {
    return Status::FailedPrecondition(
        "exclusive subscription '" + subscription + "' already has a consumer");
  }
  const ConsumerId id = next_consumer_++;
  consumers_[id] = ConsumerInfo{topic, subscription, std::move(cb), true};
  sub.consumers.push_back(id);

  if (created) {
    for (uint32_t p = 0; p < t.partitions.size(); ++p) {
      DispatchFrom(&t, &sub, p, sim_->Now());
    }
  } else {
    Redeliver(&t, &sub);
  }
  return id;
}

Status PulsarCluster::Ack(ConsumerId consumer, const MessageId& id) {
  auto cit = consumers_.find(consumer);
  if (cit == consumers_.end()) {
    return Status::NotFound("consumer " + std::to_string(consumer));
  }
  Topic& t = topics_.at(cit->second.topic);
  Subscription& sub = t.subscriptions.at(cit->second.subscription);
  auto uit = sub.unacked.find(id);
  if (uit == sub.unacked.end()) {
    return Status::NotFound("message not pending on subscription");
  }
  sub.unacked.erase(uit);
  h_.acked.Inc();
  return Status::OK();
}

void PulsarCluster::Redeliver(Topic* /*topic*/, Subscription* sub) {
  for (const auto& [id, _] : sub->unacked) {
    ConsumerInfo* consumer = PickConsumer(sub);
    if (consumer == nullptr) return;
    auto raw = bookkeeper_.Read(id.ledger_id, id.entry_id);
    if (!raw.ok()) continue;
    Message msg;
    msg.id = id;
    DecodeEntry(*raw, &msg.key, &msg.payload);
    auto pt = publish_times_.find(id);
    msg.publish_time_us = pt != publish_times_.end() ? pt->second : 0;
    const SimTime deliver_at = sim_->Now() + kDispatchLatencyUs;
    msg.deliver_time_us = deliver_at;
    EmitDeliverSpan(id, sim_->Now(), deliver_at, sub->name,
                    /*redelivery=*/true);
    auto cb = consumer->cb;
    sim_->ScheduleAt(deliver_at, [this, cb, msg] {
      h_.delivered.Inc();
      h_.redelivered.Inc();
      cb(msg);
    });
  }
}

Status PulsarCluster::Disconnect(ConsumerId consumer) {
  auto cit = consumers_.find(consumer);
  if (cit == consumers_.end() || !cit->second.connected) {
    return Status::NotFound("consumer " + std::to_string(consumer));
  }
  cit->second.connected = false;
  Topic& t = topics_.at(cit->second.topic);
  Subscription& sub = t.subscriptions.at(cit->second.subscription);
  auto& list = sub.consumers;
  list.erase(std::remove(list.begin(), list.end(), consumer), list.end());
  if (!list.empty()) {
    Redeliver(&t, &sub);
  }
  return Status::OK();
}

Result<uint64_t> PulsarCluster::TrimConsumedBacklog(const std::string& topic) {
  auto tit = topics_.find(topic);
  if (tit == topics_.end()) {
    return Status::NotFound("topic '" + topic + "'");
  }
  Topic& t = tit->second;
  if (t.subscriptions.empty()) return uint64_t{0};  // retain everything
  uint64_t trimmed = 0;
  for (uint32_t p = 0; p < t.partitions.size(); ++p) {
    Partition& part = t.partitions[p];
    // The retention floor is the slowest subscription's fully-acked
    // position: min over subs of min(cursor, lowest unacked entry).
    uint64_t floor = UINT64_MAX;
    for (const auto& [name, sub] : t.subscriptions) {
      uint64_t sub_floor = sub.cursor[p];
      for (const auto& [id, _] : sub.unacked) {
        if (id.partition == p) {
          sub_floor = std::min(sub_floor, id.entry_id);
          break;  // unacked is ordered; the first hit is the lowest
        }
      }
      floor = std::min(floor, sub_floor);
    }
    if (floor == UINT64_MAX || floor <= part.trimmed_below) continue;
    TAU_RETURN_IF_ERROR(bookkeeper_.TrimLedger(part.ledger, floor));
    trimmed += floor - part.trimmed_below;
    part.trimmed_below = floor;
    // Drop the latency/span bookkeeping for reclaimed entries.
    for (uint64_t e = 0; e < floor; ++e) {
      publish_times_.erase(MessageId{p, part.ledger, e});
      publish_spans_.erase(MessageId{p, part.ledger, e});
    }
  }
  return trimmed;
}

Status PulsarCluster::CrashBroker(BrokerId id) {
  if (id >= brokers_.size()) return Status::NotFound("broker");
  brokers_[id].alive = false;
  // Move owned partitions to live brokers and redeliver in-flight messages
  // (durable state lives in the bookies, so nothing is lost).
  size_t next_live = 0;
  std::vector<BrokerId> live;
  for (const Broker& b : brokers_) {
    if (b.alive) live.push_back(b.id);
  }
  for (auto& [name, t] : topics_) {
    bool touched = false;
    for (Partition& p : t.partitions) {
      if (p.owner == id) {
        if (live.empty()) return Status::Unavailable("no live broker left");
        p.owner = live[next_live++ % live.size()];
        touched = true;
      }
    }
    if (touched) {
      for (auto& [sname, sub] : t.subscriptions) {
        Redeliver(&t, &sub);
      }
    }
  }
  return Status::OK();
}

Status PulsarCluster::RecoverBroker(BrokerId id) {
  if (id >= brokers_.size()) return Status::NotFound("broker");
  brokers_[id].alive = true;
  brokers_[id].next_free_us = sim_->Now();
  return Status::OK();
}

bool PulsarCluster::BrokerUsable(BrokerId id) const {
  const Broker& b = brokers_[id];
  if (!b.alive) return false;
  if (transport_ == nullptr || id >= node_map_.broker_node.size()) return true;
  return transport_->Reachable(node_map_.client_node,
                               node_map_.broker_node[id]);
}

void PulsarCluster::AttachMembership(membership::ClusterTransport* transport,
                                     membership::ControlPlane* cp,
                                     PulsarNodeMap map, bool actuate) {
  transport_ = transport;
  node_map_ = std::move(map);
  origin_node_ = node_map_.client_node;
  bookkeeper_.SetUsable([this](BookieId b) {
    if (transport_ == nullptr || b >= node_map_.bookie_node.size()) return true;
    return transport_->Reachable(origin_node_, node_map_.bookie_node[b]);
  });
  planes_.emplace_back(cp, actuate);
  for (auto& [name, t] : topics_) RegisterPartitionLeases(cp, &t);
  cp->SetReassign("pubsub",
                  [this, cp, actuate](uint64_t key, membership::NodeId dead) {
                    return ReassignPartition(cp, actuate, key, dead);
                  });
  cp->OnNodeDead("pubsub",
                 [this, cp, actuate](membership::NodeId dead, uint64_t) {
                   return HandleNodeDead(cp, actuate, dead);
                 });
  cp->OnNodeRejoin("pubsub",
                   [this, cp, actuate](membership::NodeId node, uint64_t) {
                     return HandleNodeRejoin(cp, actuate, node);
                   });
}

void PulsarCluster::RegisterPartitionLeases(membership::ControlPlane* cp,
                                            Topic* t) {
  for (const Partition& p : t->partitions) {
    const uint64_t key = membership::MakeOwnershipKey(
        membership::OwnershipDomain::kPubsubPartition,
        Fnv1a64(t->name + "#" + std::to_string(p.index)));
    partition_keys_[key] = {t->name, p.index};
    const membership::NodeId owner = p.owner < node_map_.broker_node.size()
                                         ? node_map_.broker_node[p.owner]
                                         : node_map_.client_node;
    cp->RegisterLease("pubsub", key, owner);
  }
}

membership::NodeId PulsarCluster::ReassignPartition(
    membership::ControlPlane* cp, bool actuate, uint64_t key,
    membership::NodeId dead) {
  auto kit = partition_keys_.find(key);
  if (kit == partition_keys_.end()) return membership::kNoNode;
  auto tit = topics_.find(kit->second.first);
  if (tit == topics_.end()) return membership::kNoNode;
  Partition& part = tit->second.partitions[kit->second.second];
  for (const Broker& b : brokers_) {
    if (!b.alive) continue;
    const membership::NodeId node = b.id < node_map_.broker_node.size()
                                        ? node_map_.broker_node[b.id]
                                        : node_map_.client_node;
    if (node == dead) continue;
    if (transport_ != nullptr && !transport_->Reachable(cp->self(), node)) {
      continue;
    }
    if (actuate) part.owner = b.id;
    return node;
  }
  return membership::kNoNode;
}

membership::RehomeAction PulsarCluster::HandleNodeDead(
    membership::ControlPlane* cp, bool actuate, membership::NodeId dead) {
  membership::RehomeAction action;
  if (!actuate) {
    action.detail = "metadata-only replica";
    return action;
  }
  // Repairs copy over links reachable from the control plane's side; a
  // partitioned bookie keeps its data (quarantine, not crash).
  const membership::NodeId saved = origin_node_;
  origin_node_ = cp->self();
  for (BookieId b = 0;
       b < node_map_.bookie_node.size() && b < bookkeeper_.bookie_count();
       ++b) {
    if (node_map_.bookie_node[b] != dead) continue;
    auto copied = bookkeeper_.RepairLedgersFor(b, sim_->Now());
    if (copied.ok()) action.moved += *copied;
  }
  origin_node_ = saved;
  RedrivePending();
  action.detail =
      "re-replicated " + std::to_string(action.moved) + " entry replicas";
  return action;
}

membership::RehomeAction PulsarCluster::HandleNodeRejoin(
    membership::ControlPlane* /*cp*/, bool actuate,
    membership::NodeId rejoined) {
  membership::RehomeAction action;
  if (!actuate) {
    action.detail = "metadata-only replica";
    return action;
  }
  for (BookieId b = 0;
       b < node_map_.bookie_node.size() && b < bookkeeper_.bookie_count();
       ++b) {
    if (node_map_.bookie_node[b] != rejoined) continue;
    bookkeeper_.UnquarantineBookie(b);
    action.moved += bookkeeper_.DropStaleReplicas(b);
  }
  RedrivePending();
  action.detail =
      "dropped " + std::to_string(action.moved) + " stale replicas";
  return action;
}

size_t PulsarCluster::RedrivePending() {
  size_t advanced = 0;
  for (auto& [name, t] : topics_) {
    for (auto& [sname, sub] : t.subscriptions) {
      for (uint32_t p = 0; p < t.partitions.size(); ++p) {
        const uint64_t before = sub.cursor[p];
        DispatchFrom(&t, &sub, p, sim_->Now());
        if (sub.cursor[p] > before) ++advanced;
      }
    }
  }
  return advanced;
}

std::vector<size_t> PulsarCluster::BrokerLoad() const {
  std::vector<size_t> load(brokers_.size(), 0);
  for (const auto& [name, t] : topics_) {
    for (const Partition& p : t.partitions) {
      ++load[p.owner];
    }
  }
  return load;
}

}  // namespace taureau::pubsub
