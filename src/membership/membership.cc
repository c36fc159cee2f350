#include "membership/membership.h"

#include <algorithm>

namespace taureau::membership {

std::string_view MemberStateName(MemberState state) {
  switch (state) {
    case MemberState::kAlive:
      return "alive";
    case MemberState::kSuspect:
      return "suspect";
    case MemberState::kDead:
      return "dead";
  }
  return "?";
}

int MemberStateRank(MemberState state) {
  switch (state) {
    case MemberState::kAlive:
      return 0;
    case MemberState::kSuspect:
      return 1;
    case MemberState::kDead:
      return 2;
  }
  return 0;
}

MembershipService::MembershipService(sim::Simulation* sim,
                                     ClusterTransport* transport,
                                     MembershipConfig config)
    : sim_(sim),
      transport_(transport),
      config_(config),
      rng_(config.seed ^ 0x3153ULL) {
  nodes_.resize(config_.num_nodes);
  for (size_t n = 0; n < config_.num_nodes; ++n) {
    nodes_[n].view.assign(config_.num_nodes, MemberInfo{});
    nodes_[n].detectors.assign(config_.num_nodes, PhiAccrualDetector());
  }
  BindMetrics();
}

MembershipService::~MembershipService() { Stop(); }

void MembershipService::BindMetrics() {
  h_.heartbeats_sent = registry_->ResolveCounter("membership.heartbeats_sent");
  h_.heartbeats_blocked =
      registry_->ResolveCounter("membership.heartbeats_blocked");
  h_.suspicions = registry_->ResolveCounter("membership.suspicions");
  h_.deaths = registry_->ResolveCounter("membership.deaths");
  h_.rejoins = registry_->ResolveCounter("membership.rejoins");
  h_.refutations = registry_->ResolveCounter("membership.refutations");
  h_.epoch_transitions =
      registry_->ResolveCounter("membership.epoch_transitions");
  h_.max_epoch = registry_->ResolveGauge("membership.max_epoch");
}

void MembershipService::AttachObservability(obs::Observability* o) {
  if (o == nullptr || registry_ == &o->registry) return;
  o->registry.MergeFrom(*registry_);
  if (registry_ == &own_registry_) own_registry_.Reset();
  registry_ = &o->registry;
  obs_ = o;
  BindMetrics();
}

void MembershipService::Start() {
  if (running_) return;
  running_ = true;
  for (size_t n = 0; n < nodes_.size(); ++n) {
    const NodeId node = static_cast<NodeId>(n);
    nodes_[n].ticker = std::make_unique<sim::PeriodicProcess>(
        sim_, kHeartbeatPeriodUs, [this, node] { return Tick(node); });
    nodes_[n].ticker->Start();
  }
}

void MembershipService::Stop() {
  running_ = false;
  for (auto& node : nodes_) {
    if (node.ticker) node.ticker->Stop();
  }
}

bool MembershipService::Tick(NodeId node) {
  if (!running_) return false;
  EvaluatePeers(node);
  SendHeartbeats(node);
  return true;
}

void MembershipService::EvaluatePeers(NodeId node) {
  NodeState& self = nodes_[node];
  const SimTime now = sim_->Now();
  for (size_t p = 0; p < nodes_.size(); ++p) {
    if (p == node) continue;
    const NodeId peer = static_cast<NodeId>(p);
    const MemberInfo& info = self.view[p];
    const PhiAccrualDetector& det = self.detectors[p];
    if (det.heartbeats() == 0) continue;  // never heard from: grace period
    switch (info.state) {
      case MemberState::kAlive:
        if (det.Dead(now)) {
          SetMember(node, peer, MemberState::kDead, info.incarnation);
        } else if (det.Suspect(now)) {
          SetMember(node, peer, MemberState::kSuspect, info.incarnation);
        }
        break;
      case MemberState::kSuspect:
        if (det.Dead(now)) {
          SetMember(node, peer, MemberState::kDead, info.incarnation);
        } else if (!det.Suspect(now)) {
          // Resumed heartbeats are direct evidence; suspicion (unlike
          // death) clears without an incarnation bump.
          SetMember(node, peer, MemberState::kAlive, info.incarnation);
        }
        break;
      case MemberState::kDead:
        // Death is sticky: only the peer itself refutes it, by gossiping a
        // higher incarnation (see ReceiveHeartbeat).
        break;
    }
  }
}

void MembershipService::SendHeartbeats(NodeId node) {
  NodeState& self = nodes_[node];
  const SimTime now = sim_->Now();
  for (size_t p = 0; p < nodes_.size(); ++p) {
    if (p == node) continue;
    const NodeId peer = static_cast<NodeId>(p);
    if (transport_ != nullptr && !transport_->Reachable(node, peer)) {
      h_.heartbeats_blocked.Inc();
      continue;
    }
    h_.heartbeats_sent.Inc();
    GossipMessage msg;
    msg.from = node;
    msg.view = self.view;  // snapshot at send time
    msg.clock = self.clock;
    const SimDuration jitter = static_cast<SimDuration>(
        rng_.NextBounded(static_cast<uint64_t>(kHeartbeatJitterUs) + 1));
    sim_->ScheduleAt(now + kHeartbeatLatencyUs + jitter,
                     [this, peer, msg = std::move(msg)]() mutable {
                       ReceiveHeartbeat(peer, std::move(msg));
                     });
  }
}

void MembershipService::ReceiveHeartbeat(NodeId to, GossipMessage msg) {
  if (!running_) return;
  NodeState& self = nodes_[to];
  self.detectors[msg.from].Heartbeat(sim_->Now());
  // Join the gossiped view entry-wise: max on (incarnation, state rank).
  for (size_t p = 0; p < msg.view.size() && p < self.view.size(); ++p) {
    const NodeId peer = static_cast<NodeId>(p);
    const MemberInfo& theirs = msg.view[p];
    const MemberInfo& mine = self.view[p];
    const bool newer =
        theirs.incarnation > mine.incarnation ||
        (theirs.incarnation == mine.incarnation &&
         MemberStateRank(theirs.state) > MemberStateRank(mine.state));
    if (!newer) continue;
    if (peer == to) {
      // Rumor says I am suspect/dead — refute with a fresh incarnation.
      h_.refutations.Inc();
      SetMember(to, to, MemberState::kAlive, theirs.incarnation + 1);
      continue;
    }
    SetMember(to, peer, theirs.state, theirs.incarnation);
  }
  self.clock.MergeFrom(msg.clock);
}

void MembershipService::SetMember(NodeId observer, NodeId peer,
                                  MemberState state, uint64_t incarnation) {
  NodeState& self = nodes_[observer];
  MemberInfo& info = self.view[peer];
  if (info.state == state && info.incarnation == incarnation) return;
  const MemberState from = info.state;
  const SimTime now = sim_->Now();
  info.state = state;
  info.incarnation = incarnation;
  info.since_us = now;
  self.clock.Tick(observer);
  if (from == state) return;  // incarnation-only refresh: no transition
  ++self.epoch;
  h_.epoch_transitions.Inc();
  h_.max_epoch.SetMax(double(self.epoch));
  const char* sev = "info";
  if (state == MemberState::kDead) {
    h_.deaths.Inc();
    sev = "error";
  } else if (state == MemberState::kSuspect) {
    h_.suspicions.Inc();
    sev = "warn";
  } else if (from == MemberState::kDead) {
    h_.rejoins.Inc();
  }
  if (obs_ != nullptr) {
    const std::string observer_text = std::to_string(observer);
    const std::string peer_text = std::to_string(peer);
    const std::string inc_text = std::to_string(incarnation);
    const std::string epoch_text = std::to_string(self.epoch);
    obs::SpanAttrList attrs = {{"observer", observer_text},
                               {"peer", peer_text},
                               {"from", MemberStateName(from)},
                               {"inc", inc_text},
                               {"epoch", epoch_text},
                               {obs::kSeverityAttr, sev}};
    if (state == MemberState::kDead) {
      attrs.Add(obs::kOutcomeAttr, obs::kOutcomeFault);
    }
    obs_->tracer.EmitSpan("member:" + std::string(MemberStateName(state)),
                          "membership", {}, now, now, attrs);
  }
  for (const TransitionListener& l : listeners_) {
    l(observer, peer, from, state, self.epoch);
  }
}

uint64_t MembershipService::epoch(NodeId observer) const {
  return nodes_[observer].epoch;
}

MemberState MembershipService::StateOf(NodeId observer, NodeId peer) const {
  return nodes_[observer].view[peer].state;
}

uint64_t MembershipService::IncarnationOf(NodeId observer, NodeId peer) const {
  return nodes_[observer].view[peer].incarnation;
}

size_t MembershipService::AliveCount(NodeId observer) const {
  const NodeState& self = nodes_[observer];
  size_t alive = 0;
  for (const MemberInfo& info : self.view) {
    if (info.state == MemberState::kAlive) ++alive;
  }
  return alive;
}

bool MembershipService::HasQuorum(NodeId observer) const {
  return AliveCount(observer) * 2 > nodes_.size();
}

std::string MembershipService::ViewToString(NodeId observer) const {
  const NodeState& self = nodes_[observer];
  std::string out = "epoch=" + std::to_string(self.epoch) + " [";
  for (size_t p = 0; p < self.view.size(); ++p) {
    if (p > 0) out += ' ';
    out += std::string(MemberStateName(self.view[p].state)) + "/" +
           std::to_string(self.view[p].incarnation);
  }
  out += "] clock=" + self.clock.ToString();
  return out;
}

void MembershipService::AddListener(TransitionListener listener) {
  listeners_.push_back(std::move(listener));
}

const MembershipStats& MembershipService::stats() const {
  stats_view_.heartbeats_sent = h_.heartbeats_sent.value();
  stats_view_.heartbeats_blocked = h_.heartbeats_blocked.value();
  stats_view_.suspicions = h_.suspicions.value();
  stats_view_.deaths = h_.deaths.value();
  stats_view_.rejoins = h_.rejoins.value();
  stats_view_.refutations = h_.refutations.value();
  stats_view_.epoch_transitions = h_.epoch_transitions.value();
  return stats_view_;
}

}  // namespace taureau::membership
