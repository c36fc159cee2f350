#include "membership/control_plane.h"

#include <algorithm>

namespace taureau::membership {

// ---- OwnershipTable -------------------------------------------------------

void OwnershipTable::Claim(uint64_t key, NodeId owner, NodeId writer) {
  entries_[key].Write(writer, owner);
}

NodeId OwnershipTable::OwnerOf(uint64_t key) const {
  auto it = entries_.find(key);
  return it == entries_.end() ? kNoNode : it->second.value();
}

size_t OwnershipTable::CountConflicts(const OwnershipTable& other) const {
  size_t conflicts = 0;
  for (const auto& [key, entry] : entries_) {
    auto it = other.entries_.find(key);
    if (it != other.entries_.end() && entry.ConflictsWith(it->second)) {
      ++conflicts;
    }
  }
  return conflicts;
}

OwnershipTable::JoinResult OwnershipTable::Join(const OwnershipTable& other) {
  JoinResult result;
  for (const auto& [key, theirs] : other.entries_) {
    auto it = entries_.find(key);
    if (it == entries_.end()) {
      entries_.emplace(key, theirs);
      ++result.merged;
      continue;
    }
    if (it->second == theirs) continue;
    if (it->second.ConflictsWith(theirs)) ++result.conflicts;
    it->second.Join(theirs);
    ++result.merged;
  }
  return result;
}

std::string OwnershipTable::ToString() const {
  std::string out;
  for (const auto& [key, entry] : entries_) {
    if (!out.empty()) out += ' ';
    out += std::to_string(key) + "->" + std::to_string(entry.value());
  }
  return out;
}

// ---- ControlPlane ---------------------------------------------------------

ControlPlane::ControlPlane(sim::Simulation* sim, MembershipService* membership,
                           ControlPlaneConfig config)
    : sim_(sim),
      membership_(membership),
      config_(config),
      metric_prefix_("cp" + std::to_string(config.self) + ".") {
  BindMetrics();
  membership_->AddListener([this](NodeId observer, NodeId peer,
                                  MemberState from, MemberState to,
                                  uint64_t epoch) {
    OnTransition(observer, peer, from, to, epoch);
  });
}

ControlPlane::~ControlPlane() { Stop(); }

void ControlPlane::BindMetrics() {
  h_.renewals = registry_->ResolveCounter(metric_prefix_ + "renewals");
  h_.suppressed_renewals =
      registry_->ResolveCounter(metric_prefix_ + "suppressed_renewals");
  h_.rehomes = registry_->ResolveCounter(metric_prefix_ + "rehomes");
  h_.rehomed_units =
      registry_->ResolveCounter(metric_prefix_ + "rehomed_units");
  h_.reassigned_leases =
      registry_->ResolveCounter(metric_prefix_ + "reassigned_leases");
  h_.suppressed_no_quorum =
      registry_->ResolveCounter(metric_prefix_ + "suppressed_no_quorum");
  h_.rejoins_handled =
      registry_->ResolveCounter(metric_prefix_ + "rejoins_handled");
  h_.reconciliations =
      registry_->ResolveCounter(metric_prefix_ + "reconciliations");
  h_.conflicts_resolved =
      registry_->ResolveCounter(metric_prefix_ + "conflicts_resolved");
  h_.epoch = registry_->ResolveGauge(metric_prefix_ + "epoch");
}

void ControlPlane::AttachObservability(obs::Observability* o) {
  if (o == nullptr || registry_ == &o->registry) return;
  o->registry.MergeFrom(*registry_);
  if (registry_ == &own_registry_) own_registry_.Reset();
  registry_ = &o->registry;
  obs_ = o;
  BindMetrics();
}

void ControlPlane::Start() {
  if (lease_ticker_) return;
  lease_ticker_ = std::make_unique<sim::PeriodicProcess>(
      sim_, kLeasePeriodUs, [this] {
        LeaseTick();
        return true;
      });
  lease_ticker_->Start();
}

void ControlPlane::Stop() {
  if (lease_ticker_) lease_ticker_->Stop();
}

void ControlPlane::OnNodeDead(std::string module, DeadHandler handler) {
  dead_handlers_.emplace_back(std::move(module), std::move(handler));
}

void ControlPlane::OnNodeRejoin(std::string module, RejoinHandler handler) {
  rejoin_handlers_.emplace_back(std::move(module), std::move(handler));
}

void ControlPlane::SetReassign(std::string module, ReassignHandler handler) {
  reassign_handlers_[std::move(module)] = std::move(handler);
}

void ControlPlane::RegisterLease(std::string module, uint64_t key,
                                 NodeId owner) {
  leases_[key] = LeaseRecord{owner, std::move(module), sim_->Now()};
  ownership_.Claim(key, owner, config_.self);
}

NodeId ControlPlane::LeaseOwner(uint64_t key) const {
  auto it = leases_.find(key);
  return it == leases_.end() ? kNoNode : it->second.owner;
}

size_t ControlPlane::LeaseTick() {
  if (config_.require_quorum && !membership_->HasQuorum(config_.self)) {
    // No majority in sight: this side's primaries step down (their leases
    // expire unrenewed) instead of contending with the other side.
    h_.suppressed_renewals.Inc(leases_.size());
    return 0;
  }
  ClusterTransport* transport = membership_->transport();
  size_t renewed = 0;
  for (auto& [key, lease] : leases_) {
    if (lease.owner == kNoNode) continue;
    if (membership_->StateOf(config_.self, lease.owner) ==
        MemberState::kDead) {
      continue;  // re-assignment (not renewal) handles dead owners
    }
    if (transport != nullptr &&
        !transport->Reachable(config_.self, lease.owner)) {
      continue;
    }
    ownership_.Claim(key, lease.owner, config_.self);
    lease.last_renewed_us = sim_->Now();
    ++renewed;
  }
  h_.renewals.Inc(renewed);
  return renewed;
}

void ControlPlane::OnTransition(NodeId observer, NodeId peer,
                                MemberState from, MemberState to,
                                uint64_t epoch) {
  if (observer != config_.self || peer == config_.self) return;
  h_.epoch.Set(double(epoch));
  if (to == MemberState::kDead && from != MemberState::kDead) {
    HandleDead(peer, epoch);
  } else if (from == MemberState::kDead && to == MemberState::kAlive) {
    HandleRejoin(peer, epoch);
  }
}

void ControlPlane::HandleDead(NodeId dead, uint64_t epoch) {
  if (config_.require_quorum && !membership_->HasQuorum(config_.self)) {
    h_.suppressed_no_quorum.Inc();
    EmitSpan("suppress:no-quorum", nullptr,
             {{"dead", std::to_string(dead)},
              {"epoch", std::to_string(epoch)},
              {obs::kSeverityAttr, "warn"}});
    return;
  }
  for (const auto& [module, handler] : dead_handlers_) {
    const RehomeAction action = handler(dead, epoch);
    h_.rehomes.Inc();
    h_.rehomed_units.Inc(action.moved);
    EmitSpan("rehome:" + module, "shuffle",
             {{"dead", std::to_string(dead)},
              {"moved", std::to_string(action.moved)},
              {"epoch", std::to_string(epoch)},
              {"detail", action.detail}});
  }
  // Re-assign the dead node's leases to module-chosen replacements.
  for (auto& [key, lease] : leases_) {
    if (lease.owner != dead) continue;
    auto it = reassign_handlers_.find(lease.module);
    const NodeId next =
        it == reassign_handlers_.end() ? kNoNode : it->second(key, dead);
    if (next == kNoNode) {
      lease.owner = kNoNode;  // orphaned until rejoin
      continue;
    }
    lease.owner = next;
    lease.last_renewed_us = sim_->Now();
    ownership_.Claim(key, next, config_.self);
    h_.reassigned_leases.Inc();
    EmitSpan("reassign:" + lease.module, "shuffle",
             {{"key", std::to_string(key)},
              {"from", std::to_string(dead)},
              {"to", std::to_string(next)},
              {"epoch", std::to_string(epoch)}});
  }
}

void ControlPlane::HandleRejoin(NodeId rejoined, uint64_t epoch) {
  if (config_.require_quorum && !membership_->HasQuorum(config_.self)) {
    h_.suppressed_no_quorum.Inc();
    return;
  }
  for (const auto& [module, handler] : rejoin_handlers_) {
    const RehomeAction action = handler(rejoined, epoch);
    h_.rejoins_handled.Inc();
    EmitSpan("rejoin:" + module, "shuffle",
             {{"node", std::to_string(rejoined)},
              {"moved", std::to_string(action.moved)},
              {"epoch", std::to_string(epoch)},
              {"detail", action.detail}});
  }
  if (peer_ != nullptr) ReconcileWith(peer_);
}

size_t ControlPlane::ReconcileWith(ControlPlane* other) {
  // Split-brain accounting: a conflict is a key both replicas still
  // *actively* lease (renewed within the fencing window) to different
  // owners. Vector-clock concurrency alone would also flag the benign
  // case where a guarded minority's last pre-detection renewal races the
  // majority's reassignment; staleness is what distinguishes a replica
  // that stepped down from one that kept contending.
  const SimTime now = sim_->Now();
  size_t conflicts = 0;
  for (const auto& [key, mine] : leases_) {
    auto it = other->leases_.find(key);
    if (it == other->leases_.end()) continue;
    const LeaseRecord& theirs = it->second;
    if (mine.owner == kNoNode || theirs.owner == kNoNode) continue;
    if (mine.owner == theirs.owner) continue;
    if (LeaseActive(mine, now) && other->LeaseActive(theirs, now)) {
      ++conflicts;
    }
  }
  ownership_.Join(other->ownership_);
  other->ownership_.Join(ownership_);
  // Re-point both replicas' leases at the merged owners; the reconcile
  // itself re-asserts them.
  for (ControlPlane* cp : {this, other}) {
    for (auto& [key, lease] : cp->leases_) {
      const NodeId owner = cp->ownership_.OwnerOf(key);
      if (owner != kNoNode) {
        lease.owner = owner;
        lease.last_renewed_us = now;
      }
    }
  }
  h_.reconciliations.Inc();
  h_.conflicts_resolved.Inc(conflicts);
  EmitSpan("reconcile", "shuffle",
           {{"peer", std::to_string(other->config_.self)},
            {"conflicts", std::to_string(conflicts)},
            {"entries", std::to_string(ownership_.size())},
            {obs::kSeverityAttr, conflicts > 0 ? "error" : "info"}});
  return conflicts;
}

void ControlPlane::EmitSpan(const std::string& name, const char* category,
                            obs::SpanAttrList attrs) {
  if (obs_ == nullptr) return;
  const std::string self = std::to_string(config_.self);
  attrs.Add("self", self);
  if (category != nullptr) attrs.Add(obs::kCategoryAttr, category);
  const SimTime now = sim_->Now();
  obs_->tracer.EmitSpan(name, "control-plane", {}, now, now, attrs);
}

const ControlPlaneStats& ControlPlane::stats() const {
  stats_view_.renewals = h_.renewals.value();
  stats_view_.suppressed_renewals = h_.suppressed_renewals.value();
  stats_view_.rehomes = h_.rehomes.value();
  stats_view_.rehomed_units = h_.rehomed_units.value();
  stats_view_.reassigned_leases = h_.reassigned_leases.value();
  stats_view_.suppressed_no_quorum = h_.suppressed_no_quorum.value();
  stats_view_.rejoins_handled = h_.rejoins_handled.value();
  stats_view_.reconciliations = h_.reconciliations.value();
  stats_view_.conflicts_resolved = h_.conflicts_resolved.value();
  return stats_view_;
}

}  // namespace taureau::membership
