#include "jiffy/controller.h"

#include <algorithm>

#include "common/hash.h"

namespace taureau::jiffy {

JiffyController::JiffyController(sim::Simulation* sim, JiffyConfig config)
    : sim_(sim),
      config_(config),
      pool_(config.num_memory_nodes, config.blocks_per_node,
            config.block_size_bytes),
      admission_(config.admission) {}

Status JiffyController::AdmitControlOp(guard::Deadline deadline) {
  if (!config_.enable_admission) return Status::OK();
  const SimTime now = sim_->Now();
  // Pool pressure: a create that lands when the block pool is nearly
  // exhausted will fail (or starve tenants) downstream — shed it at the
  // control plane where the rejection is cheap and explicit.
  const uint64_t capacity = pool_.capacity_blocks();
  if (capacity > 0 && double(pool_.free_blocks()) <
                          config_.min_free_block_fraction * double(capacity)) {
    ++stats_.ops_shed;
    if (guard_ != nullptr) {
      guard_->RecordShed("jiffy", guard::AdmissionDecision::kShedQueueFull, {},
                         now);
    }
    return Status::ResourceExhausted(
        "control op shed: memory pool under pressure");
  }
  const auto decision = admission_.AdmitWithWait(0, deadline, now);
  if (decision != guard::AdmissionDecision::kAdmit) {
    ++stats_.ops_shed;
    if (guard_ != nullptr) guard_->RecordShed("jiffy", decision, {}, now);
    return Status::DeadlineExceeded(
        "control op shed: deadline cannot be met");
  }
  return Status::OK();
}

JiffyController::~JiffyController() { StopLeaseScan(); }

std::string JiffyController::NormalizePath(const std::string& path) {
  if (path.empty() || path[0] != '/') return "";
  std::string out;
  out.reserve(path.size());
  bool prev_slash = false;
  for (char c : path) {
    if (c == '/') {
      if (prev_slash) continue;
      prev_slash = true;
    } else {
      prev_slash = false;
    }
    out.push_back(c);
  }
  while (out.size() > 1 && out.back() == '/') out.pop_back();
  return out == "/" ? "" : out;
}

std::string JiffyController::OwnerTag(const std::string& path) {
  const size_t second = path.find('/', 1);
  return second == std::string::npos ? path.substr(1)
                                     : path.substr(1, second - 1);
}

JiffyController::Namespace* JiffyController::Find(const std::string& path) {
  auto it = namespaces_.find(path);
  return it == namespaces_.end() ? nullptr : &it->second;
}

const JiffyController::Namespace* JiffyController::Find(
    const std::string& path) const {
  auto it = namespaces_.find(path);
  return it == namespaces_.end() ? nullptr : &it->second;
}

Status JiffyController::CreateNamespace(const std::string& raw_path,
                                        SimDuration lease_us,
                                        guard::Deadline deadline) {
  TAU_RETURN_IF_ERROR(AdmitControlOp(deadline));
  const std::string path = NormalizePath(raw_path);
  if (path.empty()) {
    return Status::InvalidArgument("invalid namespace path '" + raw_path +
                                   "'");
  }
  if (namespaces_.count(path)) {
    return Status::AlreadyExists("namespace '" + path + "'");
  }
  const SimDuration lease = lease_us == 0 ? config_.default_lease_us
                                          : lease_us;
  // mkdir -p semantics: ancestors inherit the lease terms.
  std::string prefix;
  size_t pos = 1;
  while (true) {
    const size_t next = path.find('/', pos);
    prefix = next == std::string::npos ? path : path.substr(0, next);
    if (!namespaces_.count(prefix)) {
      Namespace ns;
      ns.path = prefix;
      ns.lease_duration_us = lease;
      ns.lease_expiry_us = lease < 0 ? 0 : sim_->Now() + lease;
      namespaces_.emplace(prefix, std::move(ns));
      ++stats_.namespaces_created;
      RegisterNamespaceLease(prefix);
    }
    if (next == std::string::npos) break;
    pos = next + 1;
  }
  return Status::OK();
}

Status JiffyController::RenewLease(const std::string& raw_path) {
  const std::string path = NormalizePath(raw_path);
  Namespace* ns = Find(path);
  if (!ns) return Status::NotFound("namespace '" + path + "'");
  if (ns->lease_expiry_us == 0) return Status::OK();  // permanent
  ns->lease_expiry_us = sim_->Now() + ns->lease_duration_us;
  return Status::OK();
}

Result<SimDuration> JiffyController::LeaseRemaining(
    const std::string& raw_path) const {
  const std::string path = NormalizePath(raw_path);
  const Namespace* ns = Find(path);
  if (!ns) return Status::NotFound("namespace '" + path + "'");
  if (ns->lease_expiry_us == 0) return SimDuration{INT64_MAX};
  return ns->lease_expiry_us - sim_->Now();
}

bool JiffyController::Exists(const std::string& raw_path) const {
  return Find(NormalizePath(raw_path)) != nullptr;
}

Status JiffyController::RemoveSubtree(const std::string& path,
                                      const std::string& event) {
  auto it = namespaces_.lower_bound(path);
  if (it == namespaces_.end() || it->first != path) {
    return Status::NotFound("namespace '" + path + "'");
  }
  const std::string child_prefix = path + "/";
  while (it != namespaces_.end() &&
         (it->first == path ||
          it->first.compare(0, child_prefix.size(), child_prefix) == 0)) {
    Namespace& ns = it->second;
    for (auto& [name, ds] : ns.structures) {
      ds->Destroy();  // returns blocks to the pool
    }
    for (const auto& cb : ns.subscribers) {
      cb(event, ns.path);
      ++stats_.notifications_sent;
    }
    ++stats_.namespaces_removed;
    for (auto& [cp, actuate] : planes_) {
      cp->RemoveLease(NamespaceKey(it->first));
    }
    it = namespaces_.erase(it);
  }
  return Status::OK();
}

Status JiffyController::RemoveNamespace(const std::string& raw_path) {
  const std::string path = NormalizePath(raw_path);
  if (path.empty()) return Status::InvalidArgument("invalid path");
  return RemoveSubtree(path, "removed");
}

bool JiffyController::LeaseScanTick() {
  const SimTime now = sim_->Now();
  std::vector<std::string> expired;
  for (const auto& [path, ns] : namespaces_) {
    if (ns.lease_expiry_us != 0 && ns.lease_expiry_us <= now) {
      expired.push_back(path);
    }
  }
  for (const std::string& path : expired) {
    // A parent expiry may have already removed this subtree.
    if (!namespaces_.count(path)) continue;
    RemoveSubtree(path, "expired");
    ++stats_.leases_expired;
  }
  return true;
}

void JiffyController::StartLeaseScan() {
  if (lease_scan_) return;
  lease_scan_ = std::make_unique<sim::PeriodicProcess>(
      sim_, config_.lease_scan_period_us, [this] { return LeaseScanTick(); });
  lease_scan_->Start();
}

void JiffyController::StopLeaseScan() {
  if (lease_scan_) {
    lease_scan_->Stop();
    lease_scan_.reset();
  }
}

Result<JiffyHashTable*> JiffyController::CreateHashTable(
    const std::string& raw_path, const std::string& name, uint32_t partitions,
    guard::Deadline deadline) {
  TAU_RETURN_IF_ERROR(AdmitControlOp(deadline));
  const std::string path = NormalizePath(raw_path);
  Namespace* ns = Find(path);
  if (!ns) return Status::NotFound("namespace '" + path + "'");
  if (ns->structures.count(name)) {
    return Status::AlreadyExists("structure '" + name + "' in " + path);
  }
  auto table = std::make_unique<JiffyHashTable>(&pool_, OwnerTag(path),
                                                partitions);
  JiffyHashTable* raw = table.get();
  raw->AttachObservability(obs_);
  ns->structures.emplace(name, std::move(table));
  return raw;
}

Result<JiffyQueue*> JiffyController::CreateQueue(const std::string& raw_path,
                                                 const std::string& name,
                                                 guard::Deadline deadline) {
  TAU_RETURN_IF_ERROR(AdmitControlOp(deadline));
  const std::string path = NormalizePath(raw_path);
  Namespace* ns = Find(path);
  if (!ns) return Status::NotFound("namespace '" + path + "'");
  if (ns->structures.count(name)) {
    return Status::AlreadyExists("structure '" + name + "' in " + path);
  }
  auto queue = std::make_unique<JiffyQueue>(&pool_, OwnerTag(path));
  JiffyQueue* raw = queue.get();
  raw->AttachObservability(obs_);
  ns->structures.emplace(name, std::move(queue));
  return raw;
}

template <typename T>
Result<T*> JiffyController::GetTyped(const std::string& raw_path,
                                     const std::string& name) {
  const std::string path = NormalizePath(raw_path);
  Namespace* ns = Find(path);
  if (!ns) return Status::NotFound("namespace '" + path + "'");
  auto it = ns->structures.find(name);
  if (it == ns->structures.end()) {
    return Status::NotFound("structure '" + name + "' in " + path);
  }
  T* typed = dynamic_cast<T*>(it->second.get());
  if (!typed) {
    return Status::FailedPrecondition("structure '" + name +
                                      "' has a different type");
  }
  return typed;
}

Result<JiffyHashTable*> JiffyController::GetHashTable(const std::string& path,
                                                      const std::string& name) {
  return GetTyped<JiffyHashTable>(path, name);
}

Result<JiffyQueue*> JiffyController::GetQueue(const std::string& path,
                                              const std::string& name) {
  return GetTyped<JiffyQueue>(path, name);
}

Status JiffyController::Subscribe(const std::string& raw_path,
                                  NotificationCallback cb) {
  const std::string path = NormalizePath(raw_path);
  Namespace* ns = Find(path);
  if (!ns) return Status::NotFound("namespace '" + path + "'");
  ns->subscribers.push_back(std::move(cb));
  return Status::OK();
}

Status JiffyController::Notify(const std::string& raw_path,
                               const std::string& event) {
  const std::string path = NormalizePath(raw_path);
  Namespace* ns = Find(path);
  if (!ns) return Status::NotFound("namespace '" + path + "'");
  for (const auto& cb : ns->subscribers) {
    cb(event, ns->path);
    ++stats_.notifications_sent;
  }
  return Status::OK();
}

void JiffyController::AttachObservability(obs::Observability* o) {
  obs_ = o;
  pool_.AttachObservability(o);
  for (auto& [path, ns] : namespaces_) {
    for (auto& [name, structure] : ns.structures) {
      structure->AttachObservability(o);
    }
  }
}

void JiffyController::AttachChaos(chaos::InjectorRegistry* registry) {
  using chaos::FaultKind;
  registry->RegisterHook(
      "jiffy", FaultKind::kMemoryNodeFail,
      [this, registry](const chaos::FaultEvent& e) {
        if (pool_.node_count() == 0) return;
        const uint32_t node =
            static_cast<uint32_t>(e.target % pool_.node_count());
        if (!pool_.FailNode(node).ok()) return;
        bool exhausted = false;
        const size_t moved = RehomeAllBlocks(&exhausted);
        if (!exhausted) {
          registry->RecordRecovery("jiffy", FaultKind::kMemoryNodeFail, node,
                                   "re-homed " + std::to_string(moved) +
                                       " blocks from failed node");
        }
      });
  registry->RegisterHook(
      "jiffy", FaultKind::kMemoryNodeRecover,
      [this](const chaos::FaultEvent& e) {
        if (pool_.node_count() == 0) return;
        pool_.RecoverNode(static_cast<uint32_t>(e.target % pool_.node_count()));
      });
}

size_t JiffyController::RehomeAllBlocks(bool* exhausted) {
  // Namespaces and structures iterate in sorted order so the repair
  // sequence is deterministic.
  size_t moved = 0;
  for (auto& [path, ns] : namespaces_) {
    for (auto& [name, structure] : ns.structures) {
      auto r = structure->RepairBlocks();
      if (r.ok()) {
        moved += *r;
      } else if (exhausted != nullptr) {
        *exhausted = true;
      }
    }
  }
  stats_.blocks_rehomed += moved;
  return moved;
}

uint64_t JiffyController::NamespaceKey(const std::string& path) {
  return membership::MakeOwnershipKey(
      membership::OwnershipDomain::kJiffyNamespace, Fnv1a64(path));
}

membership::NodeId JiffyController::PrimaryNodeOf(
    const std::string& path) const {
  if (node_map_.node_of_memory_node.empty()) return node_map_.controller_node;
  const size_t mn = Fnv1a64(path) % node_map_.node_of_memory_node.size();
  return node_map_.node_of_memory_node[mn];
}

void JiffyController::RegisterNamespaceLease(const std::string& path) {
  for (auto& [cp, actuate] : planes_) {
    cp->RegisterLease("jiffy", NamespaceKey(path), PrimaryNodeOf(path));
  }
}

void JiffyController::AttachMembership(membership::ControlPlane* cp,
                                       JiffyNodeMap map, bool actuate) {
  node_map_ = std::move(map);
  planes_.emplace_back(cp, actuate);
  for (const auto& [path, ns] : namespaces_) {
    cp->RegisterLease("jiffy", NamespaceKey(path), PrimaryNodeOf(path));
  }
  cp->SetReassign(
      "jiffy", [this, cp](uint64_t /*key*/, membership::NodeId dead) {
        // New primary: first memory node on a reachable, non-dead cluster
        // node (deterministic scan order).
        membership::ClusterTransport* t = cp->membership()->transport();
        for (const membership::NodeId node : node_map_.node_of_memory_node) {
          if (node == dead) continue;
          if (t != nullptr && !t->Reachable(cp->self(), node)) continue;
          return node;
        }
        return membership::kNoNode;
      });
  cp->OnNodeDead("jiffy",
                 [this, cp, actuate](membership::NodeId dead, uint64_t) {
                   return MembershipDead(cp, actuate, dead);
                 });
  cp->OnNodeRejoin("jiffy",
                   [this, actuate](membership::NodeId node, uint64_t) {
                     return MembershipRejoin(actuate, node);
                   });
}

membership::RehomeAction JiffyController::MembershipDead(
    membership::ControlPlane* /*cp*/, bool actuate, membership::NodeId dead) {
  membership::RehomeAction action;
  if (!actuate) {
    action.detail = "metadata-only replica";
    return action;
  }
  bool failed_any = false;
  for (uint32_t mn = 0; mn < node_map_.node_of_memory_node.size() &&
                        mn < pool_.node_count();
       ++mn) {
    if (node_map_.node_of_memory_node[mn] != dead) continue;
    if (pool_.FailNode(mn).ok()) failed_any = true;
  }
  if (failed_any) action.moved = RehomeAllBlocks(nullptr);
  action.detail = "re-homed " + std::to_string(action.moved) + " blocks";
  return action;
}

membership::RehomeAction JiffyController::MembershipRejoin(
    bool actuate, membership::NodeId rejoined) {
  membership::RehomeAction action;
  if (!actuate) {
    action.detail = "metadata-only replica";
    return action;
  }
  for (uint32_t mn = 0; mn < node_map_.node_of_memory_node.size() &&
                        mn < pool_.node_count();
       ++mn) {
    if (node_map_.node_of_memory_node[mn] != rejoined) continue;
    if (pool_.RecoverNode(mn).ok()) ++action.moved;
  }
  action.detail =
      "recovered " + std::to_string(action.moved) + " memory nodes";
  return action;
}

}  // namespace taureau::jiffy
