#include "chaos/fault_plan.h"

#include <algorithm>
#include <cstdio>

namespace taureau::chaos {

std::string_view FaultKindName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kMachineCrash:
      return "machine-crash";
    case FaultKind::kMachineRestart:
      return "machine-restart";
    case FaultKind::kContainerKill:
      return "container-kill";
    case FaultKind::kNetworkDelay:
      return "network-delay";
    case FaultKind::kNetworkPartition:
      return "network-partition";
    case FaultKind::kPartitionHeal:
      return "partition-heal";
    case FaultKind::kBookieCrash:
      return "bookie-crash";
    case FaultKind::kBookieRecover:
      return "bookie-recover";
    case FaultKind::kMemoryNodeFail:
      return "memory-node-fail";
    case FaultKind::kMemoryNodeRecover:
      return "memory-node-recover";
    case FaultKind::kMessageDrop:
      return "message-drop";
    case FaultKind::kMessageDuplicate:
      return "message-duplicate";
    case FaultKind::kStepRedeliver:
      return "step-redeliver";
    case FaultKind::kGroupPartition:
      return "group-partition";
    case FaultKind::kGroupHeal:
      return "group-heal";
    case FaultKind::kLinkLoss:
      return "link-loss";
    case FaultKind::kLinkRestore:
      return "link-restore";
    case FaultKind::kConfigPushDelay:
      return "config-push-delay";
    case FaultKind::kConfigCorrupt:
      return "config-corrupt";
  }
  return "unknown";
}

namespace {

bool EventOrder(const FaultEvent& a, const FaultEvent& b) {
  if (a.at_us != b.at_us) return a.at_us < b.at_us;
  if (a.kind != b.kind) return int(a.kind) < int(b.kind);
  return a.target < b.target;
}

/// Emits Poisson arrivals of `kind` over [0, horizon). `targets` bounds the
/// uniform victim draw (0 = keyless, target is a raw selection key). Each
/// event carries `param`. When `has_recovery` is set, a paired
/// `recovery_kind` event lands `param` later (possibly past the horizon —
/// recovery completes).
void EmitClass(std::vector<FaultEvent>* out, Rng* rng, SimTime horizon,
               double rate_per_s, FaultKind kind, size_t targets,
               SimDuration param, FaultKind recovery_kind,
               bool has_recovery) {
  if (rate_per_s <= 0.0 || horizon <= 0) return;
  double t_us = 0.0;
  while (true) {
    t_us += rng->NextExponential(rate_per_s / double(kSecond));
    if (t_us >= double(horizon)) break;
    FaultEvent ev;
    ev.at_us = static_cast<SimTime>(t_us);
    ev.kind = kind;
    ev.target = targets > 0 ? rng->NextBounded(targets) : rng->NextU64();
    ev.param = static_cast<uint64_t>(param);
    out->push_back(ev);
    if (has_recovery && param > 0) {
      FaultEvent rec;
      rec.at_us = ev.at_us + param;
      rec.kind = recovery_kind;
      rec.target = ev.target;
      out->push_back(rec);
    }
  }
}

}  // namespace

FaultPlan FaultPlan::Generate(const FaultPlanConfig& config, Rng* rng) {
  FaultPlan plan;
  auto* out = &plan.events_;
  const SimTime h = config.horizon_us;
  EmitClass(out, rng, h, config.machine_crash_per_s, FaultKind::kMachineCrash,
            config.num_machines, config.machine_restart_after_us,
            FaultKind::kMachineRestart, true);
  EmitClass(out, rng, h, config.container_kill_per_s,
            FaultKind::kContainerKill, 0, 0, FaultKind::kContainerKill,
            false);
  // A network-delay event's param is the delay size; it has no recovery.
  EmitClass(out, rng, h, config.network_delay_per_s, FaultKind::kNetworkDelay,
            config.num_machines, kNetworkDelayUs, FaultKind::kNetworkDelay,
            false);
  EmitClass(out, rng, h, config.partition_per_s, FaultKind::kNetworkPartition,
            config.num_machines, kPartitionHealAfterUs,
            FaultKind::kPartitionHeal, true);
  EmitClass(out, rng, h, config.bookie_crash_per_s, FaultKind::kBookieCrash,
            config.num_bookies, kBookieRecoverAfterUs,
            FaultKind::kBookieRecover, true);
  EmitClass(out, rng, h, config.memory_node_fail_per_s,
            FaultKind::kMemoryNodeFail, config.num_memory_nodes,
            kMemoryNodeRecoverAfterUs, FaultKind::kMemoryNodeRecover, true);
  EmitClass(out, rng, h, config.message_drop_per_s, FaultKind::kMessageDrop,
            0, 0, FaultKind::kMessageDrop, false);
  EmitClass(out, rng, h, config.message_duplicate_per_s,
            FaultKind::kMessageDuplicate, 0, 0, FaultKind::kMessageDuplicate,
            false);
  EmitClass(out, rng, h, config.step_redeliver_per_s,
            FaultKind::kStepRedeliver, 0, 0, FaultKind::kStepRedeliver, false);
  // Group partitions: the victim is a seeded minority *set*, encoded as a
  // bitmask so the whole split is one plannable event.
  if (config.group_partition_per_s > 0.0 && config.num_cluster_nodes >= 2 &&
      config.num_cluster_nodes <= 64 && h > 0) {
    const size_t n = config.num_cluster_nodes;
    double t_us = 0.0;
    while (true) {
      t_us += rng->NextExponential(config.group_partition_per_s /
                                   double(kSecond));
      if (t_us >= double(h)) break;
      // Draw a minority of 1..n/2 distinct nodes without replacement.
      const size_t size = 1 + size_t(rng->NextBounded(n / 2));
      uint64_t mask = 0;
      size_t picked = 0;
      while (picked < size) {
        const uint64_t bit = uint64_t(1) << rng->NextBounded(n);
        if (mask & bit) continue;
        mask |= bit;
        ++picked;
      }
      FaultEvent ev;
      ev.at_us = static_cast<SimTime>(t_us);
      ev.kind = FaultKind::kGroupPartition;
      ev.target = mask;
      ev.param = static_cast<uint64_t>(config.group_heal_after_us);
      out->push_back(ev);
      FaultEvent heal;
      heal.at_us = ev.at_us + config.group_heal_after_us;
      heal.kind = FaultKind::kGroupHeal;
      heal.target = mask;
      out->push_back(heal);
    }
  }
  // Asymmetric link faults: a seeded ordered (from, to) pair.
  if (config.link_loss_per_s > 0.0 && config.num_cluster_nodes >= 2 && h > 0) {
    const uint64_t n = config.num_cluster_nodes;
    double t_us = 0.0;
    while (true) {
      t_us += rng->NextExponential(config.link_loss_per_s / double(kSecond));
      if (t_us >= double(h)) break;
      const uint32_t from = static_cast<uint32_t>(rng->NextBounded(n));
      const uint32_t to = static_cast<uint32_t>(
          (from + 1 + rng->NextBounded(n - 1)) % n);
      FaultEvent ev;
      ev.at_us = static_cast<SimTime>(t_us);
      ev.kind = FaultKind::kLinkLoss;
      ev.target = PackLink(from, to);
      ev.param = static_cast<uint64_t>(config.link_restore_after_us);
      out->push_back(ev);
      FaultEvent restore;
      restore.at_us = ev.at_us + config.link_restore_after_us;
      restore.kind = FaultKind::kLinkRestore;
      restore.target = ev.target;
      out->push_back(restore);
    }
  }
  std::sort(out->begin(), out->end(), EventOrder);
  return plan;
}

void FaultPlan::Add(FaultEvent event) {
  auto it = std::upper_bound(events_.begin(), events_.end(), event, EventOrder);
  events_.insert(it, event);
}

size_t FaultPlan::CountKind(FaultKind kind) const {
  return static_cast<size_t>(
      std::count_if(events_.begin(), events_.end(),
                    [kind](const FaultEvent& e) { return e.kind == kind; }));
}

std::string FaultPlan::ToString() const {
  std::string out;
  char line[128];
  for (const FaultEvent& e : events_) {
    std::snprintf(line, sizeof(line), "%12lld us  %-19s target=%llu param=%llu\n",
                  static_cast<long long>(e.at_us),
                  std::string(FaultKindName(e.kind)).c_str(),
                  static_cast<unsigned long long>(e.target),
                  static_cast<unsigned long long>(e.param));
    out += line;
  }
  return out;
}

}  // namespace taureau::chaos
