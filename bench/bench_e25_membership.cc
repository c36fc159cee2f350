// E25: cluster membership & replication control plane under partitions.
//
// One world runs the whole stack on five cluster nodes: SWIM-style gossip
// membership with phi-accrual failure detection on the shared
// ClusterTransport, two control-plane replicas (a quorum-guarded one on
// the majority side, a peer on the eventual minority side), and the
// pubsub + Jiffy layers driven by membership instead of the harness. A
// symmetric partition cuts off two nodes (one broker, half the bookies,
// half the Jiffy memory nodes) mid-workload, then heals; the metadata
// replicas reconcile by semilattice join.
//
// Two safety invariants are asserted *in this binary* (the process exits
// non-zero on violation, so CI cannot miss a regression):
//
//   1. no acked pubsub message is lost — every publish acknowledged
//      durable is eventually delivered to the subscriber, across the
//      partition, the broker failover, and the heal;
//   2. no resource is double-owned after heal — the guarded control
//      plane reconciles with zero split-brain conflicts and both
//      replicas converge to byte-identical ownership tables (and Jiffy's
//      block population is conserved through re-homing).
//
// The same scenario with the minority's quorum gate off reproduces
// split-brain (conflicts > 0) — the table quantifies what the gate buys
// and what rebalancing costs: re-replicated ledger entries, re-homed
// blocks, re-assigned leases, and availability through the fault window,
// all itemized through the E21/E22 observability stack.
//
// Fixed seeds end to end: the scenario digest is byte-identical across
// reruns (asserted), and the seed sweep uses the deterministic parallel
// runner.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "bench_util.h"
#include "chaos/fault_plan.h"
#include "chaos/injector.h"
#include "common/rng.h"
#include "jiffy/controller.h"
#include "membership/control_plane.h"
#include "membership/membership.h"
#include "membership/transport.h"
#include "membership/vclock.h"
#include "obs/observability.h"
#include "pubsub/broker.h"
#include "sim/simulation.h"

namespace taureau {
namespace {

using membership::ClusterTransport;
using membership::ControlPlane;
using membership::ControlPlaneConfig;
using membership::MembershipConfig;
using membership::MembershipService;
using membership::NodeId;

constexpr uint64_t kSeed = 25;
constexpr size_t kNodes = 5;
// Nodes {1, 4} form the minority: broker 1, bookies 2-3, Jiffy memory
// nodes 2-3 and the minority control-plane replica all drop off together.
constexpr uint64_t kMinorityMask = 0b10010;
constexpr SimTime kPartitionAt = 5 * kSecond;
constexpr SimTime kHealAt = 12 * kSecond;
constexpr SimTime kHorizon = 20 * kSecond;

bool SmallMode() {
  const char* v = std::getenv("TAUREAU_BENCH_SMALL");
  return v != nullptr && *v != '\0' && *v != '0';
}

/// In-binary safety assert: E25's invariants are enforced, not printed.
void Check(bool ok, const std::string& what) {
  if (ok) return;
  std::fprintf(stderr, "E25 SAFETY VIOLATION: %s\n", what.c_str());
  std::exit(1);
}

struct PhaseCounts {
  uint64_t attempts = 0;
  uint64_t acked = 0;

  double AvailabilityPct() const {
    return attempts == 0 ? 100.0 : 100.0 * double(acked) / double(attempts);
  }
};

struct ScenarioResult {
  PhaseCounts before, during, after;
  uint64_t acked_total = 0;
  uint64_t delivered_unique = 0;
  uint64_t acked_lost = 0;
  double detect_ms = 0.0;    ///< Partition -> first death at observer 0.
  double converge_ms = 0.0;  ///< Heal -> last view transition anywhere.
  uint64_t conflicts = 0;    ///< Split-brain conflicts found at reconcile.
  bool tables_converged = false;
  uint64_t ledger_entries_rereplicated = 0;
  uint64_t blocks_rehomed = 0;
  uint64_t leases_reassigned = 0;
  uint64_t blocked_queries = 0;
  uint64_t suppressed_renewals = 0;
  /// Shared-registry counters + span tallies for the obs itemization.
  std::vector<std::pair<std::string, uint64_t>> obs_rows;
  std::string digest;  ///< Byte-compared across reruns (determinism).
};

/// One full scenario run. `guarded` gates the minority replica's quorum
/// check — the one switch between "reconciles clean" and "split-brain".
ScenarioResult RunScenario(bool guarded, uint64_t seed) {
  sim::Simulation sim;
  obs::Observability obs(&sim);
  chaos::InjectorRegistry injector(&sim);
  // Satellite: bounded chaos ledger — churn cannot grow memory unbounded.
  injector.log().set_capacity(256);

  ClusterTransport transport(kNodes);
  transport.AttachChaos(&injector);

  MembershipConfig mcfg;
  mcfg.num_nodes = kNodes;
  mcfg.seed = seed;
  MembershipService membership(&sim, &transport, mcfg);
  membership.AttachObservability(&obs);

  ControlPlane cp_major(&sim, &membership, ControlPlaneConfig{.self = 0});
  ControlPlane cp_minor(
      &sim, &membership,
      ControlPlaneConfig{.self = 4, .require_quorum = guarded});
  cp_major.SetPeer(&cp_minor);
  cp_minor.SetPeer(&cp_major);
  cp_major.AttachObservability(&obs);
  cp_minor.AttachObservability(&obs);
  // Anti-entropy at the instant connectivity returns: this is the
  // reconcile that catches the split-brain red-handed. Waiting for the
  // rejoin-triggered reconcile is too late — the majority's stale gossip
  // makes the naive minority rumor-kill node 1 first, and the resulting
  // reassignment repaints its lease map before any conflict is counted.
  transport.AddHealListener([&] { cp_major.ReconcileWith(&cp_minor); });

  pubsub::PulsarConfig pcfg;
  pcfg.num_brokers = 2;
  pcfg.num_bookies = 4;
  pcfg.seed = seed + 1;
  pubsub::PulsarCluster pulsar(&sim, pcfg);
  pulsar.AttachObservability(&obs);
  const pubsub::PulsarNodeMap pubsub_map{{0, 1}, {0, 0, 1, 1}, 0};
  pulsar.AttachMembership(&transport, &cp_major, pubsub_map, true);
  pulsar.AttachMembership(&transport, &cp_minor, pubsub_map, false);

  jiffy::JiffyConfig jcfg;
  jcfg.num_memory_nodes = 4;
  jcfg.blocks_per_node = 64;
  jcfg.block_size_bytes = 1024;
  jiffy::JiffyController jiffy_ctl(&sim, jcfg);
  jiffy_ctl.AttachObservability(&obs);
  const jiffy::JiffyNodeMap jiffy_map{{0, 0, 1, 1}, 0};
  jiffy_ctl.AttachMembership(&cp_major, jiffy_map, true);
  jiffy_ctl.AttachMembership(&cp_minor, jiffy_map, false);

  Check(pulsar
            .CreateTopic("orders", {.partitions = 4,
                                    .ensemble_size = 2,
                                    .write_quorum = 2,
                                    .ack_quorum = 2})
            .ok(),
        "topic creation failed");
  Check(jiffy_ctl.CreateNamespace("/pipeline", -1).ok(),
        "namespace creation failed");
  auto table_or = jiffy_ctl.CreateHashTable("/pipeline", "state");
  Check(table_or.ok(), "jiffy hash table creation failed");
  jiffy::JiffyHashTable* table = *table_or;
  // Seed the replicas' shared causal history before any divergence.
  cp_major.ReconcileWith(&cp_minor);
  membership.Start();
  cp_major.Start();
  cp_minor.Start();

  // Detection / convergence probes.
  SimTime first_death_us = 0;
  SimTime last_transition_us = 0;
  membership.AddListener([&](NodeId observer, NodeId, membership::MemberState,
                             membership::MemberState to, uint64_t) {
    last_transition_us = sim.Now();
    if (observer == 0 && to == membership::MemberState::kDead &&
        first_death_us == 0) {
      first_death_us = sim.Now();
    }
  });

  // The fault timeline flows through the chaos plan, like every other
  // fault class in this repo.
  chaos::FaultPlan plan;
  plan.Add({kPartitionAt, chaos::FaultKind::kGroupPartition, kMinorityMask,
            uint64_t(kHealAt - kPartitionAt)});
  plan.Add({kHealAt, chaos::FaultKind::kGroupHeal, kMinorityMask, 0});
  injector.Arm(plan);

  // Subscriber: remembers every payload it has seen; acks everything.
  std::set<std::string> delivered;
  std::shared_ptr<pubsub::ConsumerId> consumer_id =
      std::make_shared<pubsub::ConsumerId>(0);
  auto consumer = pulsar.Subscribe(
      "orders", "workers", pubsub::SubscriptionType::kShared,
      [&delivered, &pulsar, consumer_id](const pubsub::Message& m) {
        delivered.insert(m.payload);
        (void)pulsar.Ack(*consumer_id, m.id);
      });
  Check(consumer.ok(), "subscribe failed");
  *consumer_id = *consumer;

  // Publisher: one message every 20 ms across the horizon. A publish is
  // "acked" when the broker confirms the durable append.
  ScenarioResult r;
  std::set<std::string> acked;
  const int publishes = int(kHorizon / (20 * kMillisecond));
  bench::PaceArrivals(&sim, publishes, 20 * kMillisecond, [&](int i) {
    const std::string payload = "m" + std::to_string(i);
    PhaseCounts& phase = sim.Now() < kPartitionAt  ? r.before
                         : sim.Now() < kHealAt     ? r.during
                                                   : r.after;
    ++phase.attempts;
    if (pulsar.Publish("orders", payload, payload).ok()) {
      ++phase.acked;
      acked.insert(payload);
    }
  });

  // Jiffy workload, finished before the partition: this state must
  // survive the re-homing intact, block for block.
  const std::string value(400, 'v');
  int jiffy_puts = 0;
  bench::PaceArrivals(&sim, 60, 50 * kMillisecond, [&](int i) {
    if (table->Put("k" + std::to_string(i), value).status.ok()) ++jiffy_puts;
  });

  const uint64_t used_blocks_before = [&] {
    sim.RunUntil(kPartitionAt - kMillisecond);
    return jiffy_ctl.pool().used_blocks();
  }();
  sim.RunUntil(kHorizon);
  // Drain: nudge any dispatch stream that stalled on the fault window,
  // then stop the periodic tickers so the event queue can empty.
  pulsar.RedrivePending();
  sim.RunUntil(kHorizon + 2 * kSecond);
  membership.Stop();
  cp_major.Stop();
  cp_minor.Stop();
  sim.Run();

  // ---- invariant 1: no acked message lost -------------------------------
  r.acked_total = acked.size();
  r.delivered_unique = delivered.size();
  for (const std::string& payload : acked) {
    if (!delivered.count(payload)) ++r.acked_lost;
  }

  // ---- invariant 2: single ownership after heal -------------------------
  r.conflicts = cp_major.stats().conflicts_resolved +
                cp_minor.stats().conflicts_resolved;
  r.tables_converged =
      cp_major.ownership().ToString() == cp_minor.ownership().ToString();
  Check(jiffy_ctl.pool().used_blocks() == used_blocks_before,
        "jiffy block population changed across partition + heal");
  std::string got;
  for (int i = 0; i < jiffy_puts; ++i) {
    Check(table->Get("k" + std::to_string(i), &got).status.ok() && got == value,
          "jiffy data lost across re-homing");
  }

  r.detect_ms = first_death_us == 0
                    ? 0.0
                    : double(first_death_us - kPartitionAt) / kMillisecond;
  r.converge_ms = last_transition_us <= kHealAt
                      ? 0.0
                      : double(last_transition_us - kHealAt) / kMillisecond;
  r.blocks_rehomed = jiffy_ctl.stats().blocks_rehomed;
  r.ledger_entries_rereplicated =
      cp_major.stats().rehomed_units >= r.blocks_rehomed
          ? cp_major.stats().rehomed_units - r.blocks_rehomed
          : cp_major.stats().rehomed_units;
  r.leases_reassigned =
      cp_major.stats().reassigned_leases + cp_minor.stats().reassigned_leases;
  r.blocked_queries = transport.stats().blocked_queries;
  r.suppressed_renewals = cp_minor.stats().suppressed_renewals;

  // ---- E21/E22 itemization ----------------------------------------------
  const membership::MembershipStats& ms = membership.stats();
  r.obs_rows = {
      {"membership.heartbeats_sent", ms.heartbeats_sent},
      {"membership.heartbeats_blocked", ms.heartbeats_blocked},
      {"membership.suspicions", ms.suspicions},
      {"membership.deaths", ms.deaths},
      {"membership.rejoins", ms.rejoins},
      {"membership.refutations", ms.refutations},
      {"membership.epoch_transitions", ms.epoch_transitions},
      {"cp0.rehomes", cp_major.stats().rehomes},
      {"cp0.rehomed_units", cp_major.stats().rehomed_units},
      {"cp0.reassigned_leases", cp_major.stats().reassigned_leases},
      {"cp0.reconciliations", cp_major.stats().reconciliations},
      {"cp4.suppressed_renewals", cp_minor.stats().suppressed_renewals},
      {"cp4.suppressed_no_quorum", cp_minor.stats().suppressed_no_quorum},
      {"chaos.injected", injector.injected()},
      {"chaos.recovered", injector.recovered()},
  };
  uint64_t member_spans = 0, plane_spans = 0, shuffle_spans = 0;
  for (const obs::Span& s : obs.tracer.spans()) {
    if (s.module == "membership") ++member_spans;
    if (s.module == "control-plane") ++plane_spans;
    auto it = s.attrs.find(obs::kCategoryAttr);
    if (it != s.attrs.end() && it->second == "shuffle") ++shuffle_spans;
  }
  r.obs_rows.emplace_back("spans.membership", member_spans);
  r.obs_rows.emplace_back("spans.control_plane", plane_spans);
  r.obs_rows.emplace_back("spans.cat_shuffle", shuffle_spans);

  // Determinism digest: per-observer views, the chaos ledger, and every
  // number the tables print.
  for (NodeId o = 0; o < kNodes; ++o) {
    r.digest += membership.ViewToString(o) + "\n";
  }
  r.digest += injector.log().ToString();
  r.digest += cp_major.ownership().ToString() + "\n";
  r.digest += std::to_string(r.acked_total) + "/" +
              std::to_string(r.delivered_unique) + "/" +
              std::to_string(r.conflicts) + "/" +
              std::to_string(r.leases_reassigned) + "/" +
              std::to_string(r.blocks_rehomed) + "/" +
              std::to_string(uint64_t(r.detect_ms * 1000));
  return r;
}

// ---- seed sweep: chaos-planned partition/link churn ----------------------

struct SweepCell {
  uint64_t partitions = 0;
  uint64_t links_cut = 0;
  double availability_pct = 0.0;
  uint64_t acked_lost = 0;
  uint64_t conflicts = 0;
  uint64_t rebalanced_units = 0;
  uint64_t log_dropped = 0;
};

/// A lighter world (membership + guarded control planes + pubsub) under a
/// *generated* fault plan: seeded minority partitions plus asymmetric
/// link faults, the two new chaos classes.
SweepCell RunSweepCell(uint64_t seed) {
  const SimTime horizon = SmallMode() ? 20 * kSecond : 40 * kSecond;
  sim::Simulation sim;
  chaos::InjectorRegistry injector(&sim);
  injector.log().set_capacity(32);  // deliberately tight: exercise the ring

  ClusterTransport transport(kNodes);
  transport.AttachChaos(&injector);
  MembershipConfig mcfg;
  mcfg.num_nodes = kNodes;
  mcfg.seed = seed;
  MembershipService membership(&sim, &transport, mcfg);

  ControlPlane cp_major(&sim, &membership, ControlPlaneConfig{.self = 0});
  ControlPlane cp_minor(&sim, &membership, ControlPlaneConfig{.self = 4});
  cp_major.SetPeer(&cp_minor);
  cp_minor.SetPeer(&cp_major);
  transport.AddHealListener([&] { cp_major.ReconcileWith(&cp_minor); });

  pubsub::PulsarConfig pcfg;
  pcfg.num_brokers = 2;
  pcfg.num_bookies = 4;
  pcfg.seed = seed + 1;
  pubsub::PulsarCluster pulsar(&sim, pcfg);
  const pubsub::PulsarNodeMap pubsub_map{{0, 1}, {0, 0, 1, 1}, 0};
  pulsar.AttachMembership(&transport, &cp_major, pubsub_map, true);
  pulsar.AttachMembership(&transport, &cp_minor, pubsub_map, false);
  Check(pulsar
            .CreateTopic("t", {.partitions = 2,
                               .ensemble_size = 2,
                               .write_quorum = 2,
                               .ack_quorum = 2})
            .ok(),
        "sweep topic creation failed");
  cp_major.ReconcileWith(&cp_minor);
  membership.Start();
  cp_major.Start();
  cp_minor.Start();

  chaos::FaultPlanConfig plan_cfg;
  plan_cfg.horizon_us = horizon - 5 * kSecond;  // leave room to re-converge
  plan_cfg.group_partition_per_s = 0.08;
  plan_cfg.group_heal_after_us = 4 * kSecond;
  plan_cfg.num_cluster_nodes = kNodes;
  plan_cfg.link_loss_per_s = 0.15;
  plan_cfg.link_restore_after_us = 2 * kSecond;
  Rng plan_rng(seed ^ 0xE25);
  injector.Arm(chaos::FaultPlan::Generate(plan_cfg, &plan_rng));

  std::set<std::string> delivered;
  auto consumer = pulsar.Subscribe(
      "t", "s", pubsub::SubscriptionType::kShared,
      [&delivered](const pubsub::Message& m) { delivered.insert(m.payload); });
  Check(consumer.ok(), "sweep subscribe failed");

  std::set<std::string> acked;
  uint64_t attempts = 0;
  const int publishes = int(horizon / (50 * kMillisecond));
  bench::PaceArrivals(&sim, publishes, 50 * kMillisecond, [&](int i) {
    const std::string payload = "s" + std::to_string(i);
    ++attempts;
    if (pulsar.Publish("t", payload, payload).ok()) acked.insert(payload);
  });

  sim.RunUntil(horizon);
  pulsar.RedrivePending();
  sim.RunUntil(horizon + 2 * kSecond);
  membership.Stop();
  cp_major.Stop();
  cp_minor.Stop();
  sim.Run();
  // Belt and braces: a final explicit reconcile must also find nothing.
  cp_major.ReconcileWith(&cp_minor);

  SweepCell cell;
  cell.partitions = transport.stats().partitions;
  cell.links_cut = transport.stats().links_cut;
  cell.availability_pct =
      attempts == 0 ? 100.0 : 100.0 * double(acked.size()) / double(attempts);
  for (const std::string& payload : acked) {
    if (!delivered.count(payload)) ++cell.acked_lost;
  }
  cell.conflicts = cp_major.stats().conflicts_resolved +
                   cp_minor.stats().conflicts_resolved;
  cell.rebalanced_units =
      cp_major.stats().rehomed_units + cp_major.stats().reassigned_leases;
  cell.log_dropped = injector.log().dropped();
  return cell;
}

void RunExperiment() {
  std::printf("E25: membership & replication control plane — partition, "
              "split-brain safety, live rebalancing\n");
  const bool small = SmallMode();

  // ---- guarded vs naive, one scripted partition -------------------------
  const ScenarioResult guarded = RunScenario(true, kSeed);
  const ScenarioResult naive = RunScenario(false, kSeed);

  bench::Table scenario({"plane", "acked", "delivered", "avail_before_pct",
                         "avail_during_pct", "avail_after_pct", "detect_ms",
                         "converge_ms", "conflicts", "ledger_entries",
                         "blocks_rehomed", "leases_moved", "blocked_msgs"});
  auto add_row = [&scenario](const char* name, const ScenarioResult& r) {
    scenario.AddRow({name, bench::FmtInt(int64_t(r.acked_total)),
                     bench::FmtInt(int64_t(r.delivered_unique)),
                     bench::Fmt("%.1f", r.before.AvailabilityPct()),
                     bench::Fmt("%.1f", r.during.AvailabilityPct()),
                     bench::Fmt("%.1f", r.after.AvailabilityPct()),
                     bench::Fmt("%.1f", r.detect_ms),
                     bench::Fmt("%.1f", r.converge_ms),
                     bench::FmtInt(int64_t(r.conflicts)),
                     bench::FmtInt(int64_t(r.ledger_entries_rereplicated)),
                     bench::FmtInt(int64_t(r.blocks_rehomed)),
                     bench::FmtInt(int64_t(r.leases_reassigned)),
                     bench::FmtInt(int64_t(r.blocked_queries))});
  };
  add_row("guarded", guarded);
  add_row("naive", naive);
  scenario.Print("E25.1 partition + heal: quorum-guarded vs naive control plane");

  // The invariants, enforced in-binary.
  Check(guarded.acked_lost == 0, "guarded run lost acked messages");
  Check(naive.acked_lost == 0, "naive run lost acked messages");
  Check(guarded.conflicts == 0,
        "guarded control plane saw split-brain conflicts");
  Check(guarded.tables_converged,
        "guarded replicas' ownership tables diverged after heal");
  Check(naive.tables_converged,
        "naive replicas' ownership tables diverged after heal");
  Check(naive.conflicts > 0,
        "naive run produced no conflicts — the hazard the gate removes "
        "was not reproduced");
  Check(guarded.during.attempts > 0 && guarded.detect_ms > 0.0,
        "partition window saw no traffic or no detection");
  Check(guarded.suppressed_renewals > 0,
        "minority replica never stepped down");

  bench::Table obs_table({"metric", "guarded", "naive"});
  for (size_t i = 0; i < guarded.obs_rows.size(); ++i) {
    obs_table.AddRow({guarded.obs_rows[i].first,
                      bench::FmtInt(int64_t(guarded.obs_rows[i].second)),
                      bench::FmtInt(int64_t(naive.obs_rows[i].second))});
  }
  obs_table.Print("E25.2 obs itemization (shared registry + span tallies)");

  // ---- determinism: same seed, byte-identical digest --------------------
  const ScenarioResult replay = RunScenario(true, kSeed);
  const bool deterministic = replay.digest == guarded.digest;
  Check(deterministic, "same-seed rerun diverged");

  // ---- seed sweep under generated churn ---------------------------------
  const int sweep_n = small ? 4 : 10;
  const std::vector<SweepCell> cells =
      bench::RunSweep(sweep_n, [](int i) { return RunSweepCell(kSeed + i); });
  bench::Table sweep({"seed", "partitions", "links_cut", "avail_pct",
                      "acked_lost", "conflicts", "rebalanced", "log_dropped"});
  uint64_t total_faults = 0;
  for (int i = 0; i < sweep_n; ++i) {
    const SweepCell& c = cells[i];
    // Only the delivery invariant is asserted here: the sweep mixes in
    // *asymmetric* link faults, under which two quorum-holding replicas
    // can legitimately reassign divergently — the conflicts column
    // reports how often the heal-time reconcile had to resolve that.
    Check(c.acked_lost == 0, "sweep cell lost acked messages");
    total_faults += c.partitions + c.links_cut;
    sweep.AddRow({bench::FmtInt(int64_t(kSeed) + i),
                  bench::FmtInt(int64_t(c.partitions)),
                  bench::FmtInt(int64_t(c.links_cut)),
                  bench::Fmt("%.1f", c.availability_pct),
                  bench::FmtInt(int64_t(c.acked_lost)),
                  bench::FmtInt(int64_t(c.conflicts)),
                  bench::FmtInt(int64_t(c.rebalanced_units)),
                  bench::FmtInt(int64_t(c.log_dropped))});
  }
  sweep.Print("E25.3 guarded plane under generated partition/link churn");
  Check(total_faults > 0, "sweep injected no transport faults");

  bench::JsonReport::Instance().Note("acceptance", "PASS");
  bench::JsonReport::Instance().Note("determinism",
                                     deterministic ? "byte-identical"
                                                   : "DIVERGED");
  bench::JsonReport::Instance().Note("safety.acked_lost", "0");
  bench::JsonReport::Instance().Note("safety.guarded_conflicts", "0");
  bench::JsonReport::Instance().Note(
      "naive_conflicts", std::to_string(naive.conflicts));
  std::printf("\nacceptance: PASS (0 acked messages lost, 0 double-owned "
              "resources, naive conflicts = %llu, deterministic)\n",
              static_cast<unsigned long long>(naive.conflicts));
}

// ---- microbenchmarks ------------------------------------------------------

void BM_VectorClockMergeCompare(benchmark::State& state) {
  membership::VectorClock a, b;
  for (NodeId n = 0; n < 16; ++n) {
    for (int t = 0; t < int(n) + 1; ++t) a.Tick(n);
    for (int t = 0; t < 16 - int(n); ++t) b.Tick(n);
  }
  for (auto _ : state) {
    membership::VectorClock m = a;
    m.MergeFrom(b);
    benchmark::DoNotOptimize(membership::VectorClock::Compare(m, b));
  }
}
BENCHMARK(BM_VectorClockMergeCompare);

void BM_OwnershipTableJoin(benchmark::State& state) {
  const int keys = int(state.range(0));
  membership::OwnershipTable a, b;
  for (int k = 0; k < keys; ++k) {
    a.Claim(uint64_t(k), NodeId(k % 4), 0);
    b.Claim(uint64_t(k), NodeId((k + 1) % 4), 1);
  }
  for (auto _ : state) {
    membership::OwnershipTable merged = a;
    benchmark::DoNotOptimize(merged.Join(b).conflicts);
  }
  state.SetItemsProcessed(state.iterations() * keys);
}
BENCHMARK(BM_OwnershipTableJoin)->Arg(64)->Arg(1024);

void BM_PhiAccrualUpdate(benchmark::State& state) {
  membership::PhiAccrualDetector det;
  SimTime t = 0;
  for (auto _ : state) {
    t += 50 * kMillisecond;
    det.Heartbeat(t);
    benchmark::DoNotOptimize(det.Phi(t + 75 * kMillisecond));
  }
}
BENCHMARK(BM_PhiAccrualUpdate);

void BM_MembershipConvergence(benchmark::State& state) {
  // Full cost of one partition + heal cycle on a five-node cluster,
  // simulated end to end.
  for (auto _ : state) {
    sim::Simulation sim;
    ClusterTransport transport(kNodes);
    MembershipConfig cfg;
    cfg.num_nodes = kNodes;
    MembershipService membership(&sim, &transport, cfg);
    membership.Start();
    sim.RunUntil(2 * kSecond);
    transport.PartitionGroups(kMinorityMask);
    sim.RunUntil(6 * kSecond);
    transport.Heal();
    sim.RunUntil(10 * kSecond);
    benchmark::DoNotOptimize(membership.stats().epoch_transitions);
  }
}
BENCHMARK(BM_MembershipConvergence);

}  // namespace
}  // namespace taureau

TAUREAU_BENCH_MAIN(taureau::RunExperiment)
