// Tests for the taureau::chaos fault-injection subsystem: deterministic
// plans and logs, per-layer injection + recovery (cluster, faas, pubsub,
// jiffy, orchestration), retry policies, circuit breaking, idempotency.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "chaos/circuit_breaker.h"
#include "chaos/fault_plan.h"
#include "chaos/idempotency.h"
#include "chaos/injector.h"
#include "chaos/retry_policy.h"
#include "cluster/cluster.h"
#include "faas/platform.h"
#include "faas/server_pool.h"
#include "jiffy/controller.h"
#include "orchestration/orchestrator.h"
#include "pubsub/broker.h"
#include "sim/simulation.h"

namespace taureau::chaos {
namespace {

// -------------------------------------------------------------- FaultPlan

FaultPlanConfig BusyConfig() {
  FaultPlanConfig cfg;
  cfg.horizon_us = 30 * kSecond;
  cfg.machine_crash_per_s = 0.5;
  cfg.num_machines = 8;
  cfg.container_kill_per_s = 1.0;
  cfg.network_delay_per_s = 0.5;
  cfg.partition_per_s = 0.2;
  cfg.bookie_crash_per_s = 0.3;
  cfg.num_bookies = 6;
  cfg.memory_node_fail_per_s = 0.3;
  cfg.num_memory_nodes = 4;
  cfg.message_drop_per_s = 0.5;
  cfg.message_duplicate_per_s = 0.5;
  cfg.step_redeliver_per_s = 0.5;
  return cfg;
}

TEST(FaultPlanTest, SameSeedSamePlan) {
  Rng a(123), b(123);
  const FaultPlan pa = FaultPlan::Generate(BusyConfig(), &a);
  const FaultPlan pb = FaultPlan::Generate(BusyConfig(), &b);
  EXPECT_EQ(pa, pb);
  EXPECT_EQ(pa.ToString(), pb.ToString());
  EXPECT_GT(pa.size(), 0u);
}

TEST(FaultPlanTest, DifferentSeedsDiverge) {
  Rng a(123), b(124);
  const FaultPlan pa = FaultPlan::Generate(BusyConfig(), &a);
  const FaultPlan pb = FaultPlan::Generate(BusyConfig(), &b);
  EXPECT_NE(pa.ToString(), pb.ToString());
}

TEST(FaultPlanTest, EventsSortedAndPaired) {
  Rng rng(7);
  const FaultPlan plan = FaultPlan::Generate(BusyConfig(), &rng);
  for (size_t i = 1; i < plan.events().size(); ++i) {
    EXPECT_LE(plan.events()[i - 1].at_us, plan.events()[i].at_us);
  }
  // Every crash schedules its restart; same for partitions and bookies.
  EXPECT_EQ(plan.CountKind(FaultKind::kMachineCrash),
            plan.CountKind(FaultKind::kMachineRestart));
  EXPECT_EQ(plan.CountKind(FaultKind::kNetworkPartition),
            plan.CountKind(FaultKind::kPartitionHeal));
  EXPECT_EQ(plan.CountKind(FaultKind::kBookieCrash),
            plan.CountKind(FaultKind::kBookieRecover));
  // Each heal lands kPartitionHealAfterUs after its partition, on the same
  // machine; each delay spike adds kNetworkDelayUs.
  std::vector<std::pair<SimTime, uint64_t>> due, healed;
  for (const FaultEvent& e : plan.events()) {
    if (e.kind == FaultKind::kNetworkPartition) {
      due.emplace_back(e.at_us + kPartitionHealAfterUs, e.target);
    } else if (e.kind == FaultKind::kPartitionHeal) {
      healed.emplace_back(e.at_us, e.target);
    } else if (e.kind == FaultKind::kNetworkDelay) {
      EXPECT_EQ(e.param, uint64_t(kNetworkDelayUs));
    }
  }
  std::sort(due.begin(), due.end());
  std::sort(healed.begin(), healed.end());
  EXPECT_FALSE(due.empty());
  EXPECT_EQ(due, healed);
  EXPECT_GT(plan.CountKind(FaultKind::kNetworkDelay), 0u);
}

TEST(FaultPlanTest, ZeroRatesEmptyPlan) {
  Rng rng(1);
  FaultPlanConfig cfg;  // all rates zero
  EXPECT_TRUE(FaultPlan::Generate(cfg, &rng).empty());
}

// ------------------------------------------------------------ RetryPolicy

TEST(RetryPolicyTest, BackoffGrowsAndCaps) {
  RetryPolicy p = RetryPolicy::ExponentialJitter(6, 10 * kMillisecond, 0.0);
  EXPECT_EQ(p.BackoffFor(0, nullptr), 10 * kMillisecond);
  EXPECT_EQ(p.BackoffFor(1, nullptr), 20 * kMillisecond);
  EXPECT_EQ(p.BackoffFor(2, nullptr), 40 * kMillisecond);
  p.max_backoff_us = 25 * kMillisecond;
  EXPECT_EQ(p.BackoffFor(2, nullptr), 25 * kMillisecond);
}

TEST(RetryPolicyTest, JitterStaysWithinBand) {
  RetryPolicy p = RetryPolicy::ExponentialJitter(3, 100 * kMillisecond, 0.2);
  Rng rng(5);
  for (int i = 0; i < 100; ++i) {
    const SimDuration b = p.BackoffFor(0, &rng);
    EXPECT_GE(b, 80 * kMillisecond);
    EXPECT_LE(b, 120 * kMillisecond);
  }
}

TEST(RetryPolicyTest, ShouldRetryHonorsBudget) {
  const RetryPolicy p = RetryPolicy::Immediate(3);
  EXPECT_TRUE(p.ShouldRetry(0));
  EXPECT_TRUE(p.ShouldRetry(1));
  EXPECT_FALSE(p.ShouldRetry(2));
  EXPECT_FALSE(RetryPolicy::None().ShouldRetry(0));
}

// --------------------------------------------------------- CircuitBreaker

TEST(CircuitBreakerTest, TripsOpensAndRecovers) {
  CircuitBreaker::Config cfg;
  cfg.failure_threshold = 3;
  cfg.open_duration_us = 1 * kSecond;
  CircuitBreaker cb(cfg);
  EXPECT_TRUE(cb.AllowRequest(0));
  cb.RecordFailure(10);
  cb.RecordFailure(20);
  EXPECT_EQ(cb.state(20), CircuitBreaker::State::kClosed);
  cb.RecordFailure(30);  // third consecutive failure trips it
  EXPECT_EQ(cb.state(30), CircuitBreaker::State::kOpen);
  EXPECT_FALSE(cb.AllowRequest(40));
  EXPECT_EQ(cb.shed_count(), 1u);
  // After the open window one probe is admitted (half-open).
  EXPECT_TRUE(cb.AllowRequest(30 + 1 * kSecond + 1));
  cb.RecordSuccess(30 + 1 * kSecond + 2);
  EXPECT_EQ(cb.state(30 + 1 * kSecond + 2), CircuitBreaker::State::kClosed);
}

TEST(CircuitBreakerTest, HalfOpenFailureReopens) {
  CircuitBreaker::Config cfg;
  cfg.failure_threshold = 1;
  cfg.open_duration_us = 100;
  CircuitBreaker cb(cfg);
  cb.RecordFailure(0);
  EXPECT_EQ(cb.state(0), CircuitBreaker::State::kOpen);
  EXPECT_TRUE(cb.AllowRequest(200));  // probe
  cb.RecordFailure(201);
  EXPECT_EQ(cb.state(201), CircuitBreaker::State::kOpen);
  EXPECT_EQ(cb.trip_count(), 2u);
}

// ------------------------------------------------------- IdempotencyCache

TEST(CircuitBreakerTest, HalfOpenAdmitsOnlyConfiguredProbes) {
  CircuitBreaker::Config cfg;
  cfg.failure_threshold = 1;
  cfg.open_duration_us = 100;
  cfg.half_open_probes = 1;
  CircuitBreaker cb(cfg);
  cb.RecordFailure(0);
  ASSERT_EQ(cb.state(0), CircuitBreaker::State::kOpen);
  EXPECT_TRUE(cb.AllowRequest(150));  // the single probe
  EXPECT_EQ(cb.state(150), CircuitBreaker::State::kHalfOpen);
  // A second request during the same half-open window is shed, and the
  // breaker stays half-open waiting on the in-flight probe.
  const uint64_t shed_before = cb.shed_count();
  EXPECT_FALSE(cb.AllowRequest(160));
  EXPECT_EQ(cb.shed_count(), shed_before + 1);
  EXPECT_EQ(cb.state(160), CircuitBreaker::State::kHalfOpen);
  cb.RecordSuccess(170);
  EXPECT_EQ(cb.state(170), CircuitBreaker::State::kClosed);
}

TEST(CircuitBreakerTest, HalfOpenSuccessResetsFailureCount) {
  CircuitBreaker::Config cfg;
  cfg.failure_threshold = 2;
  cfg.open_duration_us = 100;
  CircuitBreaker cb(cfg);
  cb.RecordFailure(0);
  cb.RecordFailure(1);  // trips
  ASSERT_EQ(cb.state(1), CircuitBreaker::State::kOpen);
  EXPECT_TRUE(cb.AllowRequest(150));
  cb.RecordSuccess(151);
  EXPECT_EQ(cb.consecutive_failures(), 0);
  // Closing cleared the streak: one new failure must not re-trip.
  cb.RecordFailure(200);
  EXPECT_EQ(cb.state(200), CircuitBreaker::State::kClosed);
  cb.RecordFailure(201);  // ...but a full fresh streak does
  EXPECT_EQ(cb.state(201), CircuitBreaker::State::kOpen);
  EXPECT_EQ(cb.trip_count(), 2u);
}

TEST(CircuitBreakerTest, ReopenAfterProbeFailureStartsFreshWindow) {
  CircuitBreaker::Config cfg;
  cfg.failure_threshold = 1;
  cfg.open_duration_us = 100;
  CircuitBreaker cb(cfg);
  cb.RecordFailure(0);
  EXPECT_TRUE(cb.AllowRequest(150));  // probe
  cb.RecordFailure(160);              // probe fails -> re-opens at t=160
  EXPECT_EQ(cb.state(160), CircuitBreaker::State::kOpen);
  // The open window restarts from the re-open, not the original trip.
  EXPECT_FALSE(cb.AllowRequest(200));
  EXPECT_FALSE(cb.AllowRequest(259));
  EXPECT_TRUE(cb.AllowRequest(261));
}

TEST(CircuitBreakerTest, OpenWindowShedsEveryRequestUntilExpiry) {
  CircuitBreaker::Config cfg;
  cfg.failure_threshold = 1;
  cfg.open_duration_us = 1 * kSecond;
  CircuitBreaker cb(cfg);
  cb.RecordFailure(0);
  for (SimTime t = 1; t <= 1000; t += 100) {
    EXPECT_FALSE(cb.AllowRequest(t)) << "t=" << t;
  }
  EXPECT_EQ(cb.shed_count(), 10u);
  EXPECT_EQ(cb.state(1000), CircuitBreaker::State::kOpen);
  EXPECT_TRUE(cb.AllowRequest(1 * kSecond + 1));
}

TEST(IdempotencyTest, FirstWriterWinsAndHitsCount) {
  IdempotencyCache cache;
  EXPECT_EQ(cache.Lookup("k"), nullptr);
  EXPECT_TRUE(cache.Record("k", Status::OK(), "v1"));
  EXPECT_FALSE(cache.Record("k", Status::OK(), "v2"));
  const auto* e = cache.Lookup("k");
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->output, "v1");
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.duplicate_records(), 1u);
}

TEST(IdempotencyTest, SameKeyDifferentPayloadKeepsFirstRecord) {
  IdempotencyCache cache;
  ASSERT_TRUE(cache.Record("k", Status::OK(), "committed"));
  // A duplicate delivery carrying a *different* payload (e.g. the retry
  // raced a concurrent writer) must not overwrite the recorded outcome —
  // not even its status.
  EXPECT_FALSE(cache.Record("k", Status::Aborted("raced"), "other"));
  const auto* e = cache.Lookup("k");
  ASSERT_NE(e, nullptr);
  EXPECT_TRUE(e->status.ok());
  EXPECT_EQ(e->output, "committed");
  EXPECT_EQ(cache.duplicate_records(), 1u);
  EXPECT_EQ(cache.size(), 1u);
}

// ------------------------------------------------- Determinism end-to-end

/// A full five-layer world under one fault plan; used by the determinism
/// and availability tests below.
struct ChaosWorld {
  sim::Simulation sim;
  InjectorRegistry registry{&sim};
  cluster::Cluster cluster{8, {32000, 65536}};
  std::unique_ptr<faas::FaasPlatform> platform;
  std::unique_ptr<pubsub::PulsarCluster> pulsar;
  std::unique_ptr<jiffy::JiffyController> jiffy_ctl;
  std::unique_ptr<orchestration::Orchestrator> orchestrator;

  explicit ChaosWorld(uint64_t seed) {
    faas::FaasConfig fcfg;
    fcfg.seed = seed;
    fcfg.retry = RetryPolicy::ExponentialJitter(4, 5 * kMillisecond, 0.2);
    platform = std::make_unique<faas::FaasPlatform>(&sim, &cluster, fcfg);
    pubsub::PulsarConfig pcfg;
    pcfg.num_bookies = 6;
    pcfg.seed = seed + 1;
    pulsar = std::make_unique<pubsub::PulsarCluster>(&sim, pcfg);
    jiffy::JiffyConfig jcfg;
    jcfg.num_memory_nodes = 4;
    jcfg.blocks_per_node = 64;
    jcfg.block_size_bytes = 1024;
    jiffy_ctl = std::make_unique<jiffy::JiffyController>(&sim, jcfg);
    orchestrator =
        std::make_unique<orchestration::Orchestrator>(&sim, platform.get());

    cluster.AttachChaos(&registry);
    platform->AttachChaos(&registry);
    pulsar->AttachChaos(&registry);
    jiffy_ctl->AttachChaos(&registry);
    orchestrator->AttachChaos(&registry);

    faas::FunctionSpec spec;
    spec.name = "work";
    spec.exec = {faas::ExecTimeModel::Kind::kFixed, 20 * kMillisecond, 0, 0};
    spec.init_us = 50 * kMillisecond;
    platform->RegisterFunction(spec);
  }

  /// Drives a fixed workload under a seeded fault plan; returns the log.
  std::string RunScenario(uint64_t plan_seed) {
    pubsub::TopicConfig topic;
    topic.ensemble_size = 3;
    topic.write_quorum = 2;
    topic.ack_quorum = 2;
    pulsar->CreateTopic("events", topic);
    jiffy_ctl->CreateNamespace("/job", -1);
    auto* table = *jiffy_ctl->CreateHashTable("/job", "state", 2);

    Rng rng(plan_seed);
    FaultPlanConfig cfg = BusyConfig();
    cfg.horizon_us = 10 * kSecond;
    registry.Arm(FaultPlan::Generate(cfg, &rng));

    for (int i = 0; i < 50; ++i) {
      sim.ScheduleAt(i * 100 * kMillisecond, [this, table, i] {
        platform->Invoke("work", "req-" + std::to_string(i), nullptr);
        pulsar->Publish("events", "k" + std::to_string(i % 4), "payload");
        table->Put("key-" + std::to_string(i), "value");
      });
    }
    sim.Run();
    return registry.log().ToString();
  }
};

TEST(ChaosDeterminismTest, SameSeedSameFaultLog) {
  ChaosWorld a(99), b(99);
  const std::string log_a = a.RunScenario(7);
  const std::string log_b = b.RunScenario(7);
  EXPECT_FALSE(log_a.empty());
  EXPECT_EQ(log_a, log_b);  // byte-identical ledger, injections + recoveries
  EXPECT_GT(a.registry.log().recovery_count(), 0u);
}

TEST(ChaosDeterminismTest, AllFiveLayersRegisterHooks) {
  ChaosWorld w(1);
  const auto modules = w.registry.modules();
  EXPECT_EQ(modules.size(), 5u);
  for (const char* m :
       {"cluster", "faas", "jiffy", "orchestration", "pubsub"}) {
    EXPECT_NE(std::find(modules.begin(), modules.end(), m), modules.end())
        << m;
  }
}

// ------------------------------------------------- Per-layer injection

TEST(ClusterChaosTest, CrashEvictsAndRestartRecovers) {
  sim::Simulation sim;
  InjectorRegistry registry(&sim);
  cluster::Cluster cl(4, {32000, 65536});
  cl.AttachChaos(&registry);
  auto unit = cl.Allocate(cluster::IsolationLevel::kVirtualMachine,
                          {1000, 1024}, cluster::PlacementPolicy::kFirstFit,
                          "t");
  ASSERT_TRUE(unit.ok());
  const auto machine = *cl.MachineOf(*unit);

  registry.Inject({0, FaultKind::kMachineCrash, machine, 0});
  EXPECT_TRUE(cl.MachineOf(*unit).status().IsNotFound());  // evicted
  EXPECT_EQ(cl.usable_machine_count(), 3u);
  registry.Inject({0, FaultKind::kMachineRestart, machine, 0});
  EXPECT_EQ(cl.usable_machine_count(), 4u);
  EXPECT_EQ(registry.log().CountKind(FaultKind::kMachineCrash, true), 1u);
}

TEST(ClusterChaosTest, PartitionBlocksPlacementUntilHealed) {
  sim::Simulation sim;
  InjectorRegistry registry(&sim);
  cluster::Cluster cl(1, {32000, 65536});
  cl.AttachChaos(&registry);
  registry.Inject({0, FaultKind::kNetworkPartition, 0, 0});
  EXPECT_FALSE(cl.MachineUsable(0));
  auto unit = cl.Allocate(cluster::IsolationLevel::kVirtualMachine,
                          {1000, 1024}, cluster::PlacementPolicy::kFirstFit,
                          "t");
  EXPECT_TRUE(unit.status().IsResourceExhausted());
  registry.Inject({0, FaultKind::kPartitionHeal, 0, 0});
  EXPECT_TRUE(cl.MachineUsable(0));
  EXPECT_EQ(registry.log().CountKind(FaultKind::kNetworkPartition, true), 1u);
}

TEST(FaasChaosTest, ContainerKillRetriesToSuccess) {
  sim::Simulation sim;
  InjectorRegistry registry(&sim);
  cluster::Cluster cl(4, {32000, 65536});
  faas::FaasConfig cfg;
  cfg.retry = RetryPolicy::ExponentialJitter(3, 5 * kMillisecond, 0.0);
  faas::FaasPlatform platform(&sim, &cl, cfg);
  cl.AttachChaos(&registry);
  platform.AttachChaos(&registry);

  faas::FunctionSpec spec;
  spec.name = "fn";
  spec.exec = {faas::ExecTimeModel::Kind::kFixed, 100 * kMillisecond, 0, 0};
  platform.RegisterFunction(spec);

  std::optional<faas::InvocationResult> out;
  platform.Invoke("fn", "x",
                  [&out](const faas::InvocationResult& r) { out = r; });
  // Kill the container mid-execution; the attempt fails and retries.
  sim.Schedule(60 * kMillisecond, [&registry] {
    registry.Inject({0, FaultKind::kContainerKill, 0, 0});
  });
  sim.Run();
  ASSERT_TRUE(out.has_value());
  EXPECT_TRUE(out->status.ok());
  EXPECT_GE(out->attempts, 2);
  EXPECT_EQ(platform.metrics().killed_containers, 1u);
  EXPECT_EQ(platform.metrics().chaos_recoveries, 1u);
  EXPECT_EQ(registry.log().CountKind(FaultKind::kContainerKill, true), 1u);
}

TEST(FaasChaosTest, MachineCrashKillsItsContainersOnly) {
  sim::Simulation sim;
  InjectorRegistry registry(&sim);
  cluster::Cluster cl(2, {4000, 8192});
  faas::FaasConfig cfg;
  cfg.retry = RetryPolicy::Immediate(2);
  faas::FaasPlatform platform(&sim, &cl, cfg);
  cl.AttachChaos(&registry);
  platform.AttachChaos(&registry);

  faas::FunctionSpec spec;
  spec.name = "fn";
  spec.demand = {2000, 2048};  // two containers fill a machine
  spec.exec = {faas::ExecTimeModel::Kind::kFixed, 200 * kMillisecond, 0, 0};
  platform.RegisterFunction(spec);

  int ok = 0;
  for (int i = 0; i < 4; ++i) {
    platform.Invoke("fn", "x", [&ok](const faas::InvocationResult& r) {
      if (r.status.ok()) ++ok;
    });
  }
  sim.Schedule(50 * kMillisecond, [&registry] {
    registry.Inject({0, FaultKind::kMachineCrash, 0, 0});
  });
  sim.Run();
  EXPECT_EQ(ok, 4);  // everything retried onto the surviving machine
  EXPECT_EQ(platform.metrics().killed_containers, 2u);
}

TEST(FaasChaosTest, NetworkDelaySpikeInflatesDispatchThenDecays) {
  sim::Simulation sim;
  InjectorRegistry registry(&sim);
  cluster::Cluster cl(4, {32000, 65536});
  faas::FaasConfig cfg;
  cfg.network_delay_window_us = 500 * kMillisecond;
  faas::FaasPlatform platform(&sim, &cl, cfg);
  platform.AttachChaos(&registry);
  registry.Inject({0, FaultKind::kNetworkDelay, 0, 50 * kMillisecond});
  EXPECT_EQ(platform.injected_dispatch_delay_us(), 50 * kMillisecond);
  sim.Run();  // the decay event restores the baseline
  EXPECT_EQ(platform.injected_dispatch_delay_us(), 0);
}

TEST(PubsubChaosTest, ReadsSucceedAfterBookieCrashViaReReplication) {
  sim::Simulation sim;
  InjectorRegistry registry(&sim);
  pubsub::PulsarConfig cfg;
  cfg.num_bookies = 5;
  pubsub::PulsarCluster pulsar(&sim, cfg);
  pulsar.AttachChaos(&registry);

  auto& bk = pulsar.bookkeeper();
  auto ledger = bk.CreateLedger(3, 2, 2);
  ASSERT_TRUE(ledger.ok());
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(bk.Append(*ledger, "entry-" + std::to_string(i), 0).ok());
  }
  // Crash every original ensemble member, one at a time, through the
  // registry. Re-replication restores the write quorum after each crash,
  // so all 30 entries stay readable even though all three original
  // replicas' hosts are gone.
  const auto original = (*bk.GetLedger(*ledger))->ensemble();
  for (pubsub::BookieId b : original) {
    registry.Inject({0, FaultKind::kBookieCrash, b, 0});
    for (int i = 0; i < 30; ++i) {
      EXPECT_TRUE(bk.Read(*ledger, i).ok()) << "bookie " << b << " entry " << i;
    }
    registry.Inject({0, FaultKind::kBookieRecover, b, 0});
  }
  EXPECT_EQ(registry.log().CountKind(FaultKind::kBookieCrash, true), 3u);
}

TEST(PubsubChaosTest, DropAndDuplicateArmNextPublish) {
  sim::Simulation sim;
  InjectorRegistry registry(&sim);
  pubsub::PulsarCluster pulsar(&sim, {});
  pulsar.AttachChaos(&registry);
  pulsar.CreateTopic("t", {});
  uint64_t delivered = 0;
  pulsar.Subscribe("t", "sub", pubsub::SubscriptionType::kShared,
                   [&](const pubsub::Message&) { ++delivered; });

  registry.Inject({0, FaultKind::kMessageDrop, 0, 0});
  EXPECT_TRUE(pulsar.Publish("t", "", "lost").status().IsUnavailable());
  EXPECT_EQ(pulsar.metrics().dropped, 1u);

  registry.Inject({0, FaultKind::kMessageDuplicate, 0, 0});
  EXPECT_TRUE(pulsar.Publish("t", "", "twice").ok());
  sim.Run();
  EXPECT_EQ(pulsar.metrics().duplicated, 1u);
  EXPECT_EQ(delivered, 2u);  // at-least-once: consumer saw it twice
}

TEST(JiffyChaosTest, NodeFailureRehomesBlocks) {
  sim::Simulation sim;
  InjectorRegistry registry(&sim);
  jiffy::JiffyConfig cfg;
  cfg.num_memory_nodes = 4;
  cfg.blocks_per_node = 16;
  cfg.block_size_bytes = 256;
  jiffy::JiffyController ctl(&sim, cfg);
  ctl.AttachChaos(&registry);
  ASSERT_TRUE(ctl.CreateNamespace("/app", -1).ok());
  auto* table = *ctl.CreateHashTable("/app", "kv");
  const std::string value(200, 'v');
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(table->Put("k" + std::to_string(i), value).status.ok());
  }
  const uint64_t used_before = ctl.pool().used_blocks();
  ASSERT_GT(used_before, 0u);

  // Fail node 0: its blocks move to healthy nodes, data stays readable.
  registry.Inject({0, FaultKind::kMemoryNodeFail, 0, 0});
  EXPECT_GT(ctl.stats().blocks_rehomed, 0u);
  EXPECT_EQ(ctl.pool().used_blocks(), used_before);
  std::string got;
  for (int i = 0; i < 40; ++i) {
    EXPECT_TRUE(table->Get("k" + std::to_string(i), &got).status.ok());
    EXPECT_EQ(got, value);
  }
  EXPECT_EQ(registry.log().CountKind(FaultKind::kMemoryNodeFail, true), 1u);
  registry.Inject({0, FaultKind::kMemoryNodeRecover, 0, 0});
  EXPECT_FALSE(ctl.pool().NodeFailed(0));
}

// ------------------------------------------ Orchestration + idempotency

struct OrchFixture {
  sim::Simulation sim;
  cluster::Cluster cluster{8, {32000, 65536}};
  faas::FaasPlatform platform{&sim, &cluster, {}};
  orchestration::Orchestrator orch{&sim, &platform};
  int side_effects = 0;

  OrchFixture() {
    faas::FunctionSpec spec;
    spec.name = "step";
    spec.exec = {faas::ExecTimeModel::Kind::kFixed, 10 * kMillisecond, 0, 0};
    spec.handler = [this](const std::string& payload,
                          faas::InvocationContext&) -> Result<std::string> {
      ++side_effects;
      return "out:" + payload;
    };
    platform.RegisterFunction(spec);
  }
};

TEST(OrchestrationChaosTest, IdempotencyKeysDedupeDoubleDelivery) {
  OrchFixture f;
  InjectorRegistry registry(&f.sim);
  f.orch.AttachChaos(&registry);

  const auto comp = orchestration::Composition::Sequence(
      {orchestration::Composition::Task("step"),
       orchestration::Composition::Task("step")});

  // Arm two step re-deliveries: each completed keyed step is delivered
  // twice, and the idempotency cache absorbs the duplicates.
  registry.Inject({0, FaultKind::kStepRedeliver, 0, 0});
  registry.Inject({0, FaultKind::kStepRedeliver, 0, 0});
  auto res = f.orch.RunKeyedSync("run-1", comp, "in");
  ASSERT_TRUE(res.ok());
  EXPECT_TRUE(res->status.ok());
  EXPECT_EQ(f.side_effects, 2);  // two steps, no double-applied effects
  EXPECT_EQ(f.orch.stats().redelivered_steps, 2u);
  EXPECT_EQ(f.orch.stats().deduped_steps, 2u);
  EXPECT_EQ(registry.log().CountKind(FaultKind::kStepRedeliver, true), 2u);
}

TEST(OrchestrationChaosTest, KeyedRetryReplaysSucceededSteps) {
  OrchFixture f;
  // Fails the first orchestration attempt outright (3 calls = the
  // platform's whole transparent-retry budget), then succeeds.
  int step2_calls = 0;
  faas::FunctionSpec flaky;
  flaky.name = "flaky";
  flaky.exec = {faas::ExecTimeModel::Kind::kFixed, 5 * kMillisecond, 0, 0};
  flaky.handler =
      [&step2_calls](const std::string&,
                     faas::InvocationContext&) -> Result<std::string> {
    if (++step2_calls <= 3) return Status::Aborted("transient");
    return std::string("done");
  };
  f.platform.RegisterFunction(flaky);

  const auto comp = orchestration::Composition::Retry(
      orchestration::Composition::Sequence(
          {orchestration::Composition::Task("step"),
           orchestration::Composition::Task("flaky")}),
      RetryPolicy::ExponentialJitter(3, 10 * kMillisecond, 0.0));

  auto res = f.orch.RunKeyedSync("run-2", comp, "in");
  ASSERT_TRUE(res.ok());
  EXPECT_TRUE(res->status.ok());
  // "step" ran once: the retry replayed it from the idempotency cache.
  EXPECT_EQ(f.side_effects, 1);
  EXPECT_GE(f.orch.idempotency().hits(), 1u);
}

TEST(OrchestrationChaosTest, DistinctRunKeysDoNotShareResults) {
  OrchFixture f;
  const auto comp = orchestration::Composition::Task("step");
  ASSERT_TRUE(f.orch.RunKeyedSync("run-a", comp, "in").ok());
  ASSERT_TRUE(f.orch.RunKeyedSync("run-b", comp, "in").ok());
  EXPECT_EQ(f.side_effects, 2);
}

TEST(OrchestrationChaosTest, SameRunKeyDifferentInputBothExecute) {
  OrchFixture f;
  const auto comp = orchestration::Composition::Task("step");
  // The step key hashes the input, so the same run key with different
  // inputs is two distinct units of work, not a replay.
  auto r1 = f.orch.RunKeyedSync("run-x", comp, "in-1");
  auto r2 = f.orch.RunKeyedSync("run-x", comp, "in-2");
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(f.side_effects, 2);
  EXPECT_EQ(r1->output, "out:in-1");
  EXPECT_EQ(r2->output, "out:in-2");
  EXPECT_EQ(f.orch.stats().deduped_steps, 0u);
}

TEST(OrchestrationChaosTest, SameRunKeySameInputReplaysAcrossRuns) {
  OrchFixture f;
  const auto comp = orchestration::Composition::Task("step");
  auto r1 = f.orch.RunKeyedSync("run-x", comp, "in");
  auto r2 = f.orch.RunKeyedSync("run-x", comp, "in");
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(f.side_effects, 1);  // the second run replayed the cache
  EXPECT_EQ(r2->output, r1->output);
  EXPECT_EQ(r2->function_invocations, 0u);  // nothing re-invoked
  EXPECT_EQ(f.orch.stats().deduped_steps, 1u);
}

TEST(FaasChaosTest, RecoveryCountersMatchFaultLog) {
  sim::Simulation sim;
  InjectorRegistry registry(&sim);
  cluster::Cluster cl(4, {32000, 65536});
  faas::FaasConfig cfg;
  cfg.retry = RetryPolicy::ExponentialJitter(3, 5 * kMillisecond, 0.0);
  faas::FaasPlatform platform(&sim, &cl, cfg);
  cl.AttachChaos(&registry);
  platform.AttachChaos(&registry);
  faas::FunctionSpec spec;
  spec.name = "fn";
  spec.exec = {faas::ExecTimeModel::Kind::kFixed, 100 * kMillisecond, 0, 0};
  platform.RegisterFunction(spec);

  platform.Invoke("fn", "x", nullptr);
  sim.Schedule(60 * kMillisecond, [&registry] {
    registry.Inject({0, FaultKind::kContainerKill, 0, 0});
  });
  sim.Run();
  // The registry's counters (the obs-registry-backed ones) agree with the
  // authoritative fault log.
  EXPECT_EQ(registry.injected(), registry.log().injected_count());
  EXPECT_EQ(registry.recovered(), registry.log().recovery_count());
  EXPECT_EQ(registry.recovered(), 1u);
}

TEST(OrchestrationChaosTest, RetryBackoffDelaysReattempts) {
  OrchFixture f;
  faas::FunctionSpec failing;
  failing.name = "always-fails";
  failing.exec = {faas::ExecTimeModel::Kind::kFixed, 1 * kMillisecond, 0, 0};
  failing.handler = [](const std::string&,
                       faas::InvocationContext&) -> Result<std::string> {
    return Status::Aborted("no");
  };
  f.platform.RegisterFunction(failing);

  // 3 attempts with 100ms then 200ms backoff: makespan >= 300ms.
  const auto comp = orchestration::Composition::Retry(
      orchestration::Composition::Task("always-fails"),
      RetryPolicy::ExponentialJitter(3, 100 * kMillisecond, 0.0));
  auto res = f.orch.RunSync(comp, "in");
  ASSERT_TRUE(res.ok());
  EXPECT_FALSE(res->status.ok());
  EXPECT_GE(res->Makespan(), 300 * kMillisecond);
}

// ------------------------------------------------- ServerPool breaker

TEST(ServerPoolChaosTest, BreakerShedsToHandlerUnderOverload) {
  sim::Simulation sim;
  faas::ServerPoolConfig cfg;
  cfg.num_servers = 1;
  cfg.per_server_concurrency = 1;
  cfg.enable_breaker = true;
  cfg.max_queue_depth = 2;
  cfg.breaker.failure_threshold = 3;
  cfg.breaker.open_duration_us = 10 * kSecond;
  faas::ServerPool pool(&sim, cfg);
  int spilled = 0;
  pool.set_shed_handler([&spilled](SimDuration) { ++spilled; });

  // Flood a 1-slot pool: the backlog exceeds max_queue_depth, trips the
  // breaker, and later arrivals shed to the handler instead of queueing.
  for (int i = 0; i < 12; ++i) {
    pool.Submit(1 * kSecond);
  }
  EXPECT_GT(pool.shed_requests(), 0u);
  EXPECT_EQ(int(pool.shed_requests()), spilled);
  EXPECT_EQ(pool.breaker().trip_count(), 1u);
  sim.Run();
}

}  // namespace
}  // namespace taureau::chaos
