// Tests for taureau::ctrl — the live control plane (E28).
//
// Covers the versioned typed store (type/range validation, monotonic
// versions, registration-ordered watchers), the sim-aware push path
// (propagation delay, chaos-delayed pushes never applying out of version
// order, corrupt payload rejection, scoped overrides + retract), the live
// wiring into guard and the FaaS keep-alive, and the SLO-gated rollout
// controller (advance-on-health, rollback-on-burn, deterministic canary
// ranking) — including a psim differential that byte-compares rollout
// decisions and per-shard apply ledgers across worker thread counts.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "chaos/fault_plan.h"
#include "chaos/injector.h"
#include "cluster/cluster.h"
#include "common/time_types.h"
#include "ctrl/config.h"
#include "ctrl/rollout.h"
#include "faas/platform.h"
#include "guard/guard.h"
#include "obs/observability.h"
#include "psim/psim.h"
#include "sim/simulation.h"

namespace taureau {
namespace {

using ctrl::ConfigService;
using ctrl::ConfigSpec;
using ctrl::ConfigStore;
using ctrl::ConfigUpdate;
using ctrl::ConfigValue;
using ctrl::RolloutController;
using ctrl::RolloutPolicy;
using ctrl::RolloutState;

// Spec literal helper: tests don't carry descriptions.
ctrl::ConfigSpec Spec(std::string key, ConfigValue def,
                      double min_value = -std::numeric_limits<double>::infinity(),
                      double max_value = std::numeric_limits<double>::infinity()) {
  ctrl::ConfigSpec spec;
  spec.key = std::move(key);
  spec.default_value = std::move(def);
  spec.min_value = min_value;
  spec.max_value = max_value;
  return spec;
}

// ------------------------------------------------------------------ store

TEST(ConfigStore, DefineTypedEntriesWithDefaults) {
  ConfigStore store;
  ASSERT_TRUE(store.Define(Spec("a.flag", ConfigValue::Bool(true)))
                  .ok());
  ASSERT_TRUE(store.Define(Spec("a.limit", ConfigValue::Int(42), 0, 100))
                  .ok());
  const ctrl::ConfigEntry* e = store.Find("a.limit");
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->value.as_int(), 42);
  EXPECT_EQ(e->version, 0u);  // still at the defined default
  EXPECT_TRUE(store.Find("a.flag")->value.as_bool());
  EXPECT_EQ(store.Find("missing"), nullptr);

  // Double definition of the same key is AlreadyExists.
  EXPECT_TRUE(store.Define(Spec("a.flag", ConfigValue::Bool(false)))
                  .IsAlreadyExists());
}

TEST(ConfigStore, ValidationRejectsTypeAndRange) {
  ConfigStore store;
  ASSERT_TRUE(store.Define(Spec("k", ConfigValue::Double(0.5), 0.0, 1.0))
                  .ok());
  EXPECT_TRUE(store.Validate("k", ConfigValue::Double(0.9)).ok());
  EXPECT_TRUE(store.Validate("k", ConfigValue::Str("x")).IsInvalidArgument());
  EXPECT_EQ(store.Validate("k", ConfigValue::Double(1.5)).code(),
            StatusCode::kOutOfRange);
  EXPECT_TRUE(store.Validate("nope", ConfigValue::Double(0.1)).IsNotFound());
}

TEST(ConfigStore, ApplyEnforcesMonotonicVersions) {
  ConfigStore store;
  ASSERT_TRUE(
      store.Define(Spec("k", ConfigValue::Int(1))).ok());
  EXPECT_TRUE(store.Apply("k", ConfigValue::Int(2), 1, 10).ok());
  EXPECT_TRUE(store.Apply("k", ConfigValue::Int(3), 2, 20).ok());
  // A stale (delayed) apply must be dropped, not applied out of order.
  EXPECT_TRUE(store.Apply("k", ConfigValue::Int(99), 2, 30).IsAborted());
  EXPECT_TRUE(store.Apply("k", ConfigValue::Int(99), 1, 30).IsAborted());
  EXPECT_EQ(store.Find("k")->value.as_int(), 3);
  EXPECT_EQ(store.Find("k")->version, 2u);
}

TEST(ConfigStore, WatchersFireInRegistrationOrder) {
  ConfigStore store;
  ASSERT_TRUE(
      store.Define(Spec("k", ConfigValue::Int(0))).ok());
  std::vector<int> order;
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(
        store.Watch("k", [&order, i](const ConfigUpdate&) {
          order.push_back(i);
        }).ok());
  }
  ASSERT_TRUE(store.Apply("k", ConfigValue::Int(1), 1, 0).ok());
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

// ---------------------------------------------------------------- service

TEST(ConfigService, PushAppliesAfterPropagationDelay) {
  sim::Simulation sim;
  ConfigService service(&sim, {.push_delay_us = 100 * kMillisecond});
  ASSERT_TRUE(service
                  .EnsureDefined(Spec("k", ConfigValue::Int(1)))
                  .ok());
  const uint64_t v = service.Push("k", ConfigValue::Int(7));
  EXPECT_EQ(v, 1u);
  // Not yet applied: the push is in flight.
  EXPECT_EQ(service.store().Find("k")->value.as_int(), 1);
  sim.Run();
  EXPECT_EQ(service.store().Find("k")->value.as_int(), 7);
  EXPECT_EQ(service.store().Find("k")->updated_at_us, 100 * kMillisecond);
  EXPECT_EQ(service.stats().applied, 1u);
}

// The chaos satellite test: a kConfigPushDelay-delayed push that is
// overtaken by a newer one must be dropped on arrival — the live value
// never moves backwards in version order.
TEST(ConfigService, DelayedPushNeverAppliesOutOfVersionOrder) {
  sim::Simulation sim;
  chaos::InjectorRegistry injector(&sim);
  ConfigService service(&sim, {.push_delay_us = 10 * kMillisecond});
  service.AttachChaos(&injector);
  ASSERT_TRUE(service
                  .EnsureDefined(Spec("k", ConfigValue::Int(0)))
                  .ok());
  std::vector<uint64_t> applied_versions;
  service.Subscribe("k", [&applied_versions](const ConfigUpdate& u) {
    applied_versions.push_back(u.version);
  });

  // Delay the next push by 1s: v1 will land at ~1.01s, v2 at 10ms.
  injector.Inject({.at_us = 0,
                   .kind = chaos::FaultKind::kConfigPushDelay,
                   .param = uint64_t(1 * kSecond)});
  const uint64_t v1 = service.Push("k", ConfigValue::Int(111));
  const uint64_t v2 = service.Push("k", ConfigValue::Int(222));
  ASSERT_LT(v1, v2);
  sim.Run();

  EXPECT_EQ(service.store().Find("k")->value.as_int(), 222);
  EXPECT_EQ(service.store().Find("k")->version, v2);
  EXPECT_EQ(service.stats().stale_dropped, 1u);
  EXPECT_EQ(service.stats().delayed, 1u);
  // The watcher saw only v2 — never a v1-after-v2 regression.
  EXPECT_EQ(applied_versions, (std::vector<uint64_t>{v2}));
}

// Property flavor: many pushes with chaos-armed delays scattered between
// them; applied versions must be strictly increasing and the final value
// must belong to the highest version that survived.
TEST(ConfigService, AppliedVersionsStrictlyIncreasingUnderRandomDelays) {
  sim::Simulation sim;
  chaos::InjectorRegistry injector(&sim);
  ConfigService service(&sim, {.push_delay_us = 5 * kMillisecond});
  service.AttachChaos(&injector);
  ASSERT_TRUE(service
                  .EnsureDefined(Spec("k", ConfigValue::Int(0)))
                  .ok());
  std::vector<uint64_t> applied_versions;
  service.Subscribe("k", [&applied_versions](const ConfigUpdate& u) {
    applied_versions.push_back(u.version);
  });
  Rng rng(2028);
  for (int i = 0; i < 50; ++i) {
    if (rng.NextBounded(2) == 0) {
      injector.Inject({.kind = chaos::FaultKind::kConfigPushDelay,
                       .param = rng.NextBounded(uint64_t(2 * kSecond))});
    }
    service.Push("k", ConfigValue::Int(i));
  }
  sim.Run();
  ASSERT_FALSE(applied_versions.empty());
  for (size_t i = 1; i < applied_versions.size(); ++i) {
    EXPECT_LT(applied_versions[i - 1], applied_versions[i]);
  }
  EXPECT_EQ(service.store().Find("k")->version, applied_versions.back());
  EXPECT_EQ(applied_versions.size() + service.stats().stale_dropped, 50u);
}

TEST(ConfigService, CorruptPushRejectedByTypedStore) {
  sim::Simulation sim;
  chaos::InjectorRegistry injector(&sim);
  ConfigService service(&sim);
  service.AttachChaos(&injector);
  ASSERT_TRUE(service
                  .EnsureDefined(Spec("k", ConfigValue::Int(5)))
                  .ok());
  injector.Inject({.kind = chaos::FaultKind::kConfigCorrupt});
  service.Push("k", ConfigValue::Int(9));
  sim.Run();
  // The mangled payload failed type validation; the live value is intact.
  EXPECT_EQ(service.store().Find("k")->value.as_int(), 5);
  EXPECT_EQ(service.stats().corrupted, 1u);
  EXPECT_EQ(service.stats().rejected, 1u);
  EXPECT_EQ(service.stats().applied, 0u);
  // The rejection is recorded as the recovery for the injected fault.
  EXPECT_EQ(injector.log().CountKind(chaos::FaultKind::kConfigCorrupt,
                                     /*recovery=*/true),
            1u);
  // A later clean push still applies (versions kept moving).
  service.Push("k", ConfigValue::Int(10));
  sim.Run();
  EXPECT_EQ(service.store().Find("k")->value.as_int(), 10);
}

TEST(ConfigService, ScopedOverridesLayerOverBase) {
  sim::Simulation sim;
  ConfigService service(&sim);
  ASSERT_TRUE(service
                  .EnsureDefined(Spec("k", ConfigValue::Int(1)))
                  .ok());
  std::vector<int64_t> m1_seen;
  service.Subscribe(
      "k",
      [&m1_seen](const ConfigUpdate& u) {
        m1_seen.push_back(u.value.as_int());
      },
      "m1");

  service.PushScoped("k", {"m1", "m2"}, ConfigValue::Int(100));
  sim.Run();
  EXPECT_EQ(service.ValueFor("k", "m1").value().as_int(), 100);
  EXPECT_EQ(service.ValueFor("k", "m2").value().as_int(), 100);
  EXPECT_EQ(service.ValueFor("k", "m3").value().as_int(), 1);
  EXPECT_EQ(service.ValueFor("k", "").value().as_int(), 1);
  EXPECT_TRUE(service.HasOverride("k", "m1"));
  EXPECT_EQ(service.OverrideTargets("k"),
            (std::vector<std::string>{"m1", "m2"}));

  // A base push is seen by non-overridden targets only.
  service.Push("k", ConfigValue::Int(2));
  sim.Run();
  EXPECT_EQ(service.ValueFor("k", "m1").value().as_int(), 100);
  EXPECT_EQ(service.ValueFor("k", "m3").value().as_int(), 2);

  // Retract: m1 falls back to the (new) base value and is notified.
  service.RetractScoped("k", {"m1"});
  sim.Run();
  EXPECT_FALSE(service.HasOverride("k", "m1"));
  EXPECT_EQ(service.ValueFor("k", "m1").value().as_int(), 2);
  EXPECT_TRUE(service.HasOverride("k", "m2"));
  EXPECT_EQ(m1_seen, (std::vector<int64_t>{100, 2}));
}

TEST(ConfigService, DelayedScopedPushDroppedAfterNewerRetract) {
  sim::Simulation sim;
  chaos::InjectorRegistry injector(&sim);
  ConfigService service(&sim, {.push_delay_us = 10 * kMillisecond});
  service.AttachChaos(&injector);
  ASSERT_TRUE(service
                  .EnsureDefined(Spec("k", ConfigValue::Int(1)))
                  .ok());
  // Delayed override lands *after* the retract that supersedes it — the
  // per-target version guard must drop it.
  injector.Inject({.kind = chaos::FaultKind::kConfigPushDelay,
                   .param = uint64_t(1 * kSecond)});
  service.PushScoped("k", {"m1"}, ConfigValue::Int(100));  // v1, delayed
  service.RetractScoped("k", {"m1"});                      // v2, on time
  sim.Run();
  EXPECT_FALSE(service.HasOverride("k", "m1"));
  EXPECT_EQ(service.ValueFor("k", "m1").value().as_int(), 1);
  EXPECT_EQ(service.stats().stale_dropped, 1u);
}

TEST(ConfigService, EnsureDefinedToleratesRedefinitionRejectsTypeChange) {
  sim::Simulation sim;
  ConfigService service(&sim);
  ASSERT_TRUE(service
                  .EnsureDefined(Spec("k", ConfigValue::Int(1)))
                  .ok());
  EXPECT_TRUE(service
                  .EnsureDefined(Spec("k", ConfigValue::Int(99)))
                  .ok());
  // First definition won.
  EXPECT_EQ(service.store().Find("k")->value.as_int(), 1);
  EXPECT_TRUE(service
                  .EnsureDefined(Spec("k", ConfigValue::Str("x")))
                  .IsInvalidArgument());
}

// ------------------------------------------------------------ live wiring

TEST(ConfigService, GuardRetryBudgetIsLive) {
  sim::Simulation sim;
  ConfigService service(&sim);
  guard::Guard g;
  g.AttachControl(&service);
  EXPECT_EQ(g.retry_budget().refill_micro(), 100000);  // default 0.1

  service.Push("guard.retry.refill_ratio", ConfigValue::Double(0.25));
  service.Push("guard.retry.max_tokens", ConfigValue::Double(2.0));
  sim.Run();
  EXPECT_EQ(g.retry_budget().refill_micro(), 250000);
  EXPECT_EQ(g.retry_budget().max_milli(), 2000);
  // Capacity clamp applied to the live fill (default initial = 10).
  EXPECT_LE(g.retry_budget().tokens_milli(), 2000);

  service.Push("guard.hedge.delay_quantile", ConfigValue::Double(0.99));
  sim.Run();
  EXPECT_DOUBLE_EQ(g.hedge().config().delay_quantile, 0.99);
}

TEST(ConfigService, PlatformKeepAliveIsLive) {
  sim::Simulation sim;
  cluster::Cluster cluster(8, {32000, 65536});
  faas::FaasPlatform platform(&sim, &cluster,
                              {.keep_alive_us = 10 * kMinute});
  ConfigService service(&sim);
  platform.AttachControl(&service);
  // Keep-alive is the platform's only live key.
  EXPECT_EQ(service.store().size(), 1u);
  ASSERT_TRUE(service.store().Has("faas.keep_alive_us"));
  for (const char* name : {"before", "after"}) {
    faas::FunctionSpec spec;
    spec.name = name;
    spec.exec = {faas::ExecTimeModel::Kind::kFixed, 50 * kMillisecond, 0, 0};
    ASSERT_TRUE(platform.RegisterFunction(spec).ok());
  }

  // "before" goes idle under the constructed 10-minute retention.
  ASSERT_TRUE(platform.InvokeSync("before", "").ok());
  const SimTime before_idle = sim.Now();
  service.Push("faas.keep_alive_us", ConfigValue::Int(kMinute));
  sim.RunUntil(sim.Now() + kMillisecond);
  EXPECT_EQ(platform.config().keep_alive_us, kMinute);

  // "after" goes idle once the push applied, so it gets the new retention.
  ASSERT_TRUE(platform.InvokeSync("after", "").ok());
  const SimTime after_idle = sim.Now();
  sim.RunUntil(after_idle + kMinute - kSecond);
  EXPECT_EQ(platform.warm_container_count("after"), 1u);
  sim.RunUntil(after_idle + kMinute + kSecond);
  EXPECT_EQ(platform.warm_container_count("after"), 0u);
  // The container that was already idle keeps its scheduled teardown.
  EXPECT_EQ(platform.warm_container_count("before"), 1u);
  sim.RunUntil(before_idle + 10 * kMinute - kSecond);
  EXPECT_EQ(platform.warm_container_count("before"), 1u);
  sim.RunUntil(before_idle + 10 * kMinute + kSecond);
  EXPECT_EQ(platform.warm_container_count("before"), 0u);
}

TEST(ConfigService, OutOfRangePushLeavesGuardUntouched) {
  sim::Simulation sim;
  ConfigService service(&sim);
  guard::Guard g;
  g.AttachControl(&service);
  service.Push("guard.retry.refill_ratio", ConfigValue::Double(50.0));
  sim.Run();
  EXPECT_EQ(service.stats().rejected, 1u);
  EXPECT_EQ(g.retry_budget().refill_micro(), 100000);  // unchanged
}

// ---------------------------------------------------------------- rollout

struct RolloutFixture {
  sim::Simulation sim;
  ConfigService service{&sim};
  std::vector<std::string> machines;

  RolloutFixture() {
    for (int i = 0; i < 20; ++i) machines.push_back("m" + std::to_string(i));
    EXPECT_TRUE(service
                    .EnsureDefined(Spec("knob", ConfigValue::Int(10), 0, 1000))
                    .ok());
  }
};

TEST(Rollout, AdvancesThroughStagesToCompletionWhenHealthy) {
  RolloutFixture f;
  RolloutPolicy policy;
  policy.stage_fractions = {0.05, 0.5, 1.0};
  policy.bake_us = 1 * kSecond;
  policy.check_period_us = 100 * kMillisecond;
  RolloutController rc(&f.sim, &f.service, policy);
  rc.SetHealthSource([](SimTime) { return ctrl::BurnSample{0.0, 0.0}; });
  ASSERT_TRUE(rc.Begin("knob", ConfigValue::Int(42), f.machines).ok());
  f.sim.Run();

  EXPECT_EQ(rc.state(), RolloutState::kCompleted);
  // begin, advance x2, complete.
  ASSERT_EQ(rc.events().size(), 4u);
  EXPECT_EQ(rc.events()[0].covered, 1u);   // ceil(0.05 * 20)
  EXPECT_EQ(rc.events()[1].covered, 10u);  // ceil(0.5 * 20)
  EXPECT_EQ(rc.events()[2].covered, 20u);
  // Promoted to base; every override retracted behind it.
  EXPECT_EQ(f.service.store().Find("knob")->value.as_int(), 42);
  EXPECT_TRUE(f.service.OverrideTargets("knob").empty());
  for (const auto& m : f.machines) {
    EXPECT_EQ(f.service.ValueFor("knob", m).value().as_int(), 42);
  }
}

TEST(Rollout, RollsBackAtCanaryStageOnBurn) {
  RolloutFixture f;
  RolloutPolicy policy;
  policy.stage_fractions = {0.05, 0.5, 1.0};
  policy.bake_us = 1 * kSecond;
  policy.check_period_us = 100 * kMillisecond;
  policy.burn_threshold = 10.0;
  RolloutController rc(&f.sim, &f.service, policy);
  // Burn appears as soon as any machine runs the candidate.
  rc.SetHealthSource([&f](SimTime) {
    const bool hurting = !f.service.OverrideTargets("knob").empty();
    return ctrl::BurnSample{hurting ? 20.0 : 0.0, hurting ? 20.0 : 0.0};
  });
  ASSERT_TRUE(rc.Begin("knob", ConfigValue::Int(666), f.machines).ok());
  f.sim.Run();

  EXPECT_EQ(rc.state(), RolloutState::kRolledBack);
  ASSERT_EQ(rc.events().size(), 2u);  // begin, rollback — never advanced
  EXPECT_EQ(rc.events()[1].stage, 0);
  // Blast radius: only the canary stage ever saw the bad value.
  EXPECT_EQ(rc.covered().size(), 1u);
  // Everything retracted; base never changed.
  EXPECT_TRUE(f.service.OverrideTargets("knob").empty());
  EXPECT_EQ(f.service.store().Find("knob")->value.as_int(), 10);
  for (const auto& m : f.machines) {
    EXPECT_EQ(f.service.ValueFor("knob", m).value().as_int(), 10);
  }
}

TEST(Rollout, BurnInOneWindowOnlyDoesNotRollBack) {
  RolloutFixture f;
  RolloutPolicy policy;
  policy.bake_us = 500 * kMillisecond;
  policy.check_period_us = 100 * kMillisecond;
  policy.burn_threshold = 10.0;
  RolloutController rc(&f.sim, &f.service, policy);
  // Long window burns (stale residue), short window healthy: no rollback
  // — the multi-window rule requires both.
  rc.SetHealthSource([](SimTime) { return ctrl::BurnSample{20.0, 0.0}; });
  ASSERT_TRUE(rc.Begin("knob", ConfigValue::Int(42), f.machines).ok());
  f.sim.Run();
  EXPECT_EQ(rc.state(), RolloutState::kCompleted);
}

TEST(Rollout, DecisionLogIsDeterministic) {
  auto run = [] {
    RolloutFixture f;
    RolloutPolicy policy;
    policy.bake_us = 700 * kMillisecond;
    policy.check_period_us = 150 * kMillisecond;
    RolloutController rc(&f.sim, &f.service, policy);
    rc.SetHealthSource([](SimTime) { return ctrl::BurnSample{0.0, 0.0}; });
    EXPECT_TRUE(rc.Begin("knob", ConfigValue::Int(42), f.machines).ok());
    f.sim.Run();
    return rc.DecisionLog();
  };
  const std::string a = run();
  const std::string b = run();
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b);
}

TEST(Rollout, CanaryRankingIsSeededAndShardStable) {
  RolloutFixture f;
  RolloutPolicy p1;
  p1.seed = 1;
  RolloutPolicy p2;
  p2.seed = 10;
  auto first_canary = [&f](RolloutPolicy policy) {
    sim::Simulation sim;
    ConfigService service(&sim);
    EXPECT_TRUE(service
                    .EnsureDefined(Spec("knob", ConfigValue::Int(0)))
                    .ok());
    RolloutController rc(&sim, &service, policy);
    rc.SetHealthSource([](SimTime) { return ctrl::BurnSample{0.0, 0.0}; });
    EXPECT_TRUE(rc.Begin("knob", ConfigValue::Int(1), f.machines).ok());
    return rc.covered().front();
  };
  // Same seed -> same canary; the ranking is a pure function of
  // (names, seed), independent of input order.
  std::vector<std::string> shuffled(f.machines.rbegin(), f.machines.rend());
  RolloutPolicy p1b = p1;
  EXPECT_EQ(first_canary(p1), first_canary(p1b));
  std::swap(f.machines, shuffled);
  EXPECT_EQ(first_canary(p1), first_canary(p1b));
  // Different seeds spread the canary duty (not guaranteed distinct for
  // every pair, but these two differ for this name set).
  EXPECT_NE(first_canary(p1), first_canary(p2));
}

// ------------------------------------------------- psim differential
//
// A sharded world: 16 machines placed by psim::ShardForKey across 4
// shards, each reporting (good, bad) samples to shard 0 every 10ms via
// Post; the RolloutController lives on shard 0 with a StageApplier that
// Posts override flips to each machine's home shard. Decisions and
// per-shard apply ledgers must be byte-identical at any worker thread
// count.

struct ShardedRolloutResult {
  std::string decision_log;
  std::string ledgers;
  RolloutState state = RolloutState::kIdle;
};

ShardedRolloutResult RunShardedRollout(unsigned threads, bool bad_change) {
  constexpr uint32_t kShards = 4;
  constexpr int kMachines = 16;
  psim::PsimConfig cfg;
  cfg.shards = kShards;
  cfg.threads = threads;
  cfg.lookahead_us = 1 * kMillisecond;
  psim::ParallelSimulation world(cfg);

  struct MachineState {
    bool on_candidate = false;
  };
  // Per-shard state: machines homed there + an apply ledger.
  std::vector<std::map<std::string, MachineState>> machines(kShards);
  std::vector<std::string> ledgers(kShards);
  std::vector<std::string> names;
  for (int i = 0; i < kMachines; ++i) {
    const std::string name = "m" + std::to_string(i);
    names.push_back(name);
    machines[psim::ShardForKey(name, kShards)][name] = MachineState{};
  }

  // Shard 0 aggregates health: bad_change machines on the candidate
  // report bad samples.
  uint64_t good = 0, bad = 0;
  for (uint32_t s = 0; s < kShards; ++s) {
    for (auto& [name, state] : machines[s]) {
      // Each machine reports every 10ms (chained schedule on its shard).
      auto report = [&world, s, &good, &bad, &state, bad_change](
                        auto&& self) -> void {
        if (world.shard(s).Now() >= 30 * kSecond) return;
        const bool is_bad = bad_change && state.on_candidate;
        world.Post(s, 0, 1 * kMillisecond, [&good, &bad, is_bad] {
          if (is_bad) {
            ++bad;
          } else {
            ++good;
          }
        });
        world.shard(s).Schedule(10 * kMillisecond,
                                [self]() mutable { self(self); });
      };
      world.shard(s).Schedule(10 * kMillisecond,
                              [report]() mutable { report(report); });
    }
  }

  RolloutPolicy policy;
  policy.stage_fractions = {0.1, 0.5, 1.0};
  policy.bake_us = 2 * kSecond;
  policy.check_period_us = 250 * kMillisecond;
  policy.burn_threshold = 5.0;
  RolloutController rc(&world.shard(0), nullptr, policy);
  // burn = 50 * bad fraction of all samples so far: 2/16 machines bad
  // crosses the threshold (6.25), 0 machines bad is 0.
  rc.SetHealthSource([&good, &bad](SimTime) {
    const double total = double(good + bad);
    const double frac = total > 0 ? double(bad) / total : 0.0;
    return ctrl::BurnSample{50.0 * frac, 50.0 * frac};
  });
  rc.SetStageApplier([&world, &machines, &ledgers](
                         const std::vector<std::string>& targets, bool apply) {
    for (const std::string& t : targets) {
      const uint32_t dst = psim::ShardForKey(t, kShards);
      std::string* ledger = &ledgers[dst];
      MachineState* st = &machines[dst][t];
      world.Post(0, dst, 1 * kMillisecond, [&world, dst, st, t, apply, ledger] {
        st->on_candidate = apply;
        *ledger += std::to_string(world.shard(dst).Now()) + " " +
                   (apply ? "apply " : "retract ") + t + "\n";
      });
    }
  });
  rc.SetFinalizer([] {});  // no base service in this world
  EXPECT_TRUE(rc.Begin("knob", ConfigValue::Int(1), names).ok());
  world.Run();

  ShardedRolloutResult result;
  result.decision_log = rc.DecisionLog();
  for (uint32_t s = 0; s < kShards; ++s) {
    result.ledgers += "== shard " + std::to_string(s) + " ==\n" + ledgers[s];
  }
  result.state = rc.state();
  return result;
}

TEST(RolloutPsimDifferential, DecisionsByteIdenticalAcrossThreadCounts) {
  for (const bool bad_change : {false, true}) {
    const ShardedRolloutResult serial = RunShardedRollout(1, bad_change);
    EXPECT_EQ(serial.state, bad_change ? RolloutState::kRolledBack
                                       : RolloutState::kCompleted);
    for (const unsigned threads : {2u, 4u}) {
      const ShardedRolloutResult parallel =
          RunShardedRollout(threads, bad_change);
      EXPECT_EQ(serial.decision_log, parallel.decision_log)
          << "threads=" << threads << " bad_change=" << bad_change;
      EXPECT_EQ(serial.ledgers, parallel.ledgers)
          << "threads=" << threads << " bad_change=" << bad_change;
      EXPECT_EQ(serial.state, parallel.state);
    }
  }
}

// A bad change in the sharded world is caught at the canary stage: the
// ledgers show the apply and the retract of the same <=10% prefix, and no
// other machine ever ran the candidate.
TEST(RolloutPsimDifferential, BadChangeBlastRadiusBounded) {
  const ShardedRolloutResult r = RunShardedRollout(4, /*bad_change=*/true);
  EXPECT_EQ(r.state, RolloutState::kRolledBack);
  size_t applies = 0, retracts = 0;
  size_t pos = 0;
  while ((pos = r.ledgers.find(" apply ", pos)) != std::string::npos) {
    ++applies;
    pos += 7;
  }
  pos = 0;
  while ((pos = r.ledgers.find(" retract ", pos)) != std::string::npos) {
    ++retracts;
    pos += 9;
  }
  EXPECT_EQ(applies, 2u);  // ceil(0.1 * 16) machines, stage 0 only
  EXPECT_EQ(retracts, 2u);
}

}  // namespace
}  // namespace taureau
