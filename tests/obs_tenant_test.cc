// Per-tenant dimensional telemetry (PR 8 / E27): labeled metric series,
// tenant-scoped SLO tracks under the cardinality guard, the shard-merge
// tenant rollup, and the end-to-end tenant threading through faas, pubsub
// and jiffy.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "faas/platform.h"
#include "jiffy/data_structures.h"
#include "jiffy/memory_pool.h"
#include "obs/flame.h"
#include "obs/metrics.h"
#include "obs/observability.h"
#include "obs/shard_merge.h"
#include "obs/slo.h"
#include "pubsub/broker.h"
#include "sim/simulation.h"

namespace taureau::obs {
namespace {

// ------------------------------------------------------- labeled registry

TEST(LabeledRegistryTest, SeriesNameIsCanonical) {
  // Label keys in fixed alphabetical order, empty labels omitted.
  EXPECT_EQ(Registry::SeriesName("faas.invocations", {.tenant = "acme"}),
            "faas.invocations{tenant=\"acme\"}");
  EXPECT_EQ(Registry::SeriesName("x", {.tenant = "t", .shard = "3"}),
            "x{shard=\"3\",tenant=\"t\"}");
  EXPECT_EQ(Registry::SeriesName("x", LabelSet{}), "x");
}

TEST(LabeledRegistryTest, LabeledAndUnlabeledSeriesAreDistinctSlots) {
  Registry r;
  CounterHandle plain = r.ResolveCounter("faas.invocations");
  CounterHandle acme =
      r.ResolveCounter("faas.invocations", {.tenant = "acme"});
  CounterHandle acme_again =
      r.ResolveCounter("faas.invocations", {.tenant = "acme"});
  plain.Inc(5);
  acme.Inc(2);
  acme_again.Inc(1);  // same slot as `acme`
  EXPECT_EQ(plain.value(), 5u);
  EXPECT_EQ(acme.value(), 3u);
  // The slow path reads the same slot through the canonical key.
  EXPECT_EQ(r.GetCounter("faas.invocations{tenant=\"acme\"}")->value(), 3u);
}

TEST(LabeledRegistryTest, LabelValuesAreInternedAndSorted) {
  Registry r;
  r.ResolveCounter("m.c", {.tenant = "zeta"});
  r.ResolveCounter("m.c", {.tenant = "acme"});
  r.ResolveCounter("m.d", {.tenant = "acme", .shard = "0"});
  r.ResolveGauge("m.g", {.shard = "west"});
  const auto tenants = r.LabelValues("tenant");
  ASSERT_EQ(tenants.size(), 2u);
  EXPECT_EQ(tenants[0], "acme");
  EXPECT_EQ(tenants[1], "zeta");
  EXPECT_EQ(r.LabelValues("shard").size(), 2u);
  EXPECT_EQ(r.labeled_series(), 4u);
}

TEST(LabeledRegistryTest, TenantCounterRollupSumsAcrossOtherLabels) {
  Registry r;
  r.ResolveCounter("faas.invocations", {.tenant = "a", .shard = "0"}).Inc(3);
  r.ResolveCounter("faas.invocations", {.tenant = "a", .shard = "1"}).Inc(4);
  r.ResolveCounter("pubsub.published", {.tenant = "a"}).Inc(2);
  r.ResolveCounter("faas.invocations", {.tenant = "b"}).Inc(9);
  r.ResolveCounter("faas.invocations").Inc(100);  // unlabeled: not rolled up
  const auto rollup = r.TenantCounterRollup();
  ASSERT_EQ(rollup.size(), 2u);
  EXPECT_EQ(rollup.at("a").at("faas.invocations"), 7u);
  EXPECT_EQ(rollup.at("a").at("pubsub.published"), 2u);
  EXPECT_EQ(rollup.at("b").at("faas.invocations"), 9u);
}

TEST(LabeledRegistryTest, MergeFromFoldsLabeledSeriesByCanonicalKey) {
  Registry a, b;
  a.ResolveCounter("m.c", {.tenant = "t"}).Inc(2);
  b.ResolveCounter("m.c", {.tenant = "t"}).Inc(3);
  b.ResolveCounter("m.c", {.tenant = "u"}).Inc(1);
  a.MergeFrom(b);
  EXPECT_EQ(a.GetCounter("m.c{tenant=\"t\"}")->value(), 5u);
  EXPECT_EQ(a.GetCounter("m.c{tenant=\"u\"}")->value(), 1u);
  // Label metadata follows the merged series: the rollup sees both tenants.
  EXPECT_EQ(a.TenantCounterRollup().size(), 2u);
}

TEST(LabeledRegistryTest, ResetKeepsLabeledHandlesValid) {
  Registry r;
  CounterHandle h = r.ResolveCounter("m.c", {.tenant = "t"});
  h.Inc(7);
  r.Reset();
  EXPECT_EQ(h.value(), 0u);
  h.Inc(1);
  EXPECT_EQ(r.GetCounter("m.c{tenant=\"t\"}")->value(), 1u);
}

// Regression (E28): the AttachObservability idiom — merge the module's own
// registry into the shared one, Reset the own registry, re-resolve handles
// on the shared registry — must keep every handle generation valid. A
// module attached after it already counted (the ctrl service does exactly
// this) must neither lose the merged counts nor crash through the old
// handles.
TEST(LabeledRegistryTest, HandlesSurviveMergeResetReRegistration) {
  Registry own, shared;
  CounterHandle early = own.ResolveCounter("ctrl.pushes", {.tenant = "t"});
  early.Inc(3);
  shared.MergeFrom(own);
  own.Reset();
  EXPECT_EQ(shared.GetCounter("ctrl.pushes{tenant=\"t\"}")->value(), 3u);
  // The pre-merge handle stays valid: it writes into the reset own
  // registry (now detached scratch), never into freed memory.
  early.Inc(1);
  EXPECT_EQ(own.GetCounter("ctrl.pushes{tenant=\"t\"}")->value(), 1u);
  EXPECT_EQ(shared.GetCounter("ctrl.pushes{tenant=\"t\"}")->value(), 3u);
  // Re-registration on the shared registry aliases the merged slot.
  CounterHandle late = shared.ResolveCounter("ctrl.pushes", {.tenant = "t"});
  late.Inc(2);
  EXPECT_EQ(shared.GetCounter("ctrl.pushes{tenant=\"t\"}")->value(), 5u);
  // Same story for gauges and histograms.
  GaugeHandle g_early = own.ResolveGauge("ctrl.version", {.tenant = "t"});
  g_early.Set(4.0);
  shared.MergeFrom(own);
  own.Reset();
  GaugeHandle g_late = shared.ResolveGauge("ctrl.version", {.tenant = "t"});
  g_late.Set(9.0);
  EXPECT_EQ(shared.GetGauge("ctrl.version{tenant=\"t\"}")->value(), 9.0);
  g_early.Set(1.0);  // detached scratch write, shared value untouched
  EXPECT_EQ(shared.GetGauge("ctrl.version{tenant=\"t\"}")->value(), 9.0);
}

// ----------------------------------------------------------- shard merge

TEST(ShardMergeTest, TenantsSectionAppearsOnlyWithTenantSeries) {
  Registry plain;
  plain.ResolveCounter("m.c").Inc(1);
  const std::string no_tenants = MergeShardExports({&plain});
  EXPECT_EQ(no_tenants.find("== tenants =="), std::string::npos);

  Registry labeled;
  labeled.ResolveCounter("m.c", {.tenant = "acme"}).Inc(4);
  const std::string with_tenants = MergeShardExports({&plain, &labeled});
  EXPECT_NE(with_tenants.find("== tenants =="), std::string::npos);
  EXPECT_NE(with_tenants.find("acme"), std::string::npos);
}

TEST(ShardMergeTest, DigestIsDeterministicAcrossRebuilds) {
  auto build = [] {
    auto r = std::make_unique<Registry>();
    r->ResolveCounter("m.c", {.tenant = "a", .shard = "0"}).Inc(3);
    r->ResolveHistogram("m.h", {.tenant = "b"}).Observe(42.0);
    return r;
  };
  auto r1 = build();
  auto r2 = build();
  EXPECT_EQ(ShardExportDigest({r1.get()}), ShardExportDigest({r2.get()}));
}

// Property: perturbing any single labeled series by one event changes the
// merged-export digest — no per-tenant series can drift silently through
// the E26 differential harness.
TEST(ShardMergeTest, DigestIsSensitiveToEveryLabeledSeries) {
  constexpr int kShards = 3;
  constexpr int kSeries = 24;
  const char* kBases[] = {"faas.invocations", "pubsub.published", "jiffy.ops"};
  // One deterministic plan of (shard, base, tenant, value) tuples.
  struct Planned {
    int shard;
    std::string base;
    std::string tenant;
    uint64_t value;
  };
  std::vector<Planned> plan;
  Rng rng(271828);
  for (int i = 0; i < kSeries; ++i) {
    plan.push_back({int(rng.NextBounded(kShards)),
                    kBases[rng.NextBounded(3)],
                    "tenant-" + std::to_string(i), 1 + rng.NextBounded(50)});
  }
  // Builds the sharded world, adding one extra event to series `perturb`
  // (-1 = none).
  auto build = [&](int perturb) {
    std::vector<std::unique_ptr<Registry>> regs;
    for (int s = 0; s < kShards; ++s) regs.push_back(std::make_unique<Registry>());
    for (int i = 0; i < kSeries; ++i) {
      const Planned& p = plan[i];
      const uint64_t v = p.value + (i == perturb ? 1 : 0);
      regs[p.shard]
          ->ResolveCounter(p.base, {.tenant = p.tenant,
                                    .shard = std::to_string(p.shard)})
          .Inc(v);
    }
    return regs;
  };
  auto digest = [](const std::vector<std::unique_ptr<Registry>>& regs) {
    std::vector<const Registry*> ptrs;
    for (const auto& r : regs) ptrs.push_back(r.get());
    return ShardExportDigest(ptrs);
  };
  const uint64_t baseline = digest(build(-1));
  EXPECT_EQ(digest(build(-1)), baseline);  // determinism first
  for (int i = 0; i < kSeries; ++i) {
    EXPECT_NE(digest(build(i)), baseline)
        << "series " << i << " (" << plan[i].base << ", " << plan[i].tenant
        << ") did not move the digest";
  }
}

// ------------------------------------------------- tenant-scoped SLOs

SloObjective PerTenantObjective(std::string name, double target,
                                size_t max_series) {
  SloObjective obj;
  obj.name = std::move(name);
  obj.module = "app";
  obj.target = target;
  obj.latency_budget_us = -1;
  obj.policies = {{"page", /*long=*/10000, /*short=*/1000, /*burn=*/5.0}};
  obj.per_tenant = true;
  obj.max_tenant_series = max_series;
  return obj;
}

// Property: tenant A's bad events never move tenant B's burn rate. B's
// track in a world with A's storm is event-for-event identical to B's
// track in a world without it.
TEST(TenantSloTest, BurnIsolationProperty) {
  SloEngine storm;   // interleaved: A all-bad, B all-good
  SloEngine control; // B's events only, same timestamps
  storm.AddObjective(PerTenantObjective("avail", 0.99, 64));
  control.AddObjective(PerTenantObjective("avail", 0.99, 64));

  Rng rng(99);
  SimTime t = 0;
  std::vector<SimTime> checkpoints;
  for (int i = 0; i < 2000; ++i) {
    t += 1 + rng.NextBounded(20);
    if (rng.NextBool(0.5)) {
      storm.Record("app", "a", t, 100, /*ok=*/false);
    } else {
      storm.Record("app", "b", t, 100, /*ok=*/true);
      control.Record("app", "b", t, 100, /*ok=*/true);
    }
    if (i % 100 == 0) checkpoints.push_back(t);
  }
  // A is burning hard and firing; B never fires and never burns.
  EXPECT_TRUE(storm.IsTenantFiring("avail", "a", "page"));
  EXPECT_FALSE(storm.IsTenantFiring("avail", "b", "page"));
  EXPECT_EQ(storm.TenantBadEvents("avail", "b"), 0u);
  EXPECT_EQ(storm.TenantTotalEvents("avail", "b"),
            control.TenantTotalEvents("avail", "b"));
  for (SimTime now : checkpoints) {
    for (SimDuration w : {SimDuration(1000), SimDuration(10000)}) {
      EXPECT_DOUBLE_EQ(storm.TenantBurnRate("avail", "b", w, now),
                       control.TenantBurnRate("avail", "b", w, now));
      EXPECT_DOUBLE_EQ(storm.TenantBurnRate("avail", "b", w, now), 0.0);
    }
  }
  // Every tenant-attributed alert edge names A, never B.
  bool saw_a_edge = false;
  for (const AlertEvent& e : storm.alerts()) {
    if (!e.tenant.empty()) {
      EXPECT_EQ(e.tenant, "a");
      saw_a_edge = true;
    }
  }
  EXPECT_TRUE(saw_a_edge);
}

TEST(TenantSloTest, EmptyTenantLandsOnOtherTrack) {
  SloEngine slo;
  slo.AddObjective(PerTenantObjective("avail", 0.99, 4));
  slo.Record("app", "", 100, 10, true);
  slo.Record("app", kOtherTenant, 200, 10, false);
  EXPECT_EQ(slo.TenantTotalEvents("avail", kOtherTenant), 2u);
  EXPECT_EQ(slo.TenantBadEvents("avail", kOtherTenant), 1u);
  EXPECT_EQ(slo.MaterializedTenants("avail"),
            std::vector<std::string>{kOtherTenant});
}

// Regression (E28): a live config change re-registers an objective
// (AddObjective with the same name replaces the state). The engine must
// rebuild cleanly — per-tenant queries keep answering, new events
// re-materialize the tenant tracks, and firing state starts from the new
// spec rather than carrying a stale edge.
TEST(TenantSloTest, ReRegisteredObjectiveRebuildsPerTenantTracks) {
  SloEngine slo;
  slo.AddObjective(PerTenantObjective("avail", 0.99, 8));
  SimTime t = 0;
  for (int i = 0; i < 50; ++i) slo.Record("app", "a", ++t, 10, false);
  EXPECT_TRUE(slo.IsTenantFiring("avail", "a", "page"));
  EXPECT_GT(slo.TenantBurnRate("avail", "a", 10000, t), 0.0);

  // Config push: tighter target, same name. State is replaced wholesale.
  slo.AddObjective(PerTenantObjective("avail", 0.999, 8));
  EXPECT_FALSE(slo.IsTenantFiring("avail", "a", "page"));
  EXPECT_EQ(slo.TenantTotalEvents("avail", "a"), 0u);
  EXPECT_DOUBLE_EQ(slo.TenantBurnRate("avail", "a", 10000, t), 0.0);

  // New events score against the new spec and re-materialize the track.
  for (int i = 0; i < 50; ++i) slo.Record("app", "a", ++t, 10, false);
  EXPECT_TRUE(slo.IsTenantFiring("avail", "a", "page"));
  EXPECT_EQ(slo.TenantTotalEvents("avail", "a"), 50u);
  const auto tenants = slo.MaterializedTenants("avail");
  EXPECT_NE(std::find(tenants.begin(), tenants.end(), "a"), tenants.end());
}

TEST(TenantSloTest, CardinalityGuardDemotesWeakestAndConserves) {
  SloEngine slo;
  slo.AddObjective(PerTenantObjective("avail", 0.9, 2));
  SimTime t = 0;
  // Fill phase: first two distinct tenants materialize exactly.
  for (int i = 0; i < 10; ++i) slo.Record("app", "t1", ++t, 10, true);
  slo.Record("app", "t2", ++t, 10, false);  // t2 fires immediately (all-bad)
  EXPECT_TRUE(slo.IsTenantFiring("avail", "t2", "page"));
  EXPECT_EQ(slo.TenantAttributionBound("avail", "t1"), 0u);
  EXPECT_EQ(slo.TenantAttributionBound("avail", "t2"), 0u);
  {
    const auto mats = slo.MaterializedTenants("avail");
    EXPECT_EQ(mats, (std::vector<std::string>{"t1", "t2"}));
  }
  // t3 surges past t2's popularity: the guard demotes t2, folds its counts
  // into __other__, clears its alert with a falling edge, and materializes
  // t3 with a nonzero attribution bound.
  for (int i = 0; i < 10; ++i) slo.Record("app", "t3", ++t, 10, true);
  EXPECT_GE(slo.TenantDemotions("avail"), 1u);
  const auto mats = slo.MaterializedTenants("avail");
  EXPECT_EQ(mats, (std::vector<std::string>{kOtherTenant, "t1", "t3"}));
  EXPECT_EQ(slo.TenantTotalEvents("avail", "t2"), 0u);  // demoted reads zero
  EXPECT_FALSE(slo.IsTenantFiring("avail", "t2", "page"));
  const AlertEvent& last = slo.alerts().back();
  EXPECT_EQ(last.tenant, "t2");
  EXPECT_FALSE(last.firing);
  // t2's bad event survives in the long tail.
  EXPECT_EQ(slo.TenantBadEvents("avail", kOtherTenant), 1u);
  // Conservation: materialized tracks (incl. __other__) sum to the
  // aggregate.
  uint64_t sum = 0;
  for (const auto& name : mats) sum += slo.TenantTotalEvents("avail", name);
  EXPECT_EQ(sum, slo.TotalEvents("avail"));
}

TEST(TenantSloTest, AttributionBoundCoversPreMaterializationEvents) {
  SloEngine slo;
  slo.AddObjective(PerTenantObjective("avail", 0.9, 2));
  Rng rng(7);
  SimTime t = 0;
  std::map<std::string, uint64_t> truth;
  // Skewed churn over 6 tenants through a 2-slot guard: plenty of
  // demotions and re-promotions.
  for (int i = 0; i < 3000; ++i) {
    const std::string tenant =
        "t" + std::to_string(rng.NextBounded(rng.NextBounded(6) + 1));
    ++truth[tenant];
    slo.Record("app", tenant, ++t, 10, true);
  }
  const sketch::SpaceSaving* sk = slo.TenantSketch("avail");
  ASSERT_NE(sk, nullptr);
  const uint64_t sketch_bound = sk->total() / sk->capacity();
  uint64_t materialized_sum = 0;
  for (const std::string& name : slo.MaterializedTenants("avail")) {
    materialized_sum += slo.TenantTotalEvents("avail", name);
    if (name == kOtherTenant) continue;
    const uint64_t exact = slo.TenantTotalEvents("avail", name);
    const uint64_t bound = slo.TenantAttributionBound("avail", name);
    const uint64_t missed = truth.at(name) - std::min(truth.at(name), exact);
    EXPECT_LE(truth.at(name) - missed, truth.at(name));
    EXPECT_LE(missed, bound) << "tenant " << name;
    // The bound itself never exceeds the SpaceSaving error guarantee.
    EXPECT_LE(bound, sketch_bound) << "tenant " << name;
  }
  EXPECT_EQ(materialized_sum, slo.TotalEvents("avail"));
  // Sketch error guarantee holds for every tracked tenant.
  for (const auto& e : sk->HeavyHitters()) {
    EXPECT_LE(e.error, sketch_bound);
  }
}

TEST(TenantSloTest, ExportTextCarriesTenantLinesAndGuardStats) {
  SloEngine slo;
  slo.AddObjective(PerTenantObjective("avail", 0.99, 8));
  slo.Record("app", "acme", 100, 10, false);
  const std::string text = slo.ExportText();
  EXPECT_NE(text.find("  tenant=acme total=1 bad=1"), std::string::npos);
  EXPECT_NE(text.find("  tenant_guard k=8"), std::string::npos);
  EXPECT_NE(text.find("alert avail/page tenant=acme FIRING"),
            std::string::npos);
  // Tenant-free engines export no tenant vocabulary at all (byte-compat
  // with pre-dimensional exports).
  SloEngine plain;
  SloObjective obj;
  obj.name = "avail";
  obj.module = "app";
  obj.target = 0.99;
  obj.policies = {{"page", 10000, 1000, 5.0}};
  plain.AddObjective(obj);
  plain.Record("app", 100, 10, true);
  EXPECT_EQ(plain.ExportText().find("tenant"), std::string::npos);
}

// ------------------------------------------- clock-regression fallback

TEST(SloClockRegressionTest, NonDecreasingTimestampsNeverClamp) {
  SloEngine slo;
  slo.AddObjective(PerTenantObjective("avail", 0.99, 8));
  for (SimTime t : {100, 100, 200, 300}) slo.Record("app", "a", t, 10, true);
  EXPECT_EQ(slo.clamped_events(), 0u);
  EXPECT_EQ(slo.ExportText().find("clock_regressions"), std::string::npos);
}

TEST(SloClockRegressionTest, RegressionIsClampedAndCounted) {
  SloEngine slo;
  // Debug builds assert on a regression; the test opts into the
  // release-mode clamp path explicitly.
  slo.AllowClockRegression(true);
  slo.AddObjective(PerTenantObjective("avail", 0.99, 8));
  slo.Record("app", "a", 1000, 10, true);
  slo.Record("app", "a", 400, 10, false);  // regressed: clamps to 1000
  slo.Record("app", "a", 1200, 10, true);
  EXPECT_EQ(slo.clamped_events(), 1u);
  // The clamped event still scored (window aging never walked backwards).
  EXPECT_EQ(slo.TenantTotalEvents("avail", "a"), 3u);
  EXPECT_EQ(slo.TenantBadEvents("avail", "a"), 1u);
  // All three events are inside the long window ending now: the clamped
  // one aged as if it happened at t=1000.
  EXPECT_GT(slo.TenantBurnRate("avail", "a", 10000, 1200), 0.0);
  EXPECT_NE(slo.ExportText().find("clock_regressions 1"), std::string::npos);
  // A later regression clamps to the newest timestamp seen so far.
  slo.Record("app", "a", 1100, 10, true);
  EXPECT_EQ(slo.clamped_events(), 2u);
}

// ---------------------------------------------------- flame by-tenant

TEST(FlameTenantTest, ByTenantBreakdownFollowsRootAttr) {
  sim::Simulation sim;
  Tracer tracer(&sim);
  auto request = [&](const std::string& tenant, SimDuration exec_us) {
    TraceContext root = tracer.StartTrace("invoke:f", "faas");
    if (!tenant.empty()) tracer.SetAttr(root, kTenantAttr, tenant);
    sim.Schedule(0, [&, root, exec_us] {
      TraceContext child = tracer.StartSpan("exec", "faas", root);
      sim.Schedule(exec_us, [&, root, child] {
        tracer.EndSpan(child);
        tracer.EndSpan(root);
      });
    });
    sim.Run();
  };
  request("acme", 100);
  request("acme", 300);
  request("zeta", 50);
  request("", 1000);  // untagged root: counted in by_root only

  FlameProfile flame;
  flame.FoldTrace(tracer.spans());
  const auto& by_tenant = flame.by_tenant();
  ASSERT_EQ(by_tenant.size(), 2u);
  EXPECT_EQ(by_tenant.at("acme").count, 2u);
  EXPECT_EQ(by_tenant.at("acme").breakdown.total_us, 400);
  EXPECT_EQ(by_tenant.at("zeta").count, 1u);
  EXPECT_EQ(flame.by_root().at("invoke:f").count, 4u);
  const std::string text = flame.ExportTenantsText();
  EXPECT_NE(text.find("acme"), std::string::npos);
  EXPECT_NE(text.find("zeta"), std::string::npos);
}

// ------------------------------------------- end-to-end tenant threading

TEST(FaasTenantTest, SpecTenantFlowsToSpansSeriesAndOwner) {
  sim::Simulation sim;
  Observability o(&sim);
  cluster::Cluster cluster{4, {32000, 65536}};
  faas::FaasPlatform platform(&sim, &cluster, {});
  platform.AttachObservability(&o);
  faas::FunctionSpec spec;
  spec.name = "serve";
  spec.tenant = "acme";
  spec.exec = {faas::ExecTimeModel::Kind::kFixed, 10 * kMillisecond, 0, 0};
  platform.RegisterFunction(spec);
  ASSERT_TRUE(platform.InvokeSync("serve", "x").ok());
  ASSERT_TRUE(platform.InvokeSync("serve", "y").ok());

  // Root spans carry the tenant attr; exec spans carry the allocation
  // owner (cluster::Machine::owner round-trip).
  int roots = 0, execs = 0;
  for (const Span& s : o.tracer.spans()) {
    if (s.name == "invoke:serve") {
      EXPECT_EQ(s.attrs.at(kTenantAttr), "acme");
      ++roots;
    }
    if (s.name == "exec") {
      EXPECT_EQ(s.attrs.at("owner"), "acme");
      ++execs;
    }
  }
  EXPECT_EQ(roots, 2);
  EXPECT_EQ(execs, 2);

  // Tenant-labeled series sit alongside the unlabeled aggregates.
  EXPECT_EQ(o.registry.GetCounter("faas.invocations")->value(), 2u);
  EXPECT_EQ(
      o.registry.GetCounter("faas.invocations{tenant=\"acme\"}")->value(), 2u);
  EXPECT_EQ(
      o.registry.GetCounter("faas.completions{tenant=\"acme\"}")->value(), 2u);
  EXPECT_EQ(
      o.registry.GetHistogram("faas.e2e_latency_us{tenant=\"acme\"}")->count(),
      2u);
  EXPECT_EQ(o.registry.TenantCounterRollup().at("acme").at("faas.invocations"),
            2u);
}

TEST(FaasTenantTest, UntaggedFunctionEmitsNoTenantSeries) {
  sim::Simulation sim;
  Observability o(&sim);
  cluster::Cluster cluster{4, {32000, 65536}};
  faas::FaasPlatform platform(&sim, &cluster, {});
  platform.AttachObservability(&o);
  faas::FunctionSpec spec;
  spec.name = "serve";
  spec.exec = {faas::ExecTimeModel::Kind::kFixed, 10 * kMillisecond, 0, 0};
  platform.RegisterFunction(spec);
  ASSERT_TRUE(platform.InvokeSync("serve", "x").ok());
  EXPECT_EQ(o.registry.labeled_series(), 0u);
  for (const Span& s : o.tracer.spans()) {
    EXPECT_EQ(s.attrs.count(kTenantAttr), 0u) << s.name;
  }
  // Tenant-free worlds keep the pre-dimensional export byte-shape.
  EXPECT_EQ(o.registry.ExportText().find("tenant"), std::string::npos);
}

TEST(PubsubTenantTest, TopicTenantFlowsToSeriesAndPublishSpan) {
  sim::Simulation sim;
  Observability o(&sim);
  pubsub::PulsarCluster pulsar(&sim, {});
  pulsar.AttachObservability(&o);
  ASSERT_TRUE(pulsar.CreateTopic("t", {.tenant = "acme"}).ok());
  ASSERT_TRUE(pulsar.CreateTopic("plain", {}).ok());
  ASSERT_TRUE(pulsar.Publish("t", "", "m1").ok());
  ASSERT_TRUE(pulsar.Publish("t", "", "m2").ok());
  ASSERT_TRUE(pulsar.Publish("plain", "", "m3").ok());
  sim.Run();
  EXPECT_EQ(o.registry.GetCounter("pubsub.published")->value(), 3u);
  EXPECT_EQ(
      o.registry.GetCounter("pubsub.published{tenant=\"acme\"}")->value(), 2u);
  for (const Span& s : o.tracer.spans()) {
    if (s.name == "publish:t") {
      EXPECT_EQ(s.attrs.at(kTenantAttr), "acme");
    }
    if (s.name == "publish:plain") {
      EXPECT_EQ(s.attrs.count(kTenantAttr), 0u);
    }
  }
}

TEST(JiffyTenantTest, OwnerFlowsToSeriesAndOpSpans) {
  sim::Simulation sim;
  Observability o(&sim);
  jiffy::MemoryPool pool(2, 64, 1024);
  jiffy::JiffyHashTable table(&pool, "acme", 2);
  table.AttachObservability(&o);
  const TraceContext root = o.tracer.StartTrace("req", "test");
  ASSERT_TRUE(table.Put("k", "v", root).status.ok());
  std::string got;
  ASSERT_TRUE(table.Get("k", &got, root).status.ok());
  o.tracer.EndSpan(root);
  EXPECT_EQ(o.registry.GetCounter("jiffy.ops")->value(), 2u);
  EXPECT_EQ(o.registry.GetCounter("jiffy.ops{tenant=\"acme\"}")->value(), 2u);
  for (const Span& s : o.tracer.spans()) {
    if (s.module == "jiffy") {
      EXPECT_EQ(s.attrs.at(kTenantAttr), "acme");
    }
  }
}

}  // namespace
}  // namespace taureau::obs
