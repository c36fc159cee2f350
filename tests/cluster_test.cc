// Unit tests for the cluster substrate: resources, virtualization models,
// machines, placement policies, GPU heterogeneity and dedicated tenancy.
#include <gtest/gtest.h>

#include "cluster/cluster.h"
#include "cluster/machine.h"
#include "cluster/resources.h"
#include "cluster/virtualization.h"
#include "common/rng.h"
#include "common/stats.h"
#include "faas/platform.h"
#include "sim/simulation.h"

namespace taureau::cluster {
namespace {

// --------------------------------------------------------- ResourceVector

TEST(ResourceVectorTest, Arithmetic) {
  ResourceVector a{1000, 2048}, b{500, 1024};
  EXPECT_EQ((a + b).cpu_millis, 1500);
  EXPECT_EQ((a - b).memory_mb, 1024);
  a += b;
  EXPECT_EQ(a.cpu_millis, 1500);
  a -= b;
  EXPECT_EQ(a, (ResourceVector{1000, 2048}));
}

TEST(ResourceVectorTest, FitsIn) {
  ResourceVector cap{1000, 1024};
  EXPECT_TRUE((ResourceVector{1000, 1024}).FitsIn(cap));
  EXPECT_TRUE((ResourceVector{1, 1}).FitsIn(cap));
  EXPECT_FALSE((ResourceVector{1001, 1}).FitsIn(cap));
  EXPECT_FALSE((ResourceVector{1, 1025}).FitsIn(cap));
}

TEST(ResourceVectorTest, DominantShare) {
  ResourceVector cap{1000, 1000};
  EXPECT_DOUBLE_EQ((ResourceVector{500, 250}).DominantShare(cap), 0.5);
  EXPECT_DOUBLE_EQ((ResourceVector{100, 900}).DominantShare(cap), 0.9);
  EXPECT_DOUBLE_EQ((ResourceVector{0, 0}).DominantShare(cap), 0.0);
}

// ---------------------------------------------------------- Virtualization

TEST(VirtualizationTest, EvolutionCutsStartup) {
  // The paper's §2.1 ladder: each rung starts faster than the one below.
  const auto bare = DefaultStartupModel(IsolationLevel::kBareMetal);
  const auto vm = DefaultStartupModel(IsolationLevel::kVirtualMachine);
  const auto container = DefaultStartupModel(IsolationLevel::kContainer);
  const auto lambda = DefaultStartupModel(IsolationLevel::kLambda);
  EXPECT_GT(bare.median_startup_us, vm.median_startup_us);
  EXPECT_GT(vm.median_startup_us, container.median_startup_us);
  EXPECT_GT(container.median_startup_us, lambda.median_startup_us);
}

TEST(VirtualizationTest, EvolutionCutsOverhead) {
  EXPECT_GT(DefaultStartupModel(IsolationLevel::kVirtualMachine).overhead_mb,
            DefaultStartupModel(IsolationLevel::kContainer).overhead_mb);
  EXPECT_GT(DefaultStartupModel(IsolationLevel::kContainer).overhead_mb,
            DefaultStartupModel(IsolationLevel::kLambda).overhead_mb);
}

TEST(VirtualizationTest, StartupSamplesNearMedian) {
  Rng rng(1);
  const auto model = DefaultStartupModel(IsolationLevel::kContainer);
  Summary s;
  for (int i = 0; i < 2000; ++i) {
    s.Add(double(model.SampleStartup(&rng)));
  }
  // Log-normal mean > median but same order.
  EXPECT_GT(s.mean(), double(model.median_startup_us) * 0.8);
  EXPECT_LT(s.mean(), double(model.median_startup_us) * 2.0);
}

TEST(VirtualizationTest, DensityRisesUpTheLadder) {
  const ResourceVector machine{32000, 131072};  // 32 cores, 128 GB
  const ResourceVector unit{100, 700};  // memory-heavy web worker
  const int64_t bare = MaxDensity(IsolationLevel::kBareMetal, machine, unit);
  const int64_t vm = MaxDensity(IsolationLevel::kVirtualMachine, machine, unit);
  const int64_t container =
      MaxDensity(IsolationLevel::kContainer, machine, unit);
  const int64_t lambda = MaxDensity(IsolationLevel::kLambda, machine, unit);
  EXPECT_EQ(bare, 1);
  EXPECT_GT(vm, bare);
  EXPECT_GT(container, vm);
  EXPECT_GT(lambda, container);
}

TEST(VirtualizationTest, LevelNames) {
  EXPECT_EQ(IsolationLevelName(IsolationLevel::kLambda), "lambda");
  EXPECT_EQ(IsolationLevelName(IsolationLevel::kBareMetal), "bare-metal");
}

// --------------------------------------------------------------- Machine

TEST(MachineTest, PlaceAndRemove) {
  Machine m(0, {4000, 8192});
  ExecutionUnit u;
  u.id = 1;
  u.footprint = {1000, 2048};
  ASSERT_TRUE(m.Place(u).ok());
  EXPECT_EQ(m.allocated().cpu_millis, 1000);
  EXPECT_EQ(m.unit_count(), 1u);
  ASSERT_TRUE(m.Remove(1).ok());
  EXPECT_EQ(m.allocated().cpu_millis, 0);
}

TEST(MachineTest, RejectsOverCapacity) {
  Machine m(0, {1000, 1024});
  ExecutionUnit u;
  u.id = 1;
  u.footprint = {2000, 512};
  EXPECT_TRUE(m.Place(u).IsResourceExhausted());
}

TEST(MachineTest, RejectsDuplicateUnit) {
  Machine m(0, {4000, 8192});
  ExecutionUnit u;
  u.id = 1;
  u.footprint = {100, 100};
  ASSERT_TRUE(m.Place(u).ok());
  EXPECT_TRUE(m.Place(u).IsAlreadyExists());
}

TEST(MachineTest, RemoveUnknownFails) {
  Machine m(0, {1000, 1024});
  EXPECT_TRUE(m.Remove(99).IsNotFound());
}

TEST(MachineTest, UtilizationTracksDominantShare) {
  Machine m(0, {1000, 1000});
  ExecutionUnit u;
  u.id = 1;
  u.footprint = {800, 200};
  ASSERT_TRUE(m.Place(u).ok());
  EXPECT_DOUBLE_EQ(m.Utilization(), 0.8);
  EXPECT_DOUBLE_EQ(m.CpuUtilization(), 0.8);
  EXPECT_DOUBLE_EQ(m.MemUtilization(), 0.2);
}

// --------------------------------------------------------------- Cluster

TEST(ClusterTest, AllocateReleaseRoundTrip) {
  Cluster cluster(4, {4000, 8192});
  auto unit = cluster.Allocate(IsolationLevel::kLambda, {500, 512},
                               PlacementPolicy::kFirstFit, "app");
  ASSERT_TRUE(unit.ok());
  EXPECT_EQ(cluster.Stats().units, 1u);
  ASSERT_TRUE(cluster.Release(*unit).ok());
  EXPECT_EQ(cluster.Stats().units, 0u);
}

TEST(ClusterTest, ReleaseUnknownFails) {
  Cluster cluster(1, {1000, 1024});
  EXPECT_TRUE(cluster.Release(42).IsNotFound());
}

TEST(ClusterTest, ExhaustionReported) {
  Cluster cluster(1, {1000, 1024});
  // Lambda min unit is 64 mCPU / 128MB + 8MB overhead -> memory-bound at 7.
  std::vector<UnitId> units;
  while (true) {
    auto r = cluster.Allocate(IsolationLevel::kLambda, {64, 128},
                              PlacementPolicy::kFirstFit);
    if (!r.ok()) {
      EXPECT_TRUE(r.status().IsResourceExhausted());
      break;
    }
    units.push_back(*r);
  }
  EXPECT_GT(units.size(), 0u);
  // Releasing one makes room again.
  ASSERT_TRUE(cluster.Release(units[0]).ok());
  EXPECT_TRUE(cluster
                  .Allocate(IsolationLevel::kLambda, {64, 128},
                            PlacementPolicy::kFirstFit)
                  .ok());
}

TEST(ClusterTest, FirstFitConsolidates) {
  Cluster cluster(4, {4000, 8192});
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(cluster
                    .Allocate(IsolationLevel::kContainer, {500, 512},
                              PlacementPolicy::kFirstFit)
                    .ok());
  }
  EXPECT_EQ(cluster.Stats().machines_in_use, 1u);
}

TEST(ClusterTest, WorstFitSpreads) {
  Cluster cluster(4, {4000, 8192});
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(cluster
                    .Allocate(IsolationLevel::kContainer, {500, 512},
                              PlacementPolicy::kWorstFit)
                    .ok());
  }
  EXPECT_EQ(cluster.Stats().machines_in_use, 4u);
}

TEST(ClusterTest, ComplementaryBalancesDimensions) {
  Cluster cluster(2, {4000, 4096});
  // Alternate CPU-heavy and memory-heavy units.
  for (int i = 0; i < 4; ++i) {
    const ResourceVector demand =
        i % 2 == 0 ? ResourceVector{1500, 256} : ResourceVector{200, 1500};
    ASSERT_TRUE(cluster
                    .Allocate(IsolationLevel::kContainer, demand,
                              PlacementPolicy::kComplementary)
                    .ok());
  }
  // Complementary packing should co-locate opposite shapes, yielding lower
  // imbalance than segregating them.
  EXPECT_LT(cluster.Stats().avg_imbalance, 0.6);
}

TEST(ClusterTest, MachineOfTracksPlacement) {
  Cluster cluster(2, {4000, 8192});
  auto unit = cluster.Allocate(IsolationLevel::kContainer, {500, 512},
                               PlacementPolicy::kFirstFit);
  ASSERT_TRUE(unit.ok());
  auto machine = cluster.MachineOf(*unit);
  ASSERT_TRUE(machine.ok());
  EXPECT_EQ(*machine, 0u);
  ASSERT_TRUE(cluster.Release(*unit).ok());
  EXPECT_TRUE(cluster.MachineOf(*unit).status().IsNotFound());
}

TEST(ClusterTest, ReservedCostScalesLinearly) {
  Cluster cluster(4, {4000, 8192}, Money::FromDollars(0.10));
  const Money one = cluster.ReservedCost(1, kHour);
  const Money four = cluster.ReservedCost(4, kHour);
  EXPECT_EQ(one.nano_dollars(), 100000000);  // $0.10
  EXPECT_EQ(four.nano_dollars(), one.nano_dollars() * 4);
}

TEST(ClusterTest, StatsAggregates) {
  Cluster cluster(3, {1000, 1024});
  ASSERT_TRUE(cluster
                  .Allocate(IsolationLevel::kContainer, {400, 400},
                            PlacementPolicy::kFirstFit)
                  .ok());
  const ClusterStats s = cluster.Stats();
  EXPECT_EQ(s.machines_total, 3u);
  EXPECT_EQ(s.machines_in_use, 1u);
  EXPECT_EQ(s.total_capacity.cpu_millis, 3000);
  EXPECT_GT(s.avg_utilization, 0.0);
}

TEST(ClusterTest, PolicyNames) {
  EXPECT_EQ(PlacementPolicyName(PlacementPolicy::kBestFit), "best-fit");
  EXPECT_EQ(PlacementPolicyName(PlacementPolicy::kComplementary),
            "complementary");
}

// -------------------------------------------------- Hardware heterogeneity

TEST(HeterogeneityTest, GpuDimensionInResourceVector) {
  cluster::ResourceVector demand{1000, 2048, 2};
  cluster::ResourceVector gpu_box{32000, 65536, 4};
  cluster::ResourceVector cpu_box{32000, 65536, 0};
  EXPECT_TRUE(demand.FitsIn(gpu_box));
  EXPECT_FALSE(demand.FitsIn(cpu_box));
  EXPECT_EQ((demand + demand).gpus, 4);
  EXPECT_EQ(demand.ToString(), "1000mCPU/2048MB/2GPU");
  EXPECT_DOUBLE_EQ(demand.DominantShare(gpu_box), 0.5);  // gpu-dominant
}

TEST(HeterogeneityTest, GpuFunctionsLandOnGpuMachines) {
  // Mixed fleet: 3 CPU boxes + 1 GPU box.
  cluster::Cluster cl({{32000, 65536, 0},
                       {32000, 65536, 0},
                       {32000, 65536, 0},
                       {32000, 65536, 4}});
  auto unit = cl.Allocate(cluster::IsolationLevel::kLambda, {1000, 2048, 1},
                          cluster::PlacementPolicy::kFirstFit, "trainer");
  ASSERT_TRUE(unit.ok());
  auto machine = cl.MachineOf(*unit);
  ASSERT_TRUE(machine.ok());
  EXPECT_EQ(*machine, 3u);  // the only GPU-bearing box
}

TEST(HeterogeneityTest, GpuExhaustionIndependentOfCpu) {
  cluster::Cluster cl({{32000, 65536, 2}});
  ASSERT_TRUE(cl.Allocate(cluster::IsolationLevel::kLambda, {500, 512, 2},
                          cluster::PlacementPolicy::kFirstFit)
                  .ok());
  // Plenty of CPU left, but no GPUs.
  EXPECT_TRUE(cl.Allocate(cluster::IsolationLevel::kLambda, {500, 512, 1},
                          cluster::PlacementPolicy::kFirstFit)
                  .status()
                  .IsResourceExhausted());
  // CPU-only functions still place fine.
  EXPECT_TRUE(cl.Allocate(cluster::IsolationLevel::kLambda, {500, 512, 0},
                          cluster::PlacementPolicy::kFirstFit)
                  .ok());
}

TEST(HeterogeneityTest, GpuFunctionOnFaasPlatform) {
  sim::Simulation sim;
  cluster::Cluster cl({{32000, 65536, 0}, {32000, 65536, 2}});
  faas::FaasPlatform platform(&sim, &cl, faas::FaasConfig{});
  faas::FunctionSpec train;
  train.name = "gpu-train";
  train.demand = {2000, 4096, 1};
  train.exec = {faas::ExecTimeModel::Kind::kFixed, 100 * kMillisecond, 0, 0};
  ASSERT_TRUE(platform.RegisterFunction(train).ok());
  auto res = platform.InvokeSync("gpu-train", "");
  ASSERT_TRUE(res.ok());
  EXPECT_TRUE(res->status.ok());
}

// ------------------------------------------------------ Dedicated tenancy

TEST(DedicatedTenancyTest, NeverSharesMachinesAcrossTenants) {
  cluster::Cluster cl(4, {8000, 16384});
  for (int i = 0; i < 6; ++i) {
    const std::string tenant = i % 2 == 0 ? "alice" : "bob";
    auto r = cl.AllocateIsolated(cluster::IsolationLevel::kLambda,
                                 {1000, 1024},
                                 cluster::PlacementPolicy::kFirstFit, tenant);
    ASSERT_TRUE(r.ok()) << i;
  }
  EXPECT_EQ(cl.CoResidentTenantPairs(), 0u);
}

TEST(DedicatedTenancyTest, SharedPlacementCoResides) {
  cluster::Cluster cl(4, {8000, 16384});
  for (int i = 0; i < 6; ++i) {
    const std::string tenant = i % 2 == 0 ? "alice" : "bob";
    ASSERT_TRUE(cl.Allocate(cluster::IsolationLevel::kLambda, {1000, 1024},
                            cluster::PlacementPolicy::kFirstFit, tenant)
                    .ok());
  }
  EXPECT_GT(cl.CoResidentTenantPairs(), 0u);
}

TEST(DedicatedTenancyTest, IsolationCostsCapacity) {
  // With 2 machines and 3 tenants, dedicated tenancy must reject the third
  // tenant even though capacity remains.
  cluster::Cluster cl(2, {8000, 16384});
  ASSERT_TRUE(cl.AllocateIsolated(cluster::IsolationLevel::kLambda,
                                  {1000, 1024},
                                  cluster::PlacementPolicy::kFirstFit, "a")
                  .ok());
  ASSERT_TRUE(cl.AllocateIsolated(cluster::IsolationLevel::kLambda,
                                  {1000, 1024},
                                  cluster::PlacementPolicy::kFirstFit, "b")
                  .ok());
  EXPECT_TRUE(cl.AllocateIsolated(cluster::IsolationLevel::kLambda,
                                  {1000, 1024},
                                  cluster::PlacementPolicy::kFirstFit, "c")
                  .status()
                  .IsResourceExhausted());
  // The same tenant can keep packing its own machines.
  EXPECT_TRUE(cl.AllocateIsolated(cluster::IsolationLevel::kLambda,
                                  {1000, 1024},
                                  cluster::PlacementPolicy::kFirstFit, "a")
                  .ok());
}

TEST(DedicatedTenancyTest, RequiresOwnerTag) {
  cluster::Cluster cl(2, {8000, 16384});
  EXPECT_TRUE(cl.AllocateIsolated(cluster::IsolationLevel::kLambda,
                                  {1000, 1024},
                                  cluster::PlacementPolicy::kFirstFit, "")
                  .status()
                  .IsInvalidArgument());
}

// ---------------------------------------------------------- Cluster depth

TEST(ClusterDepthTest, HeterogeneousStatsAggregate) {
  cluster::Cluster cl({{16000, 32768, 0}, {32000, 65536, 8}});
  const auto stats = cl.Stats();
  EXPECT_EQ(stats.total_capacity.cpu_millis, 48000);
  EXPECT_EQ(stats.total_capacity.gpus, 8);
  EXPECT_EQ(stats.machines_total, 2u);
  EXPECT_EQ(cl.ReservedCost(3, 0).nano_dollars(), 0);
}

}  // namespace
}  // namespace taureau::cluster
