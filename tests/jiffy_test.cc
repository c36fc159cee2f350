// Unit tests for the Jiffy ephemeral state store (§4.4): pool, data
// structures, queue spilling, namespaces, leases, notifications, and
// baselines.
#include <gtest/gtest.h>

#include <set>

#include "baas/blob_store.h"
#include "jiffy/baselines.h"
#include "jiffy/controller.h"
#include "jiffy/data_structures.h"
#include "jiffy/memory_pool.h"
#include "sim/simulation.h"

namespace taureau::jiffy {
namespace {

JiffyConfig SmallConfig() {
  JiffyConfig cfg;
  cfg.num_memory_nodes = 2;
  cfg.blocks_per_node = 64;
  cfg.block_size_bytes = 1024;
  cfg.default_lease_us = 10 * kSecond;
  cfg.lease_scan_period_us = 1 * kSecond;
  return cfg;
}

// -------------------------------------------------------------- MemoryPool

TEST(MemoryPoolTest, AllocateFreeRoundTrip) {
  MemoryPool pool(2, 4, 1024);
  EXPECT_EQ(pool.capacity_blocks(), 8u);
  auto b = pool.Allocate("app1");
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(pool.used_blocks(), 1u);
  EXPECT_EQ(pool.OwnerUsage("app1"), 1u);
  ASSERT_TRUE(pool.Free(*b).ok());
  EXPECT_EQ(pool.used_blocks(), 0u);
  EXPECT_EQ(pool.OwnerUsage("app1"), 0u);
}

TEST(MemoryPoolTest, ExhaustionAndRecovery) {
  MemoryPool pool(1, 4, 1024);
  std::vector<BlockId> blocks;
  for (int i = 0; i < 4; ++i) {
    auto b = pool.Allocate("a");
    ASSERT_TRUE(b.ok());
    blocks.push_back(*b);
  }
  EXPECT_TRUE(pool.Allocate("a").status().IsResourceExhausted());
  EXPECT_EQ(pool.stats().failed_allocations, 1u);
  ASSERT_TRUE(pool.Free(blocks[2]).ok());
  EXPECT_TRUE(pool.Allocate("b").ok());
}

TEST(MemoryPoolTest, DoubleFreeDetected) {
  MemoryPool pool(1, 4, 1024);
  auto b = pool.Allocate("a");
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(pool.Free(*b).ok());
  EXPECT_TRUE(pool.Free(*b).IsFailedPrecondition());
}

TEST(MemoryPoolTest, InvalidBlockRejected) {
  MemoryPool pool(1, 4, 1024);
  EXPECT_TRUE(pool.Free({5, 0}).IsInvalidArgument());
  EXPECT_TRUE(pool.Free({0, 99}).IsInvalidArgument());
}

TEST(MemoryPoolTest, BlocksSpreadAcrossNodes) {
  MemoryPool pool(4, 16, 1024);
  std::set<uint32_t> nodes;
  for (int i = 0; i < 8; ++i) {
    auto b = pool.Allocate("a");
    ASSERT_TRUE(b.ok());
    nodes.insert(b->node);
  }
  EXPECT_EQ(nodes.size(), 4u);  // round-robin across nodes
}

TEST(MemoryPoolTest, PeakTracked) {
  MemoryPool pool(1, 8, 1024);
  std::vector<BlockId> blocks;
  for (int i = 0; i < 5; ++i) blocks.push_back(*pool.Allocate("a"));
  for (auto b : blocks) pool.Free(b);
  EXPECT_EQ(pool.stats().peak_used_blocks, 5u);
  EXPECT_EQ(pool.used_blocks(), 0u);
}

// ---------------------------------------------------------- JiffyHashTable

TEST(JiffyHashTableTest, PutGetRemove) {
  MemoryPool pool(2, 64, 1024);
  JiffyHashTable table(&pool, "app", 4);
  ASSERT_TRUE(table.Put("k1", "v1").status.ok());
  std::string v;
  ASSERT_TRUE(table.Get("k1", &v).status.ok());
  EXPECT_EQ(v, "v1");
  ASSERT_TRUE(table.Remove("k1").status.ok());
  EXPECT_TRUE(table.Get("k1", &v).status.IsNotFound());
  EXPECT_EQ(table.size(), 0u);
}

TEST(JiffyHashTableTest, BlocksGrowWithData) {
  MemoryPool pool(2, 64, 1024);
  JiffyHashTable table(&pool, "app", 1);
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(
        table.Put("key-" + std::to_string(i), std::string(500, 'x'))
            .status.ok());
  }
  EXPECT_GE(table.block_count(), 10u);
  EXPECT_EQ(pool.used_blocks(), table.block_count());
}

TEST(JiffyHashTableTest, BlocksShrinkOnRemove) {
  MemoryPool pool(2, 64, 1024);
  JiffyHashTable table(&pool, "app", 1);
  for (int i = 0; i < 20; ++i) {
    table.Put("key-" + std::to_string(i), std::string(500, 'x'));
  }
  const uint64_t peak = table.block_count();
  for (int i = 0; i < 20; ++i) {
    table.Remove("key-" + std::to_string(i));
  }
  EXPECT_LT(table.block_count(), peak);
  EXPECT_LE(table.block_count(), 2u);  // hysteresis allows one spare
}

TEST(JiffyHashTableTest, PoolExhaustionSurfacesCleanly) {
  MemoryPool pool(1, 2, 1024);
  JiffyHashTable table(&pool, "app", 1);
  Status last;
  for (int i = 0; i < 10; ++i) {
    last = table.Put("k" + std::to_string(i), std::string(512, 'x')).status;
    if (!last.ok()) break;
  }
  EXPECT_TRUE(last.IsResourceExhausted());
  // The failed put must not corrupt byte accounting: data still readable.
  std::string v;
  EXPECT_TRUE(table.Get("k0", &v).status.ok());
}

TEST(JiffyHashTableTest, ResizePreservesData) {
  MemoryPool pool(2, 64, 1024);
  JiffyHashTable table(&pool, "app", 2);
  for (int i = 0; i < 50; ++i) {
    table.Put("key-" + std::to_string(i), "value-" + std::to_string(i));
  }
  auto stats = table.Resize(8);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->partitions_after, 8u);
  EXPECT_EQ(table.partition_count(), 8u);
  for (int i = 0; i < 50; ++i) {
    std::string v;
    ASSERT_TRUE(table.Get("key-" + std::to_string(i), &v).status.ok()) << i;
    EXPECT_EQ(v, "value-" + std::to_string(i));
  }
}

TEST(JiffyHashTableTest, ResizeMovesOnlyReassignedPairs) {
  MemoryPool pool(2, 64, 1024);
  JiffyHashTable table(&pool, "app", 4);
  uint64_t total_bytes = 0;
  for (int i = 0; i < 100; ++i) {
    const std::string k = "key-" + std::to_string(i);
    table.Put(k, "0123456789");
    total_bytes += k.size() + 10;
  }
  auto stats = table.Resize(5);
  ASSERT_TRUE(stats.ok());
  EXPECT_GT(stats->moved_bytes, 0u);
  EXPECT_LT(stats->moved_bytes, total_bytes);  // strictly partial movement
}

TEST(JiffyHashTableTest, DestroyReturnsAllBlocks) {
  MemoryPool pool(2, 64, 1024);
  JiffyHashTable table(&pool, "app", 4);
  for (int i = 0; i < 30; ++i) {
    table.Put("k" + std::to_string(i), std::string(200, 'x'));
  }
  ASSERT_GT(pool.used_blocks(), 0u);
  ASSERT_TRUE(table.Destroy().ok());
  EXPECT_EQ(pool.used_blocks(), 0u);
}

// -------------------------------------------------------------- JiffyQueue

TEST(JiffyQueueTest, FifoOrder) {
  MemoryPool pool(1, 16, 1024);
  JiffyQueue q(&pool, "app");
  q.Enqueue("a");
  q.Enqueue("b");
  q.Enqueue("c");
  std::string v;
  ASSERT_TRUE(q.Dequeue(&v).status.ok());
  EXPECT_EQ(v, "a");
  ASSERT_TRUE(q.Peek(&v).status.ok());
  EXPECT_EQ(v, "b");
  ASSERT_TRUE(q.Dequeue(&v).status.ok());
  EXPECT_EQ(v, "b");
  EXPECT_EQ(q.size(), 1u);
}

TEST(JiffyQueueTest, EmptyDequeueNotFound) {
  MemoryPool pool(1, 16, 1024);
  JiffyQueue q(&pool, "app");
  std::string v;
  EXPECT_TRUE(q.Dequeue(&v).status.IsNotFound());
  EXPECT_TRUE(q.Peek(&v).status.IsNotFound());
}

TEST(JiffyQueueTest, BlockAccountingFollowsContents) {
  MemoryPool pool(1, 32, 1024);
  JiffyQueue q(&pool, "app");
  for (int i = 0; i < 10; ++i) q.Enqueue(std::string(1000, 'x'));
  EXPECT_GE(q.block_count(), 9u);
  std::string v;
  for (int i = 0; i < 10; ++i) q.Dequeue(&v);
  EXPECT_LE(q.block_count(), 1u);
}

// --------------------------------------------------------------- JiffyFile

TEST(JiffyFileTest, AppendRead) {
  MemoryPool pool(1, 16, 1024);
  JiffyFile file(&pool, "app");
  SimDuration lat = 0;
  auto off1 = file.Append("hello ", &lat);
  ASSERT_TRUE(off1.ok());
  EXPECT_EQ(*off1, 0u);
  EXPECT_GT(lat, 0);
  auto off2 = file.Append("world", &lat);
  ASSERT_TRUE(off2.ok());
  EXPECT_EQ(*off2, 6u);
  std::string out;
  ASSERT_TRUE(file.Read(0, 11, &out).status.ok());
  EXPECT_EQ(out, "hello world");
}

TEST(JiffyFileTest, ReadBeyondEofFails) {
  MemoryPool pool(1, 16, 1024);
  JiffyFile file(&pool, "app");
  SimDuration lat;
  file.Append("abc", &lat);
  std::string out;
  EXPECT_TRUE(file.Read(10, 5, &out).status.code() ==
              StatusCode::kOutOfRange);
  // Truncated read at the boundary succeeds.
  ASSERT_TRUE(file.Read(1, 100, &out).status.ok());
  EXPECT_EQ(out, "bc");
}

// -------------------------------------------------------------- Controller

TEST(ControllerTest, PathNormalization) {
  EXPECT_EQ(JiffyController::NormalizePath("/a/b"), "/a/b");
  EXPECT_EQ(JiffyController::NormalizePath("/a//b/"), "/a/b");
  EXPECT_EQ(JiffyController::NormalizePath("relative"), "");
  EXPECT_EQ(JiffyController::NormalizePath(""), "");
  EXPECT_EQ(JiffyController::NormalizePath("/"), "");
  EXPECT_EQ(JiffyController::OwnerTag("/job1/task2"), "job1");
  EXPECT_EQ(JiffyController::OwnerTag("/solo"), "solo");
}

TEST(ControllerTest, CreateNamespaceWithAncestors) {
  sim::Simulation sim;
  JiffyController jiffy(&sim, SmallConfig());
  ASSERT_TRUE(jiffy.CreateNamespace("/job/map/0").ok());
  EXPECT_TRUE(jiffy.Exists("/job"));
  EXPECT_TRUE(jiffy.Exists("/job/map"));
  EXPECT_TRUE(jiffy.Exists("/job/map/0"));
  EXPECT_EQ(jiffy.namespace_count(), 3u);
  EXPECT_TRUE(jiffy.CreateNamespace("/job/map/0").IsAlreadyExists());
  EXPECT_TRUE(jiffy.CreateNamespace("bad path").IsInvalidArgument());
}

TEST(ControllerTest, DataStructureLifecycle) {
  sim::Simulation sim;
  JiffyController jiffy(&sim, SmallConfig());
  ASSERT_TRUE(jiffy.CreateNamespace("/app").ok());
  auto table = jiffy.CreateHashTable("/app", "state", 2);
  ASSERT_TRUE(table.ok());
  ASSERT_TRUE((*table)->Put("k", "v").status.ok());
  // Typed getters enforce kinds.
  EXPECT_TRUE(jiffy.GetHashTable("/app", "state").ok());
  EXPECT_TRUE(
      jiffy.GetQueue("/app", "state").status().IsFailedPrecondition());
  EXPECT_TRUE(jiffy.GetHashTable("/app", "ghost").status().IsNotFound());
  EXPECT_TRUE(jiffy.CreateHashTable("/app", "state").status()
                  .IsAlreadyExists());
}

TEST(ControllerTest, RemoveNamespaceFreesBlocks) {
  sim::Simulation sim;
  JiffyController jiffy(&sim, SmallConfig());
  ASSERT_TRUE(jiffy.CreateNamespace("/app").ok());
  auto table = jiffy.CreateHashTable("/app", "t", 1);
  ASSERT_TRUE(table.ok());
  for (int i = 0; i < 20; ++i) {
    (*table)->Put("k" + std::to_string(i), std::string(300, 'x'));
  }
  ASSERT_GT(jiffy.pool().used_blocks(), 0u);
  ASSERT_TRUE(jiffy.RemoveNamespace("/app").ok());
  EXPECT_EQ(jiffy.pool().used_blocks(), 0u);
  EXPECT_FALSE(jiffy.Exists("/app"));
}

TEST(ControllerTest, RemoveIsRecursive) {
  sim::Simulation sim;
  JiffyController jiffy(&sim, SmallConfig());
  ASSERT_TRUE(jiffy.CreateNamespace("/job/a/1").ok());
  ASSERT_TRUE(jiffy.CreateNamespace("/job/b").ok());
  ASSERT_TRUE(jiffy.CreateNamespace("/jobx").ok());  // sibling prefix!
  ASSERT_TRUE(jiffy.RemoveNamespace("/job").ok());
  EXPECT_FALSE(jiffy.Exists("/job"));
  EXPECT_FALSE(jiffy.Exists("/job/a/1"));
  EXPECT_FALSE(jiffy.Exists("/job/b"));
  EXPECT_TRUE(jiffy.Exists("/jobx"));  // prefix sibling untouched
}

TEST(ControllerTest, LeaseExpiryReclaimsMemory) {
  // E9's core mechanism: state outlives its producer exactly as long as the
  // lease is renewed, and is reclaimed after expiry.
  sim::Simulation sim;
  JiffyController jiffy(&sim, SmallConfig());
  jiffy.StartLeaseScan();
  ASSERT_TRUE(jiffy.CreateNamespace("/job", 5 * kSecond).ok());
  auto q = jiffy.CreateQueue("/job", "data");
  ASSERT_TRUE(q.ok());
  (*q)->Enqueue(std::string(2000, 'x'));
  ASSERT_GT(jiffy.pool().used_blocks(), 0u);

  // Consumer keeps renewing for a while: state survives.
  for (int i = 0; i < 3; ++i) {
    sim.RunUntil(sim.Now() + 3 * kSecond);
    ASSERT_TRUE(jiffy.Exists("/job"));
    ASSERT_TRUE(jiffy.RenewLease("/job").ok());
  }
  // Renewals stop: the lease lapses and memory returns to the pool.
  sim.RunUntil(sim.Now() + 10 * kSecond);
  EXPECT_FALSE(jiffy.Exists("/job"));
  EXPECT_EQ(jiffy.pool().used_blocks(), 0u);
  EXPECT_GE(jiffy.stats().leases_expired, 1u);
}

TEST(ControllerTest, PermanentNamespaceNeverExpires) {
  sim::Simulation sim;
  JiffyController jiffy(&sim, SmallConfig());
  jiffy.StartLeaseScan();
  ASSERT_TRUE(jiffy.CreateNamespace("/pinned", -1).ok());
  sim.RunUntil(kHour);
  EXPECT_TRUE(jiffy.Exists("/pinned"));
  jiffy.StopLeaseScan();
}

TEST(ControllerTest, NotificationsFire) {
  sim::Simulation sim;
  JiffyController jiffy(&sim, SmallConfig());
  ASSERT_TRUE(jiffy.CreateNamespace("/app").ok());
  std::vector<std::string> events;
  ASSERT_TRUE(jiffy.Subscribe("/app", [&](const std::string& event,
                                          const std::string& path) {
    events.push_back(event + "@" + path);
  }).ok());
  ASSERT_TRUE(jiffy.Notify("/app", "data_ready").ok());
  ASSERT_TRUE(jiffy.RemoveNamespace("/app").ok());
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0], "data_ready@/app");
  EXPECT_EQ(events[1], "removed@/app");
}

TEST(ControllerTest, ExpiryNotifiesSubscribers) {
  sim::Simulation sim;
  JiffyController jiffy(&sim, SmallConfig());
  jiffy.StartLeaseScan();
  ASSERT_TRUE(jiffy.CreateNamespace("/app", 2 * kSecond).ok());
  std::string last_event;
  jiffy.Subscribe("/app", [&](const std::string& event, const std::string&) {
    last_event = event;
  });
  sim.RunUntil(5 * kSecond);
  EXPECT_EQ(last_event, "expired");
}

TEST(ControllerTest, LeaseRemainingReported) {
  sim::Simulation sim;
  JiffyController jiffy(&sim, SmallConfig());
  ASSERT_TRUE(jiffy.CreateNamespace("/app", 10 * kSecond).ok());
  auto remaining = jiffy.LeaseRemaining("/app");
  ASSERT_TRUE(remaining.ok());
  EXPECT_EQ(*remaining, 10 * kSecond);
  EXPECT_TRUE(jiffy.LeaseRemaining("/ghost").status().IsNotFound());
}

// ---------------------------------------------------- Isolation / baselines

TEST(IsolationTest, JiffyScalingMovesOnlyOwnData) {
  // The paper's second Jiffy insight: per-namespace structures repartition
  // independently — tenant B's bytes never move when tenant A scales.
  MemoryPool pool(4, 256, 1024);
  JiffyHashTable tenant_a(&pool, "a", 4);
  JiffyHashTable tenant_b(&pool, "b", 4);
  for (int i = 0; i < 100; ++i) {
    tenant_a.Put("a-key-" + std::to_string(i), std::string(50, 'a'));
    tenant_b.Put("b-key-" + std::to_string(i), std::string(50, 'b'));
  }
  auto stats = tenant_a.Resize(8);
  ASSERT_TRUE(stats.ok());
  // All moved bytes belong to tenant A; B's table is untouched by
  // construction — verify B's data is still intact and sized identically.
  EXPECT_GT(stats->moved_bytes, 0u);
  EXPECT_EQ(tenant_b.partition_count(), 4u);
  std::string v;
  ASSERT_TRUE(tenant_b.Get("b-key-7", &v).status.ok());
}

TEST(IsolationTest, GlobalAddressSpaceMovesOtherTenants) {
  // The baseline violates isolation: scaling the shared space moves bytes
  // belonging to tenants that asked for nothing.
  GlobalAddressSpaceStore store(4);
  for (int i = 0; i < 200; ++i) {
    store.Put("tenant-a", "key-" + std::to_string(i), std::string(50, 'a'));
    store.Put("tenant-b", "key-" + std::to_string(i), std::string(50, 'b'));
  }
  auto rep = store.Resize(8);
  ASSERT_TRUE(rep.ok());
  EXPECT_GT(rep->moved_bytes_by_tenant["tenant-b"], 0u)
      << "tenant B's data moved even though only the shared space scaled";
  // Data still correct after the global rehash.
  std::string v;
  ASSERT_TRUE(store.Get("tenant-b", "key-13", &v).status.ok());
  EXPECT_EQ(v, std::string(50, 'b'));
}

TEST(ProducerCoupledTest, PrematureLoss) {
  // E9: producer-coupled lifetime loses state the consumer still needs.
  ProducerCoupledStore store;
  store.Put(/*producer=*/1, "result", "42");
  std::string v;
  ASSERT_TRUE(store.Get("result", &v).status.ok());
  store.EndProducer(1);
  EXPECT_TRUE(store.Get("result", &v).status.IsNotFound());
  EXPECT_EQ(store.reclaimed_objects(), 1u);
  EXPECT_EQ(store.live_bytes(), 0u);
}

TEST(ProducerCoupledTest, OtherProducersUnaffected) {
  ProducerCoupledStore store;
  store.Put(1, "a", "1");
  store.Put(2, "b", "2");
  store.EndProducer(1);
  std::string v;
  EXPECT_TRUE(store.Get("a", &v).status.IsNotFound());
  ASSERT_TRUE(store.Get("b", &v).status.ok());
  EXPECT_EQ(v, "2");
}

// ----------------------------------------------- Parameterized pool sweep

class MultiplexSweep : public ::testing::TestWithParam<int> {};

TEST_P(MultiplexSweep, SequentialAppsReuseTheSamePool) {
  // The paper's first Jiffy insight: short-lived apps multiplex a shared
  // pool — peak usage stays near one app's footprint, far below the sum.
  const int apps = GetParam();
  sim::Simulation sim;
  JiffyConfig cfg = SmallConfig();
  cfg.num_memory_nodes = 1;
  cfg.blocks_per_node = 40;
  JiffyController jiffy(&sim, cfg);
  uint64_t per_app_blocks = 0;
  for (int a = 0; a < apps; ++a) {
    const std::string path = "/app-" + std::to_string(a);
    ASSERT_TRUE(jiffy.CreateNamespace(path).ok());
    auto q = jiffy.CreateQueue(path, "q");
    ASSERT_TRUE(q.ok());
    for (int i = 0; i < 20; ++i) {
      ASSERT_TRUE((*q)->Enqueue(std::string(1000, 'x')).status.ok());
    }
    per_app_blocks = (*q)->block_count();
    ASSERT_TRUE(jiffy.RemoveNamespace(path).ok());
  }
  // Pool peak = one app's footprint even after `apps` apps ran.
  EXPECT_EQ(jiffy.pool().stats().peak_used_blocks, per_app_blocks);
  EXPECT_LT(per_app_blocks * 2, uint64_t(apps) * per_app_blocks + 1);
}

INSTANTIATE_TEST_SUITE_P(AppCounts, MultiplexSweep,
                         ::testing::Values(2, 5, 10));

// ------------------------------------------------------------ Queue spill

TEST(QueueSpillTest, SpillsInsteadOfFailing) {
  jiffy::MemoryPool pool(1, 2, 1024);  // tiny: 2KB total
  baas::BlobStore cold;
  jiffy::JiffyQueue q(&pool, "job", 47);
  q.EnableSpill(&cold);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(q.Enqueue(std::string(900, char('a' + i))).status.ok()) << i;
  }
  EXPECT_GT(q.spilled_items(), 0u);
  EXPECT_GT(cold.object_count(), 0u);
  // FIFO order preserved across the spill boundary.
  for (int i = 0; i < 10; ++i) {
    std::string v;
    ASSERT_TRUE(q.Dequeue(&v).status.ok()) << i;
    EXPECT_EQ(v, std::string(900, char('a' + i))) << i;
  }
  EXPECT_EQ(cold.object_count(), 0u);  // spilled objects reclaimed
}

TEST(QueueSpillTest, WithoutSpillStillFailsCleanly) {
  jiffy::MemoryPool pool(1, 2, 1024);
  jiffy::JiffyQueue q(&pool, "job");
  Status last;
  for (int i = 0; i < 10; ++i) {
    last = q.Enqueue(std::string(900, 'x')).status;
    if (!last.ok()) break;
  }
  EXPECT_TRUE(last.IsResourceExhausted());
}

TEST(QueueSpillTest, SpilledAccessIsSlower) {
  jiffy::MemoryPool pool(1, 2, 1024);
  baas::BlobStore cold;
  jiffy::JiffyQueue q(&pool, "job", 47);
  q.EnableSpill(&cold);
  auto in_memory = q.Enqueue(std::string(900, 'a'));
  ASSERT_TRUE(in_memory.status.ok());
  // Fill until spill kicks in.
  jiffy::JiffyOp spilled{};
  for (int i = 0; i < 5; ++i) {
    spilled = q.Enqueue(std::string(900, 'b'));
    ASSERT_TRUE(spilled.status.ok());
  }
  ASSERT_GT(q.spilled_items(), 0u);
  EXPECT_GT(spilled.latency_us, in_memory.latency_us * 5);
}

// ------------------------------------------------------- Controller depth

TEST(JiffyDepthTest, RenewPermanentLeaseIsNoop) {
  sim::Simulation sim;
  jiffy::JiffyConfig cfg;
  cfg.num_memory_nodes = 1;
  cfg.blocks_per_node = 8;
  jiffy::JiffyController jc(&sim, cfg);
  ASSERT_TRUE(jc.CreateNamespace("/pin", -1).ok());
  EXPECT_TRUE(jc.RenewLease("/pin").ok());
  auto remaining = jc.LeaseRemaining("/pin");
  ASSERT_TRUE(remaining.ok());
  EXPECT_EQ(*remaining, INT64_MAX);
}

TEST(JiffyDepthTest, NotifyUnknownPathFails) {
  sim::Simulation sim;
  jiffy::JiffyController jc(&sim, jiffy::JiffyConfig{});
  EXPECT_TRUE(jc.Notify("/ghost", "evt").IsNotFound());
  EXPECT_TRUE(jc.Subscribe("/ghost", nullptr).IsNotFound());
}

}  // namespace
}  // namespace taureau::jiffy
