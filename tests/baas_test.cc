// Unit tests for the BaaS substrates: blob store, KV store and the shared
// latency model.
#include <gtest/gtest.h>

#include "baas/blob_store.h"
#include "common/stats.h"
#include "baas/kv_store.h"
#include "baas/latency_model.h"

namespace taureau::baas {
namespace {

// ----------------------------------------------------------- LatencyModel

TEST(LatencyModelTest, MeanIsBasePlusThroughput) {
  LatencyModel m{1000, 0.5, 0.0};
  EXPECT_EQ(m.Mean(0), 1000);
  EXPECT_EQ(m.Mean(2000), 2000);
}

TEST(LatencyModelTest, PresetsOrdered) {
  // Memory < KV < Blob for small payloads — the E8 premise.
  Rng rng(1);
  EXPECT_LT(MemoryStoreLatency().Mean(1024), KvStoreLatency().Mean(1024));
  EXPECT_LT(KvStoreLatency().Mean(1024), BlobStoreLatency().Mean(1024));
}

TEST(LatencyModelTest, SamplesClusterAroundMean) {
  Rng rng(2);
  LatencyModel m{10000, 0, 0.2};
  Summary s;
  for (int i = 0; i < 2000; ++i) s.Add(double(m.Sample(&rng, 0)));
  EXPECT_GT(s.mean(), 8000);
  EXPECT_LT(s.mean(), 13000);
}

// -------------------------------------------------------------- BlobStore

TEST(BlobStoreTest, PutGetRoundTrip) {
  BlobStore store;
  ASSERT_TRUE(store.Put("a/b", "hello").status.ok());
  std::string value;
  auto op = store.Get("a/b", &value);
  ASSERT_TRUE(op.status.ok());
  EXPECT_EQ(value, "hello");
  EXPECT_GT(op.latency_us, 0);
}

TEST(BlobStoreTest, GetMissingIsNotFound) {
  BlobStore store;
  std::string value;
  EXPECT_TRUE(store.Get("ghost", &value).status.IsNotFound());
}

TEST(BlobStoreTest, OverwriteReplaces) {
  BlobStore store;
  ASSERT_TRUE(store.Put("k", "v1").status.ok());
  ASSERT_TRUE(store.Put("k", "longer-v2").status.ok());
  std::string value;
  ASSERT_TRUE(store.Get("k", &value).status.ok());
  EXPECT_EQ(value, "longer-v2");
  EXPECT_EQ(store.total_bytes(), 9u);
  EXPECT_EQ(store.object_count(), 1u);
}

TEST(BlobStoreTest, DeleteRemoves) {
  BlobStore store;
  ASSERT_TRUE(store.Put("k", "v").status.ok());
  ASSERT_TRUE(store.Delete("k").status.ok());
  EXPECT_FALSE(store.Contains("k"));
  EXPECT_TRUE(store.Delete("k").status.IsNotFound());
  EXPECT_EQ(store.total_bytes(), 0u);
}

TEST(BlobStoreTest, ListByPrefix) {
  BlobStore store;
  store.Put("job1/a", "1");
  store.Put("job1/b", "2");
  store.Put("job2/c", "3");
  const auto keys = store.List("job1/");
  ASSERT_EQ(keys.size(), 2u);
  EXPECT_EQ(keys[0], "job1/a");
  EXPECT_EQ(keys[1], "job1/b");
  EXPECT_EQ(store.List("nope/").size(), 0u);
}

TEST(BlobStoreTest, EmptyKeyRejected) {
  BlobStore store;
  EXPECT_TRUE(store.Put("", "v").status.IsInvalidArgument());
}

TEST(BlobStoreTest, LatencyScalesWithSize) {
  BlobStore store;
  const auto small = store.Put("s", std::string(1024, 'x'));
  const auto large = store.Put("l", std::string(64 * 1024 * 1024, 'x'));
  EXPECT_GT(large.latency_us, small.latency_us * 5);
}

TEST(BlobStoreTest, CostTracksRequestsAndStorage) {
  BlobStore store;
  store.Put("k", std::string(1 << 20, 'x'));
  std::string v;
  store.Get("k", &v);
  store.AccrueStorage(24 * kHour);
  const Money cost = store.CostSoFar();
  EXPECT_GT(cost.nano_dollars(), 0);
  // Fees: 1 put (5000) + 1 get (400) + ~1MB-day storage (~786 nano$).
  EXPECT_GT(cost.nano_dollars(), 5400);
  EXPECT_LT(cost.nano_dollars(), 10000);
}

// ---------------------------------------------------------------- KvStore

TEST(KvStoreTest, PutGetVersioned) {
  KvStore kv;
  auto w1 = kv.Put("k", "v1", 0);
  ASSERT_TRUE(w1.status.ok());
  EXPECT_EQ(w1.version, 1u);
  auto w2 = kv.Put("k", "v2", 0);
  EXPECT_EQ(w2.version, 2u);
  std::string v;
  auto r = kv.Get("k", 0, &v);
  ASSERT_TRUE(r.status.ok());
  EXPECT_EQ(v, "v2");
  EXPECT_EQ(r.version, 2u);
}

TEST(KvStoreTest, PutIfAbsentIsIdempotentCreate) {
  KvStore kv;
  EXPECT_TRUE(kv.PutIfAbsent("k", "first", 0).status.ok());
  EXPECT_TRUE(kv.PutIfAbsent("k", "second", 0).status.IsAlreadyExists());
  std::string v;
  kv.Get("k", 0, &v);
  EXPECT_EQ(v, "first");
}

TEST(KvStoreTest, PutIfVersionDetectsRaces) {
  KvStore kv;
  kv.Put("k", "v1", 0);  // version 1
  EXPECT_TRUE(kv.PutIfVersion("k", "mine", 1, 0).status.ok());  // -> v2
  EXPECT_TRUE(kv.PutIfVersion("k", "stale", 1, 0).status.IsAborted());
  EXPECT_TRUE(kv.PutIfVersion("ghost", "x", 1, 0).status.IsNotFound());
}

TEST(KvStoreTest, TtlExpires) {
  KvStore kv;
  kv.Put("k", "v", /*now=*/0, /*ttl=*/10 * kSecond);
  std::string v;
  EXPECT_TRUE(kv.Get("k", 5 * kSecond, &v).status.ok());
  EXPECT_TRUE(kv.Get("k", 11 * kSecond, &v).status.IsNotFound());
  EXPECT_EQ(kv.expired_evictions(), 1u);
}

TEST(KvStoreTest, IncrementCreatesAndAdds) {
  KvStore kv;
  int64_t out = 0;
  ASSERT_TRUE(kv.Increment("n", 5, 0, &out).status.ok());
  EXPECT_EQ(out, 5);
  ASSERT_TRUE(kv.Increment("n", -2, 0, &out).status.ok());
  EXPECT_EQ(out, 3);
}

TEST(KvStoreTest, IncrementNonNumericFails) {
  KvStore kv;
  kv.Put("s", "hello", 0);
  int64_t out = 0;
  EXPECT_TRUE(kv.Increment("s", 1, 0, &out).status.IsFailedPrecondition());
}

TEST(KvStoreTest, DeleteRemoves) {
  KvStore kv;
  kv.Put("k", "v", 0);
  EXPECT_TRUE(kv.Delete("k", 0).status.ok());
  EXPECT_TRUE(kv.Delete("k", 0).status.IsNotFound());
}

TEST(KvStoreDepthTest, PutIfAbsentSucceedsAfterTtlExpiry) {
  baas::KvStore kv;
  ASSERT_TRUE(kv.PutIfAbsent("k", "v1", 0, /*ttl=*/kSecond).status.ok());
  EXPECT_TRUE(kv.PutIfAbsent("k", "v2", 500 * kMillisecond).status
                  .IsAlreadyExists());
  EXPECT_TRUE(kv.PutIfAbsent("k", "v3", 2 * kSecond).status.ok());
  std::string v;
  kv.Get("k", 2 * kSecond, &v);
  EXPECT_EQ(v, "v3");
}

}  // namespace
}  // namespace taureau::baas
