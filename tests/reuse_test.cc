// Tests for the computation-reuse layer (E29): the shared result cache
// (LRU/TTL/byte-budget/cost-aware admission, over both key types, and held
// to the pre-slab implementation as a reference model), singleflight
// coalescing,
// the ReuseLayer policy bundle (recurrence sketches, approximation gate,
// live knobs), the FaaS platform integration (cache hits, coalesced
// fan-out, single billing, approximation under SLO burn), the chaos
// idempotency cache's first-writer-wins regression, the E28 knob wiring
// (sampler head rate, prewarmer targets), and the serial-vs-psim
// differential determinism of the whole reuse path.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <list>
#include <map>
#include <memory>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "chaos/idempotency.h"
#include "cluster/cluster.h"
#include "common/flat_table.h"
#include "common/hash.h"
#include "common/rng.h"
#include "common/time_types.h"
#include "ctrl/config.h"
#include "faas/platform.h"
#include "faas/prewarmer.h"
#include "obs/observability.h"
#include "obs/shard_merge.h"
#include "obs/slo.h"
#include "psim/psim.h"
#include "reuse/result_cache.h"
#include "reuse/reuse.h"
#include "reuse/singleflight.h"
#include "sim/simulation.h"
#include "sketch/countmin.h"

namespace taureau {
namespace {

using reuse::CachedResult;
using reuse::ContentKey;
using reuse::PutOutcome;
using reuse::ResultCache;
using reuse::ResultCacheConfig;
using reuse::ReuseConfig;
using reuse::ReuseLayer;
using reuse::Singleflight;

// ------------------------------------------------------------ ResultCache
//
// Every case runs over both instantiations: ContentKey (the reuse layer)
// and std::string (chaos::IdempotencyCache).

template <class Key>
struct KeyTag {
  using type = Key;
};

/// Runs `body(KeyTag<Key>{})` for both cache key types.
template <class Body>
void ForBothKeys(Body body) {
  {
    SCOPED_TRACE("ContentKey");
    body(KeyTag<ContentKey>{});
  }
  {
    SCOPED_TRACE("std::string");
    body(KeyTag<std::string>{});
  }
}

/// Names test keys: a reuse layer's ContentKey for function "fn" and
/// payload `name`, or `name` itself.
template <class Key>
struct KeyMaker {
  ReuseLayer layer;
  Key operator()(const std::string& name) {
    if constexpr (std::is_same_v<Key, std::string>) {
      return name;
    } else {
      return layer.Key("fn", name);
    }
  }
};

TEST(ResultCacheTest, MissThenHit) {
  ForBothKeys([](auto tag) {
    using Key = typename decltype(tag)::type;
    KeyMaker<Key> k;
    ResultCache<Key> cache;
    EXPECT_EQ(cache.Lookup(k("k"), 0), nullptr);
    EXPECT_EQ(cache.Put(k("k"), {Status::OK(), "v"}, 0),
              PutOutcome::kInserted);
    const CachedResult* e = cache.Lookup(k("k"), 1);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->output, "v");
    EXPECT_TRUE(e->status.ok());
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(cache.misses(), 1u);
  });
}

TEST(ResultCacheTest, FirstWriterWins) {
  ForBothKeys([](auto tag) {
    using Key = typename decltype(tag)::type;
    KeyMaker<Key> k;
    ResultCache<Key> cache;
    EXPECT_EQ(cache.Put(k("k"), {Status::OK(), "first"}, 0),
              PutOutcome::kInserted);
    EXPECT_EQ(cache.Put(k("k"), {Status::Internal("late"), "second"}, 1),
              PutOutcome::kDuplicate);
    const CachedResult* e = cache.Lookup(k("k"), 2);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->output, "first");
    EXPECT_TRUE(e->status.ok());
    EXPECT_EQ(cache.duplicate_puts(), 1u);
  });
}

TEST(ResultCacheTest, TtlExpiresEntries) {
  ForBothKeys([](auto tag) {
    using Key = typename decltype(tag)::type;
    KeyMaker<Key> k;
    ResultCache<Key> cache({/*max_bytes=*/0, /*max_entries=*/0, /*ttl_us=*/10,
                            /*cost_aware=*/false});
    cache.Put(k("k"), {Status::OK(), "v"}, 0);
    EXPECT_NE(cache.Lookup(k("k"), 9), nullptr);
    EXPECT_EQ(cache.Lookup(k("k"), 10), nullptr);  // Dead exactly at the TTL.
    EXPECT_EQ(cache.expirations(), 1u);
    EXPECT_EQ(cache.size(), 0u);
    // A fresh Put after expiry is an insert, not a duplicate.
    EXPECT_EQ(cache.Put(k("k"), {Status::OK(), "v2"}, 11),
              PutOutcome::kInserted);
  });
}

TEST(ResultCacheTest, PlainLruEvictsOldest) {
  ForBothKeys([](auto tag) {
    using Key = typename decltype(tag)::type;
    KeyMaker<Key> k;
    ResultCache<Key> cache({0, /*max_entries=*/2, 0, false});
    cache.Put(k("a"), {Status::OK(), "1"}, 0);
    cache.Put(k("b"), {Status::OK(), "2"}, 1);
    cache.Lookup(k("a"), 2);  // Refresh "a"; "b" is now the LRU tail.
    cache.Put(k("c"), {Status::OK(), "3"}, 3);
    EXPECT_EQ(cache.evictions(), 1u);
    EXPECT_NE(cache.Lookup(k("a"), 4), nullptr);
    EXPECT_EQ(cache.Lookup(k("b"), 4), nullptr);
    EXPECT_NE(cache.Lookup(k("c"), 4), nullptr);
  });
}

TEST(ResultCacheTest, CostAwareRejectsOneHitWonders) {
  ForBothKeys([](auto tag) {
    using Key = typename decltype(tag)::type;
    KeyMaker<Key> k;
    // Every output is 36 bytes and every key is one name byte, so all
    // entries cost the same (101 bytes with a string key, 119 with a
    // ContentKey, charged as "fn" + 0x1f + 16 hex digits); two fit.
    const std::string out(36, 'x');
    ResultCache<Key> probe;
    probe.Put(k("a"), {Status::OK(), out}, 0);
    ResultCache<Key> cache({/*max_bytes=*/2 * probe.bytes(), 0, 0,
                            /*cost_aware=*/true});
    cache.Put(k("a"), {Status::OK(), out, /*exec_us=*/1000, /*recurrence=*/10},
              0);
    cache.Put(k("b"), {Status::OK(), out, /*exec_us=*/1000, /*recurrence=*/10},
              1);
    // A cheap one-hit wonder must not displace the hot expensive entries.
    EXPECT_EQ(cache.Put(k("c"),
                        {Status::OK(), out, /*exec_us=*/1, /*recurrence=*/1},
                        2),
              PutOutcome::kRejected);
    EXPECT_EQ(cache.rejected_admissions(), 1u);
    EXPECT_EQ(cache.evictions(), 0u);
    EXPECT_NE(cache.Lookup(k("a"), 3), nullptr);
    EXPECT_NE(cache.Lookup(k("b"), 3), nullptr);
    // A more valuable newcomer does evict the (cheaper-scored) LRU victim.
    EXPECT_EQ(cache.Put(k("d"),
                        {Status::OK(), out, /*exec_us=*/5000,
                         /*recurrence=*/10},
                        4),
              PutOutcome::kInserted);
    EXPECT_EQ(cache.evictions(), 1u);
    EXPECT_NE(cache.Lookup(k("d"), 5), nullptr);
  });
}

TEST(ResultCacheTest, SetLimitsShrinksLive) {
  ForBothKeys([](auto tag) {
    using Key = typename decltype(tag)::type;
    KeyMaker<Key> k;
    ResultCache<Key> cache({0, 0, 0, false});
    for (int i = 0; i < 8; ++i)
      cache.Put(k("k" + std::to_string(i)), {Status::OK(), "v"}, i);
    EXPECT_EQ(cache.size(), 8u);
    cache.SetLimits(/*max_bytes=*/0, /*max_entries=*/3);
    EXPECT_EQ(cache.size(), 3u);
    EXPECT_EQ(cache.evictions(), 5u);
    // The survivors are the most recently used.
    EXPECT_NE(cache.Lookup(k("k7"), 9), nullptr);
    EXPECT_EQ(cache.Lookup(k("k0"), 9), nullptr);
  });
}

/// The cache's hit/miss/eviction sequence is a pure function of the call
/// sequence: replaying the same seeded op stream yields the same trace.
template <class Key>
std::string ReplayTrace(uint64_t seed) {
  KeyMaker<Key> k;
  ResultCache<Key> cache({/*max_bytes=*/4096, 0, /*ttl_us=*/5000,
                          /*cost_aware=*/true});
  Rng rng(seed);
  std::string trace;
  SimTime now = 0;
  for (int op = 0; op < 600; ++op) {
    now += SimDuration(rng.NextInt(0, 50));
    const Key key = k("k" + std::to_string(rng.NextBounded(24)));
    if (cache.Lookup(key, now) != nullptr) {
      trace += 'H';
    } else {
      trace += 'M';
      const CachedResult value{Status::OK(),
                               std::string(size_t(rng.NextBounded(120)), 'v'),
                               SimDuration(rng.NextInt(1, 2000)),
                               uint64_t(rng.NextInt(1, 8))};
      switch (cache.Put(key, value, now)) {
        case PutOutcome::kInserted: trace += 'I'; break;
        case PutOutcome::kDuplicate: trace += 'D'; break;
        case PutOutcome::kRejected: trace += 'R'; break;
      }
    }
  }
  trace += " h=" + std::to_string(cache.hits());
  trace += " m=" + std::to_string(cache.misses());
  trace += " ev=" + std::to_string(cache.evictions());
  trace += " ex=" + std::to_string(cache.expirations());
  trace += " rj=" + std::to_string(cache.rejected_admissions());
  return trace;
}

TEST(ResultCacheTest, ReplayIsDeterministic) {
  ForBothKeys([](auto tag) {
    using Key = typename decltype(tag)::type;
    for (uint64_t seed = 1; seed <= 5; ++seed) {
      ASSERT_EQ(ReplayTrace<Key>(seed), ReplayTrace<Key>(seed))
          << "seed=" << seed;
    }
    EXPECT_NE(ReplayTrace<Key>(1), ReplayTrace<Key>(2));
  });
}

TEST(ResultCacheTest, LookupPointerSurvivesLaterPuts) {
  ForBothKeys([](auto tag) {
    using Key = typename decltype(tag)::type;
    KeyMaker<Key> k;
    ResultCache<Key> cache;
    cache.Put(k("anchor"), {Status::OK(), "anchored-output", 7}, 0);
    const CachedResult* anchor = cache.Lookup(k("anchor"), 0);
    ASSERT_NE(anchor, nullptr);
    // Enough inserts to grow the slab and rehash the index many times.
    for (int i = 0; i < 10000; ++i) {
      ASSERT_EQ(cache.Put(k("other" + std::to_string(i)),
                          {Status::OK(), std::string(size_t(i % 40), 'o')}, i),
                PutOutcome::kInserted);
    }
    EXPECT_EQ(anchor->output, "anchored-output");
    EXPECT_EQ(anchor->exec_us, 7);
    EXPECT_EQ(cache.Lookup(k("anchor"), 10000), anchor);
  });
}

/// The result cache before the slab rewrite: a std::list LRU of key copies
/// beside an unordered_map. The differential test below holds the slab
/// cache to it, result for result and counter for counter.
class ReferenceCache {
 public:
  explicit ReferenceCache(ResultCacheConfig config) : config_(config) {}

  const CachedResult* Lookup(const std::string& key, SimTime now_us) {
    auto it = entries_.find(key);
    if (it == entries_.end()) {
      ++misses_;
      return nullptr;
    }
    if (Expired(it->second, now_us)) {
      ++expirations_;
      ++misses_;
      Erase(it);
      return nullptr;
    }
    ++hits_;
    Touch(it->second);
    return &it->second.entry;
  }

  PutOutcome Put(const std::string& key, CachedResult value, SimTime now_us) {
    value.stored_at_us = now_us;
    auto it = entries_.find(key);
    if (it != entries_.end()) {
      if (!Expired(it->second, now_us)) {
        ++duplicate_puts_;
        Touch(it->second);
        return PutOutcome::kDuplicate;
      }
      ++expirations_;
      Erase(it);
    }
    const size_t incoming = key.size() + value.output.size() +
                            ResultCache<std::string>::kEntryOverheadBytes;
    SweepExpiredTail(now_us);
    if (config_.cost_aware) {
      const double score = value.Score();
      while (OverBudget(incoming) && !lru_.empty()) {
        auto victim = entries_.find(lru_.back());
        if (victim->second.entry.Score() > score) {
          ++rejected_admissions_;
          return PutOutcome::kRejected;
        }
        ++evictions_;
        Erase(victim);
      }
    } else {
      while (OverBudget(incoming) && !lru_.empty()) {
        ++evictions_;
        Erase(entries_.find(lru_.back()));
      }
    }
    if (OverBudget(incoming)) {
      ++rejected_admissions_;
      return PutOutcome::kRejected;
    }
    lru_.push_front(key);
    bytes_ += incoming;
    entries_.emplace(key, Slot{std::move(value), incoming, lru_.begin()});
    return PutOutcome::kInserted;
  }

  void SetLimits(size_t max_bytes, size_t max_entries) {
    config_.max_bytes = max_bytes;
    config_.max_entries = max_entries;
    while (OverBudget(0) && !lru_.empty()) {
      ++evictions_;
      Erase(entries_.find(lru_.back()));
    }
  }

  size_t size() const { return entries_.size(); }
  size_t bytes() const { return bytes_; }
  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }
  uint64_t duplicate_puts() const { return duplicate_puts_; }
  uint64_t evictions() const { return evictions_; }
  uint64_t expirations() const { return expirations_; }
  uint64_t rejected_admissions() const { return rejected_admissions_; }

 private:
  struct Slot {
    CachedResult entry;
    size_t bytes = 0;
    std::list<std::string>::iterator lru_it;
  };
  using Map = std::unordered_map<std::string, Slot>;

  bool Expired(const Slot& slot, SimTime now_us) const {
    return config_.ttl_us > 0 &&
           now_us - slot.entry.stored_at_us >= config_.ttl_us;
  }
  void Touch(Slot& slot) { lru_.splice(lru_.begin(), lru_, slot.lru_it); }
  void Erase(Map::iterator it) {
    bytes_ -= it->second.bytes;
    lru_.erase(it->second.lru_it);
    entries_.erase(it);
  }
  void SweepExpiredTail(SimTime now_us) {
    while (!lru_.empty()) {
      auto it = entries_.find(lru_.back());
      if (!Expired(it->second, now_us)) return;
      ++expirations_;
      Erase(it);
    }
  }
  bool OverBudget(size_t incoming_bytes) const {
    if (config_.max_entries > 0 &&
        entries_.size() + (incoming_bytes > 0 ? 1 : 0) > config_.max_entries) {
      return true;
    }
    return config_.max_bytes > 0 &&
           bytes_ + incoming_bytes > config_.max_bytes;
  }

  ResultCacheConfig config_;
  Map entries_;
  std::list<std::string> lru_;
  size_t bytes_ = 0;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t duplicate_puts_ = 0;
  uint64_t evictions_ = 0;
  uint64_t expirations_ = 0;
  uint64_t rejected_admissions_ = 0;
};

/// Counters and occupancy of a cache, in a form gtest prints on mismatch.
template <class Cache>
std::string CacheCounters(const Cache& c) {
  return "size=" + std::to_string(c.size()) +
         " bytes=" + std::to_string(c.bytes()) +
         " h=" + std::to_string(c.hits()) + " m=" + std::to_string(c.misses()) +
         " dup=" + std::to_string(c.duplicate_puts()) +
         " ev=" + std::to_string(c.evictions()) +
         " ex=" + std::to_string(c.expirations()) +
         " rj=" + std::to_string(c.rejected_admissions());
}

/// Both null, or equal in every field.
void ExpectSameEntry(const CachedResult* want, const CachedResult* got,
                     const char* which) {
  ASSERT_EQ(want == nullptr, got == nullptr) << which;
  if (want == nullptr) return;
  EXPECT_EQ(want->status.code(), got->status.code()) << which;
  EXPECT_EQ(want->status.message(), got->status.message()) << which;
  EXPECT_EQ(want->output, got->output) << which;
  EXPECT_EQ(want->exec_us, got->exec_us) << which;
  EXPECT_EQ(want->recurrence, got->recurrence) << which;
  EXPECT_EQ(want->stored_at_us, got->stored_at_us) << which;
}

/// One seeded Lookup/Put/SetLimits stream through both instantiations and
/// the reference. The reference and the string cache use the string key
/// `function + 0x1f + hex(Fnv1a64(payload))`, the ContentKey cache the
/// layer's key for the same request, which is charged the same bytes.
void RunCacheDifferential(const ResultCacheConfig& config, uint64_t seed,
                          int ops) {
  static const std::string kFunctions[] = {"f", "func", "function-name"};
  constexpr uint64_t kPayloads = 300;
  ReuseLayer layer;
  ReferenceCache want(config);
  ResultCache<ContentKey> by_content(config);
  ResultCache<std::string> by_string(config);
  Rng rng(seed);
  SimTime now = 0;
  auto string_key = [](const std::string& fn, const std::string& payload) {
    static constexpr char kDigits[] = "0123456789abcdef";
    std::string key = fn + '\x1f';
    const uint64_t h = Fnv1a64(payload);
    for (int shift = 60; shift >= 0; shift -= 4) {
      key += kDigits[(h >> shift) & 0xF];
    }
    return key;
  };
  auto check_counters = [&](int op) {
    const std::string expected = CacheCounters(want);
    ASSERT_EQ(CacheCounters(by_content), expected) << "op " << op;
    ASSERT_EQ(CacheCounters(by_string), expected) << "op " << op;
  };
  for (int op = 0; op < ops; ++op) {
    now += SimDuration(rng.NextInt(0, 20));
    const std::string& fn = kFunctions[rng.NextBounded(3)];
    const std::string payload =
        "p" + std::to_string(rng.NextBounded(kPayloads));
    const std::string skey = string_key(fn, payload);
    const ContentKey ckey = layer.Key(fn, payload);
    ASSERT_EQ(ckey.bytes, skey.size());
    const uint64_t dice = rng.NextBounded(100);
    if (dice < 45) {
      const CachedResult* w = want.Lookup(skey, now);
      ExpectSameEntry(w, by_content.Lookup(ckey, now), "content");
      ExpectSameEntry(w, by_string.Lookup(skey, now), "string");
    } else if (dice < 98) {
      const uint64_t code = rng.NextBounded(4);
      const CachedResult value{
          code == 0 ? Status::Internal("failed " + payload) : Status::OK(),
          std::string(size_t(rng.NextBounded(90)), char('a' + op % 26)),
          SimDuration(rng.NextInt(1, 3000)), uint64_t(rng.NextInt(1, 9))};
      const PutOutcome w = want.Put(skey, value, now);
      ASSERT_EQ(by_content.Put(ckey, value, now), w) << "op " << op;
      ASSERT_EQ(by_string.Put(skey, value, now), w) << "op " << op;
    } else {
      // Re-bound live: back to the stream's bounds, far tighter (mass
      // eviction) or unbounded (the index grows past every earlier size).
      size_t bytes = config.max_bytes;
      size_t entries = config.max_entries;
      switch (rng.NextBounded(3)) {
        case 0: bytes /= 8; entries /= 8; break;
        case 1: bytes = 0; entries = 0; break;
        default: break;
      }
      want.SetLimits(bytes, entries);
      by_content.SetLimits(bytes, entries);
      by_string.SetLimits(bytes, entries);
    }
    check_counters(op);
    if (::testing::Test::HasFailure()) return;
  }
  // Every entry, read back at the end.
  for (const std::string& fn : kFunctions) {
    for (uint64_t p = 0; p < kPayloads; ++p) {
      const std::string payload = "p" + std::to_string(p);
      const std::string skey = string_key(fn, payload);
      const CachedResult* w = want.Lookup(skey, now);
      ExpectSameEntry(w, by_content.Lookup(layer.Key(fn, payload), now),
                      "content");
      ExpectSameEntry(w, by_string.Lookup(skey, now), "string");
    }
  }
  check_counters(ops);
}

TEST(ResultCacheTest, MatchesReferenceModel) {
  struct Bounds {
    size_t max_bytes;
    size_t max_entries;
  };
  const Bounds bounds[] = {{6000, 0}, {0, 60}, {9000, 80}};
  uint64_t seed = 1;
  for (const SimDuration ttl : {SimDuration(0), SimDuration(900)}) {
    for (const bool cost_aware : {false, true}) {
      for (const Bounds& b : bounds) {
        SCOPED_TRACE("ttl=" + std::to_string(ttl) + " cost_aware=" +
                     std::to_string(cost_aware) + " max_bytes=" +
                     std::to_string(b.max_bytes) + " max_entries=" +
                     std::to_string(b.max_entries));
        RunCacheDifferential({b.max_bytes, b.max_entries, ttl, cost_aware},
                             seed++, /*ops=*/20000);
        if (HasFailure()) return;
      }
    }
  }
}

// ------------------------------------------------------------ Singleflight

TEST(SingleflightTest, LeadAttachCompleteInOrder) {
  ReuseLayer layer;
  const ContentKey k = layer.Key("fn", "k");
  Singleflight sf;
  EXPECT_TRUE(sf.Lead(k, 1));
  EXPECT_FALSE(sf.Lead(k, 2));  // One leader per key.
  EXPECT_TRUE(sf.InFlight(k));
  std::vector<uint64_t> delivered;
  for (uint64_t id = 10; id < 13; ++id) {
    EXPECT_TRUE(sf.Attach(
        k, {id, [&delivered, id](const CachedResult&) {
              delivered.push_back(id);
            }}));
  }
  auto followers = sf.Complete(k);
  ASSERT_EQ(followers.size(), 3u);
  const CachedResult result{Status::OK(), "out"};
  for (auto& f : followers) f.deliver(result);
  EXPECT_EQ(delivered, (std::vector<uint64_t>{10, 11, 12}));
  EXPECT_FALSE(sf.InFlight(k));
  EXPECT_TRUE(sf.Complete(k).empty());   // Closed flights stay closed.
  EXPECT_FALSE(sf.Attach(k, {99, nullptr}));  // No leader, no attach.
  EXPECT_EQ(sf.leaders(), 1u);
  EXPECT_EQ(sf.followers_attached(), 3u);
  EXPECT_EQ(sf.max_fanout(), 3u);
}

/// Seeded churn against a std::map of flights. With `wrap` the 7 keys all
/// have home slot 14, 15 or 0 in the table's first size of 16, which 7
/// flights never outgrow, so probe runs cross the table's end and closes
/// shift them back across it; otherwise 400 keys make the table grow.
void RunSingleflightChurn(bool wrap, uint64_t seed) {
  ReuseLayer layer;
  std::vector<ContentKey> keys;
  for (int i = 0; keys.size() < (wrap ? 7u : 400u); ++i) {
    const ContentKey key =
        layer.Key(i % 2 ? "a" : "bb", "p" + std::to_string(i));
    const size_t home = FlatHome(key.Hash(), kFlatTableFirstCapacity);
    if (!wrap || home >= 14 || home == 0) keys.push_back(key);
  }
  struct Flight {
    uint64_t leader = 0;
    std::vector<uint64_t> followers;
  };
  std::map<size_t, Flight> want;
  uint64_t want_leaders = 0, want_attached = 0, want_fanout = 0;
  Singleflight sf;
  Rng rng(seed);
  uint64_t next_id = 1;
  for (int op = 0; op < 100000; ++op) {
    const size_t k = size_t(rng.NextBounded(keys.size()));
    const uint64_t dice = rng.NextBounded(100);
    auto it = want.find(k);
    if (dice < 35) {
      const uint64_t id = next_id++;
      ASSERT_EQ(sf.Lead(keys[k], id), it == want.end()) << "op " << op;
      if (it == want.end()) {
        want[k].leader = id;
        ++want_leaders;
      }
    } else if (dice < 65) {
      const uint64_t id = next_id++;
      ASSERT_EQ(sf.Attach(keys[k], {id, nullptr}),
                it != want.end())
          << "op " << op;
      if (it != want.end()) {
        it->second.followers.push_back(id);
        ++want_attached;
        want_fanout =
            std::max<uint64_t>(want_fanout, it->second.followers.size());
      }
    } else if (dice < 80) {
      ASSERT_EQ(sf.InFlight(keys[k]), it != want.end()) << "op " << op;
    } else {
      std::vector<uint64_t> got;
      for (const reuse::Follower& f : sf.Complete(keys[k])) got.push_back(f.id);
      const std::vector<uint64_t> expected =
          it == want.end() ? std::vector<uint64_t>{} : it->second.followers;
      ASSERT_EQ(got, expected) << "op " << op;
      if (it != want.end()) want.erase(it);
    }
    ASSERT_EQ(sf.inflight(), want.size()) << "op " << op;
  }
  for (size_t k = 0; k < keys.size(); ++k) {
    EXPECT_EQ(sf.InFlight(keys[k]), want.count(k) != 0) << "key " << k;
  }
  EXPECT_EQ(sf.leaders(), want_leaders);
  EXPECT_EQ(sf.followers_attached(), want_attached);
  EXPECT_EQ(sf.max_fanout(), want_fanout);
}

TEST(SingleflightTest, ChurnMatchesMapReference) {
  for (const bool wrap : {true, false}) {
    SCOPED_TRACE(wrap ? "wrapping runs" : "growing table");
    RunSingleflightChurn(wrap, /*seed=*/23);
    if (HasFailure()) return;
  }
}

// -------------------------------------------------------------- ReuseLayer

TEST(ReuseLayerTest, KeyIsContentAddressedAndBounded) {
  static_assert(sizeof(ContentKey) == 16);
  ReuseLayer layer;
  const ContentKey small = layer.Key("fn", "p");
  const ContentKey large = layer.Key("fn", std::string(1 << 20, 'p'));
  EXPECT_EQ(layer.Key("fn", "p"), small);       // Same content, same key.
  EXPECT_NE(layer.Key("fn", "q"), small);       // Content-addressed.
  EXPECT_NE(layer.Key("fn2", "p"), small);      // Function-scoped.
  EXPECT_EQ(layer.Key(layer.FunctionId("fn"), "p"), small);
  EXPECT_EQ(small.payload_hash, Fnv1a64("p"));
  // Charged as the string key "fn" + 0x1f + 16 hex digits, whatever the
  // payload size.
  EXPECT_EQ(small.bytes, 2u + 17u);
  EXPECT_EQ(large.bytes, small.bytes);
  EXPECT_EQ(layer.Key("function", "p").bytes, 8u + 17u);
}

TEST(ReuseLayerTest, RecurrenceNeverUndercounts) {
  ReuseLayer layer;
  const ContentKey key = layer.Key("fn", "hot");
  for (int i = 0; i < 7; ++i) layer.NoteRequest(key);
  EXPECT_GE(layer.Recurrence(key), 7u);  // CountMin one-sided error.
  // Offer stamps the sketch's recurrence estimate onto the entry.
  layer.Offer(key, {Status::OK(), "v", /*exec_us=*/100}, 0);
  const CachedResult* e = layer.Lookup(key, 1);
  ASSERT_NE(e, nullptr);
  EXPECT_GE(e->recurrence, 7u);
}

TEST(ReuseLayerTest, RecurrenceMatchesStringSketch) {
  // The layer counts each key at its memoized sketch columns; a CountMin
  // sketch fed the string key `function + 0x1f + 16 hex digits` must agree
  // at every step, also for keys that share a memo slot and evict each
  // other.
  ReuseLayer layer;
  sketch::CountMinSketch reference(/*depth=*/4, /*width=*/4096, /*seed=*/17);
  struct Request {
    std::string function;
    ContentKey key;
  };
  const std::string functions[] = {"fn", "resize-image", "f"};
  std::vector<Request> pool;
  for (int i = 0; i < 240; ++i) {
    const std::string& fn = functions[i % 3];
    pool.push_back({fn, layer.Key(fn, "p" + std::to_string(i))});
  }
  // Pairs of pool keys in one slot, found with the memo's own slot map.
  std::vector<std::pair<size_t, size_t>> shared;
  std::map<size_t, size_t> by_slot;
  for (size_t i = 0; i < pool.size(); ++i) {
    auto [it, fresh] =
        by_slot.try_emplace(ReuseLayer::SketchMemoSlot(pool[i].key), i);
    if (!fresh) shared.push_back({it->second, i});
  }
  ASSERT_GE(shared.size(), 3u);
  bool cross_function = false;
  for (const auto& [a, b] : shared) {
    cross_function |= pool[a].function != pool[b].function;
  }
  EXPECT_TRUE(cross_function);
  // And one payload whose keys under two functions share a slot: the
  // slot's key differs only in its function.
  for (int j = 0; j < 100000; ++j) {
    const std::string payload = "q" + std::to_string(j);
    const ContentKey a = layer.Key("fn", payload);
    const ContentKey b = layer.Key("f", payload);
    if (ReuseLayer::SketchMemoSlot(a) != ReuseLayer::SketchMemoSlot(b)) {
      continue;
    }
    shared.push_back({pool.size(), pool.size() + 1});
    pool.push_back({"fn", a});
    pool.push_back({"f", b});
    break;
  }
  ASSERT_EQ(pool.size(), 242u);

  auto item = [](const Request& r) {
    char hex[17];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(r.key.payload_hash));
    return r.function + '\x1f' + hex;
  };
  auto note = [&](const Request& r) {
    layer.NoteRequest(r.key);
    reference.Add(item(r));
    ASSERT_EQ(layer.Recurrence(r.key), reference.EstimateCount(item(r)));
  };
  Rng rng(2024);
  for (int i = 0; i < 4000; ++i) {
    if (rng.NextBool(0.2)) {
      // Two keys of one slot, alternating.
      const auto [a, b] = shared[rng.NextBounded(shared.size())];
      for (int k = 0; k < 4; ++k) note(pool[k % 2 == 0 ? a : b]);
    } else {
      note(pool[rng.NextBounded(pool.size())]);
    }
    if (::testing::Test::HasFatalFailure()) return;
  }
  for (const Request& r : pool) {
    EXPECT_EQ(layer.Recurrence(r.key), reference.EstimateCount(item(r)));
  }
  // Offer stamps the same estimate onto the cached entry.
  const Request& hot = pool[shared[0].first];
  layer.Offer(hot.key, {Status::OK(), "v", /*exec_us=*/100}, 0);
  const CachedResult* e = layer.Lookup(hot.key, 1);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->recurrence, reference.EstimateCount(item(hot)));
}

TEST(ReuseLayerTest, ApproxGateFollowsBurnRate) {
  obs::SloEngine slo;
  obs::SloObjective objective;
  objective.name = "obj";
  objective.module = "svc";
  objective.target = 0.9;
  // The engine only retains windowed events up to its longest policy
  // window — the gate needs a policy at least as wide as its own window.
  objective.policies.push_back({"page", 1 * kSecond, 1 * kSecond, 10.0});
  slo.AddObjective(objective);

  ReuseConfig cfg;
  cfg.approx_burn_threshold = 5.0;
  cfg.approx_burn_window_us = 1 * kSecond;
  ReuseLayer layer(cfg);
  layer.SetSloSource(&slo, "obj");

  // No events yet: burn 0, gate closed.
  EXPECT_FALSE(layer.ShouldApproximate("t", 0));
  // All-bad traffic burns at 1 / (1 - 0.9) = 10 >= 5: gate open.
  for (int i = 0; i < 20; ++i) slo.Record("svc", SimTime(i), 100, false);
  EXPECT_TRUE(layer.ShouldApproximate("t", 20));
  // Once the window has drained the gate closes again.
  EXPECT_FALSE(layer.ShouldApproximate("t", 20 + 2 * kSecond));
}

TEST(ReuseLayerTest, ApproxErrorNeverExceedsExportedBound) {
  // A CountMin-backed approximation provider: the answer is the estimated
  // frequency of the queried key, the exported bound is the sketch's
  // additive guarantee. Property: |estimate - truth| <= bound, always.
  sketch::CountMinSketch counts(4, 64, 7);
  std::map<std::string, uint64_t> truth;
  Rng rng(99);
  ZipfGenerator zipf(200, 1.1);
  for (int i = 0; i < 20000; ++i) {
    const std::string item = "item" + std::to_string(zipf.Next(&rng));
    counts.Add(item);
    ++truth[item];
  }
  ReuseLayer layer;
  layer.RegisterApprox("top", [&counts](const std::string& payload) {
    return ReuseLayer::ApproxAnswer{
        std::to_string(counts.EstimateCount(payload)), counts.ErrorBound()};
  });
  const uint32_t top = layer.FunctionId("top");
  ASSERT_TRUE(layer.HasApprox(top));
  for (const auto& [item, exact] : truth) {
    const auto ans = layer.Approximate(top, item);
    const uint64_t estimate = std::stoull(ans.output);
    ASSERT_GE(estimate, exact);  // CountMin never undercounts...
    ASSERT_LE(double(estimate - exact), ans.error_bound)
        << item;               // ...and overshoot stays within the bound.
  }
}

TEST(ReuseLayerTest, LiveKnobsApplyThroughCtrl) {
  sim::Simulation sim;
  ctrl::ConfigService svc(&sim);
  ReuseLayer layer;
  layer.AttachControl(&svc);
  // Fill the cache, then shrink the byte budget live: entries evict.
  for (int i = 0; i < 64; ++i) {
    layer.Offer(layer.Key("fn", std::to_string(i)),
                {Status::OK(), std::string(1024, 'v'), 100}, 0);
  }
  ASSERT_EQ(layer.cache().size(), 64u);
  svc.Push("reuse.enabled", ctrl::ConfigValue::Bool(false));
  svc.Push("reuse.approx.burn_threshold", ctrl::ConfigValue::Double(3.5));
  svc.Push("reuse.cache.max_bytes", ctrl::ConfigValue::Int(4096));
  sim.Run();  // Pushes apply at the service's (zero-delay) safe point.
  EXPECT_FALSE(layer.enabled());
  EXPECT_DOUBLE_EQ(layer.approx_burn_threshold(), 3.5);
  EXPECT_LE(layer.cache().bytes(), 4096u);
  EXPECT_LT(layer.cache().size(), 64u);
  EXPECT_GT(layer.cache().evictions(), 0u);
}

// ----------------------------------------------- platform integration

struct ReuseFixture {
  sim::Simulation sim;
  cluster::Cluster cluster{8, {32000, 65536}};
  std::unique_ptr<faas::FaasPlatform> platform;
  ReuseLayer layer;

  explicit ReuseFixture(faas::FaasConfig cfg = {}, ReuseConfig rcfg = {})
      : layer(rcfg) {
    platform = std::make_unique<faas::FaasPlatform>(&sim, &cluster, cfg);
    platform->AttachReuse(&layer);
  }

  faas::FunctionSpec IdempotentSpec(const std::string& name,
                                    SimDuration exec = 50 * kMillisecond) {
    faas::FunctionSpec spec;
    spec.name = name;
    spec.exec = {faas::ExecTimeModel::Kind::kFixed, exec, 0, 0};
    spec.init_us = 100 * kMillisecond;
    spec.idempotent = true;
    spec.handler = [](const std::string& payload, faas::InvocationContext&) {
      return Result<std::string>("out:" + payload);
    };
    return spec;
  }
};

TEST(ReusePlatformTest, CacheHitServesRepeatWithoutBilling) {
  ReuseFixture f;
  ASSERT_TRUE(f.platform->RegisterFunction(f.IdempotentSpec("fn")).ok());
  auto first = f.platform->InvokeSync("fn", "payload");
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->served_via, faas::ServedVia::kExecution);
  EXPECT_EQ(f.platform->ledger().record_count(), 1u);

  auto second = f.platform->InvokeSync("fn", "payload");
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->served_via, faas::ServedVia::kCacheHit);
  EXPECT_EQ(second->output, first->output);
  EXPECT_TRUE(second->status.ok());
  EXPECT_EQ(second->exec_us, 0);  // No re-execution...
  EXPECT_EQ(f.platform->ledger().record_count(), 1u);  // ...and no new bill.
  EXPECT_EQ(f.layer.stats().hits, 1u);
  EXPECT_GE(f.layer.stats().saved_exec_us, 50 * kMillisecond);

  // A different payload is a different content address: it executes.
  auto third = f.platform->InvokeSync("fn", "other");
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(third->served_via, faas::ServedVia::kExecution);
  EXPECT_EQ(f.platform->ledger().record_count(), 2u);
}

TEST(ReusePlatformTest, NonIdempotentFunctionsBypassReuse) {
  ReuseFixture f;
  auto spec = f.IdempotentSpec("fn");
  spec.idempotent = false;
  ASSERT_TRUE(f.platform->RegisterFunction(spec).ok());
  ASSERT_TRUE(f.platform->InvokeSync("fn", "p").ok());
  auto second = f.platform->InvokeSync("fn", "p");
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->served_via, faas::ServedVia::kExecution);
  EXPECT_EQ(f.platform->ledger().record_count(), 2u);
  EXPECT_EQ(f.layer.stats().hits, 0u);
  EXPECT_EQ(f.layer.stats().misses, 0u);
}

/// Singleflight conservation: N concurrent identical requests = exactly
/// 1 execution, N callbacks, 1 billing record.
TEST(ReusePlatformTest, SingleflightConservation) {
  // sim.Run() drains the container keep-alive timers (~10 simulated
  // minutes), so the freshness window must outlive them for the late
  // arrival below to hit.
  ReuseConfig rcfg;
  rcfg.cache.ttl_us = 2 * kHour;
  ReuseFixture f({}, rcfg);
  ASSERT_TRUE(f.platform->RegisterFunction(f.IdempotentSpec("fn")).ok());
  constexpr int kN = 16;
  std::vector<faas::InvocationResult> results;
  for (int i = 0; i < kN; ++i) {
    auto id = f.platform->Invoke(
        "fn", "same", [&results](const faas::InvocationResult& r) {
          results.push_back(r);
        });
    ASSERT_TRUE(id.ok());
  }
  f.sim.Run();
  ASSERT_EQ(results.size(), size_t(kN));              // N callbacks.
  EXPECT_EQ(f.platform->ledger().record_count(), 1u);  // 1 bill.
  int executed = 0, coalesced = 0;
  for (const auto& r : results) {
    EXPECT_TRUE(r.status.ok());
    EXPECT_EQ(r.output, "out:same");
    if (r.served_via == faas::ServedVia::kExecution) ++executed;
    if (r.served_via == faas::ServedVia::kCoalesced) ++coalesced;
  }
  EXPECT_EQ(executed, 1);       // 1 execution (the leader)...
  EXPECT_EQ(coalesced, kN - 1);  // ...everyone else attached to it.
  EXPECT_EQ(f.layer.stats().coalesced, uint64_t(kN - 1));
  EXPECT_EQ(f.layer.flights().max_fanout(), uint64_t(kN - 1));
  EXPECT_EQ(f.layer.flights().inflight(), 0u);  // Flight closed.

  // The leader's result was offered to the cache: a late arrival hits.
  auto late = f.platform->InvokeSync("fn", "same");
  ASSERT_TRUE(late.ok());
  EXPECT_EQ(late->served_via, faas::ServedVia::kCacheHit);
  EXPECT_EQ(f.platform->ledger().record_count(), 1u);
}

TEST(ReusePlatformTest, FailedLeaderFansOutFailureAndSkipsCache) {
  faas::FaasConfig cfg;
  // One attempt, so conservation stays 1 execution.
  cfg.retry = chaos::RetryPolicy::Immediate(1);
  ReuseFixture f(cfg);
  auto spec = f.IdempotentSpec("fn");
  spec.handler = [](const std::string&, faas::InvocationContext&) {
    return Result<std::string>(Status::Internal("boom"));
  };
  ASSERT_TRUE(f.platform->RegisterFunction(spec).ok());
  std::vector<Status> statuses;
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(f.platform
                    ->Invoke("fn", "p",
                             [&statuses](const faas::InvocationResult& r) {
                               statuses.push_back(r.status);
                             })
                    .ok());
  }
  f.sim.Run();
  ASSERT_EQ(statuses.size(), 4u);  // Followers see the failure too.
  for (const auto& s : statuses) EXPECT_FALSE(s.ok());
  EXPECT_EQ(f.platform->ledger().record_count(), 1u);
  // Failures are never memoized: the next request re-executes.
  auto retry = f.platform->InvokeSync("fn", "p");
  ASSERT_TRUE(retry.ok());
  EXPECT_EQ(retry->served_via, faas::ServedVia::kExecution);
}

TEST(ReusePlatformTest, ApproximationServedOnlyWhileBurning) {
  ReuseConfig rcfg;
  rcfg.approx_burn_threshold = 5.0;
  rcfg.approx_burn_window_us = 1 * kSecond;
  ReuseFixture f({}, rcfg);
  ASSERT_TRUE(f.platform->RegisterFunction(f.IdempotentSpec("fn")).ok());

  obs::SloEngine slo;
  obs::SloObjective objective;
  objective.name = "obj";
  objective.module = "faas";
  objective.target = 0.9;
  objective.policies.push_back({"page", 1 * kSecond, 1 * kSecond, 10.0});
  slo.AddObjective(objective);
  f.layer.SetSloSource(&slo, "obj");
  f.layer.RegisterApprox("fn", [](const std::string&) {
    return ReuseLayer::ApproxAnswer{"approx", 0.25};
  });

  // Burn the budget: all-bad traffic at t=0 burns 10x >= the 5x gate.
  for (int i = 0; i < 20; ++i) slo.Record("faas", 0, 100, false);
  auto degraded = f.platform->InvokeSync("fn", "q");
  ASSERT_TRUE(degraded.ok());
  EXPECT_EQ(degraded->served_via, faas::ServedVia::kApproximation);
  EXPECT_EQ(degraded->output, "approx");
  EXPECT_DOUBLE_EQ(degraded->approx_error_bound, 0.25);
  EXPECT_TRUE(degraded->status.ok());
  EXPECT_EQ(f.platform->ledger().record_count(), 0u);  // Not billed.
  EXPECT_EQ(f.layer.stats().approx_served, 1u);

  // Approximations are never cached: once the burn window drains, the
  // same payload executes exactly.
  f.sim.RunUntil(f.sim.Now() + 2 * kSecond);
  auto exact = f.platform->InvokeSync("fn", "q");
  ASSERT_TRUE(exact.ok());
  EXPECT_EQ(exact->served_via, faas::ServedVia::kExecution);
  EXPECT_EQ(exact->output, "out:q");
  EXPECT_EQ(exact->approx_error_bound, 0.0);
}

TEST(ReusePlatformTest, CancelWhileAwaitingReuse) {
  ReuseConfig rcfg;
  rcfg.cache.ttl_us = 2 * kHour;  // outlives sim.Run()'s keep-alive drain
  ReuseFixture f({}, rcfg);
  ASSERT_TRUE(f.platform->RegisterFunction(f.IdempotentSpec("fn")).ok());
  std::map<uint64_t, std::vector<faas::InvocationResult>> results;
  const faas::InvokeCallback record = [&results](
                                          const faas::InvocationResult& r) {
    results[r.id].push_back(r);
  };

  // Coalesced followers, every other one cancelled while it waits. Each
  // follower's callback re-enters Invoke with a fresh payload, so new
  // invocations are created while the fan-out still holds the followers
  // it has not delivered to yet.
  constexpr int kFollowers = 32;
  const uint64_t leader = *f.platform->Invoke("fn", "same", record);
  std::vector<uint64_t> followers, reentered;
  for (int i = 0; i < kFollowers; ++i) {
    followers.push_back(*f.platform->Invoke(
        "fn", "same", [&, i](const faas::InvocationResult& r) {
          record(r);
          reentered.push_back(
              *f.platform->Invoke("fn", "fresh" + std::to_string(i), record));
        }));
  }
  ASSERT_EQ(f.layer.flights().followers_attached(), uint64_t(kFollowers));
  for (int i = 0; i < kFollowers; i += 2) {
    EXPECT_TRUE(f.platform->CancelInvocation(followers[i]));
  }
  f.sim.Run();
  ASSERT_EQ(results[leader].size(), 1u);
  EXPECT_TRUE(results[leader][0].status.ok());
  EXPECT_EQ(results[leader][0].served_via, faas::ServedVia::kExecution);
  EXPECT_FALSE(f.platform->CancelInvocation(leader));
  for (int i = 0; i < kFollowers; ++i) {
    const auto& got = results[followers[i]];
    ASSERT_EQ(got.size(), 1u) << i;
    if (i % 2 == 0) {
      EXPECT_TRUE(got[0].status.IsCancelled()) << i;
    } else {
      EXPECT_TRUE(got[0].status.ok()) << i;
      EXPECT_EQ(got[0].served_via, faas::ServedVia::kCoalesced) << i;
      EXPECT_EQ(got[0].output, "out:same") << i;
    }
    EXPECT_FALSE(f.platform->CancelInvocation(followers[i])) << i;
  }
  ASSERT_EQ(reentered.size(), size_t(kFollowers));
  for (uint64_t id : reentered) {
    ASSERT_EQ(results[id].size(), 1u) << id;
    EXPECT_TRUE(results[id][0].status.ok()) << id;
  }
  // The leader is billed once; each re-entered payload ran once.
  EXPECT_EQ(f.platform->ledger().record_count(), 1u + kFollowers);
  EXPECT_EQ(f.layer.flights().inflight(), 0u);

  // A cache hit is answered by a zero-delay event; cancelled before it
  // fires, it completes Cancelled and is not billed.
  const uint64_t hit = *f.platform->Invoke("fn", "same", record);
  EXPECT_TRUE(f.platform->CancelInvocation(hit));
  f.sim.Run();
  ASSERT_EQ(results[hit].size(), 1u);
  EXPECT_TRUE(results[hit][0].status.IsCancelled());
  EXPECT_EQ(results[hit][0].served_via, faas::ServedVia::kCacheHit);
  EXPECT_FALSE(f.platform->CancelInvocation(hit));
  EXPECT_EQ(f.layer.stats().hits, 1u);
  EXPECT_EQ(f.platform->ledger().record_count(), 1u + kFollowers);
}

TEST(ReusePlatformTest, DisabledLayerExecutesEverything) {
  ReuseConfig rcfg;
  rcfg.enabled = false;
  ReuseFixture f({}, rcfg);
  ASSERT_TRUE(f.platform->RegisterFunction(f.IdempotentSpec("fn")).ok());
  ASSERT_TRUE(f.platform->InvokeSync("fn", "p").ok());
  auto second = f.platform->InvokeSync("fn", "p");
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->served_via, faas::ServedVia::kExecution);
  EXPECT_EQ(f.platform->ledger().record_count(), 2u);
}

// --------------------------------------------- idempotency regression
//
// chaos::IdempotencyCache is a thin policy over reuse::ResultCache since
// E29; these pin the semantics the E20 replay tests rely on.

TEST(IdempotencyRegressionTest, FirstWriterWinsUnchanged) {
  chaos::IdempotencyCache cache;
  EXPECT_EQ(cache.Lookup("op"), nullptr);
  EXPECT_TRUE(cache.Record("op", Status::OK(), "applied-once"));
  EXPECT_FALSE(cache.Record("op", Status::Internal("replay"), "applied-twice"));
  const auto* e = cache.Lookup("op");
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->output, "applied-once");
  EXPECT_TRUE(e->status.ok());
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.duplicate_records(), 1u);
}

TEST(IdempotencyRegressionTest, CapacityEvictsLruNotNewest) {
  chaos::IdempotencyCache cache(/*capacity=*/2);
  EXPECT_TRUE(cache.Record("a", Status::OK(), "1"));
  EXPECT_TRUE(cache.Record("b", Status::OK(), "2"));
  EXPECT_TRUE(cache.Record("c", Status::OK(), "3"));
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_EQ(cache.Lookup("a"), nullptr);
  EXPECT_NE(cache.Lookup("b"), nullptr);
  EXPECT_NE(cache.Lookup("c"), nullptr);
}

// --------------------------------------------------- E28 knob wiring

TEST(PrewarmerKnobTest, KeepAliveTargetsRetuneLive) {
  sim::Simulation sim;
  cluster::Cluster cluster{8, {32000, 65536}};
  faas::FaasPlatform platform(&sim, &cluster, {});
  faas::FunctionSpec spec;
  spec.name = "fn";
  spec.exec = {faas::ExecTimeModel::Kind::kFixed, 10 * kMillisecond, 0, 0};
  ASSERT_TRUE(platform.RegisterFunction(spec).ok());
  faas::Prewarmer prewarmer(&sim, &platform, "fn", {});
  ctrl::ConfigService svc(&sim);
  prewarmer.AttachControl(&svc);
  svc.Push("faas.prewarm.max_prewarmed", ctrl::ConfigValue::Int(3));
  svc.Push("faas.prewarm.headroom", ctrl::ConfigValue::Double(2.5));
  sim.Run();
  EXPECT_EQ(prewarmer.config().max_prewarmed, 3u);
  EXPECT_DOUBLE_EQ(prewarmer.config().headroom, 2.5);
}

// ------------------------------------------------ psim differential
//
// The reuse layer inside a sharded world: every shard runs a seeded
// hit/miss/offer storm with cross-shard chain handoff. The merged metric
// export (aggregate + per-tenant labeled series + per-shard sections) and
// the per-shard cache counters must be byte-identical at 1 worker thread
// and at 4 — the E26 invariant extended to the reuse path.

struct ReuseShard {
  std::unique_ptr<obs::Observability> obs;
  std::unique_ptr<ReuseLayer> layer;
  Rng rng{0};
};

struct ReuseWorld {
  psim::ParallelSimulation world;
  std::vector<ReuseShard> state;

  explicit ReuseWorld(const psim::PsimConfig& cfg) : world(cfg) {}
};

void ReuseHop(ReuseWorld* w, psim::ShardId s, int remaining) {
  ReuseShard& st = w->state[s];
  ReuseLayer& layer = *st.layer;
  const ContentKey key =
      layer.Key("fn", "p" + std::to_string(st.rng.NextBounded(12)));
  ReuseLayer::TenantHandles* tenant =
      layer.TenantMetrics("t" + std::to_string(st.rng.NextBounded(3)));
  const SimTime now = w->world.shard(s).Now();
  layer.NoteRequest(key);
  if (const CachedResult* e = layer.Lookup(key, now)) {
    layer.RecordHit(tenant, e->exec_us);
  } else {
    layer.RecordMiss(tenant);
    layer.Offer(key,
                {Status::OK(), std::string(size_t(st.rng.NextBounded(180)), 'x'),
                 SimDuration(st.rng.NextInt(100, 5000)),
                 /*recurrence=*/1},
                now);
  }
  if (remaining <= 0) return;
  const SimDuration delay = SimDuration(st.rng.NextInt(0, 1500));
  if (st.rng.NextBool(0.3)) {
    const psim::ShardId dst =
        psim::ShardId(st.rng.NextBounded(w->world.num_shards()));
    w->world.Post(s, dst, delay,
                  [w, dst, remaining] { ReuseHop(w, dst, remaining - 1); });
  } else {
    w->world.shard(s).Schedule(
        delay, [w, s, remaining] { ReuseHop(w, s, remaining - 1); });
  }
}

std::string RunReuseStorm(uint64_t seed, uint32_t shards, unsigned threads) {
  psim::PsimConfig cfg;
  cfg.shards = shards;
  cfg.threads = threads;
  cfg.lookahead_us = 500;
  ReuseWorld w(cfg);
  w.state = std::vector<ReuseShard>(shards);
  for (uint32_t s = 0; s < shards; ++s) {
    ReuseShard& st = w.state[s];
    st.obs = std::make_unique<obs::Observability>(&w.world.shard(s));
    ReuseConfig rcfg;
    rcfg.cache = {/*max_bytes=*/4096, 0, /*ttl_us=*/5000, /*cost_aware=*/true};
    st.layer = std::make_unique<ReuseLayer>(rcfg);
    st.layer->AttachObservability(st.obs.get());
    st.rng = Rng(HashCombine(seed, s));
    for (int c = 0; c < 10; ++c) {
      w.world.shard(s).ScheduleAt(SimTime(c) * 97,
                                  [wp = &w, s] { ReuseHop(wp, s, 12); });
    }
  }
  w.world.Run();
  EXPECT_TRUE(w.world.Drained());

  std::vector<const obs::Registry*> regs;
  std::string counters;
  for (uint32_t s = 0; s < shards; ++s) {
    regs.push_back(&w.state[s].obs->registry);
    const ReuseLayer::Cache& c = w.state[s].layer->cache();
    counters += "shard " + std::to_string(s) + ": h=" +
                std::to_string(c.hits()) + " m=" + std::to_string(c.misses()) +
                " ev=" + std::to_string(c.evictions()) + " ex=" +
                std::to_string(c.expirations()) + " rj=" +
                std::to_string(c.rejected_admissions()) + "\n";
  }
  return obs::MergeShardExports(regs) + counters;
}

TEST(ReusePsimTest, SerialAndParallelAreByteIdentical) {
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    for (uint32_t shards : {1u, 4u}) {
      const std::string serial = RunReuseStorm(seed, shards, /*threads=*/1);
      const std::string parallel = RunReuseStorm(seed, shards, /*threads=*/4);
      ASSERT_EQ(serial, parallel) << "seed=" << seed << " shards=" << shards;
      // Rerun stability: same workload, same bytes.
      ASSERT_EQ(serial, RunReuseStorm(seed, shards, /*threads=*/4))
          << "seed=" << seed << " shards=" << shards;
    }
  }
}

}  // namespace
}  // namespace taureau
