// Differential determinism suite for the parallel simulation engine
// (src/psim) — the harness that proves "parallel is indistinguishable from
// serial".
//
// The core contract: for a fixed workload and shard count, every observable
// of a ParallelSimulation run — event counts, per-shard clocks, merged
// metric exports, span digests — is a pure function of the workload, never
// of the worker thread count. The suite replays a seeded cross-shard event
// storm serial (threads=1) and parallel (threads 2, 3, 4 and 8) for seeds
// 1..10 and shard counts {1, 2, 4, 8}, both in one Run and advanced in
// RunUntil slices, and asserts byte-identical observables.
//
// Property tests then pin the lookahead/merge rules: no event is ever
// delivered before its timestamp, equal-time cross-shard arrivals fire in
// the global (time, shard, seq) order regardless of which barrier epoch
// carried them, zero-delay posts clamp to the lookahead, and cancels that
// cross shards behave deterministically.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "common/hash.h"
#include "common/rng.h"
#include "common/time_types.h"
#include "obs/metrics.h"
#include "obs/observability.h"
#include "obs/shard_merge.h"
#include "obs/trace.h"
#include "psim/lookahead.h"
#include "psim/psim.h"
#include "sim/simulation.h"

namespace taureau {
namespace {

using psim::ParallelSimulation;
using psim::PsimConfig;
using psim::ShardId;

// ------------------------------------------------------------------ storm
//
// A seeded workload exercising every engine path: local scheduling, random
// cross-shard posts (some below the lookahead, some far beyond one epoch),
// per-shard metrics, per-shard spans, and chain handoff between shards.

struct StormShard {
  obs::Registry registry;
  std::unique_ptr<obs::Tracer> tracer;
  Rng rng{0};
  obs::CounterHandle hops;
  obs::CounterHandle arrivals;
  obs::HistogramHandle transit_us;
};

struct StormWorld {
  ParallelSimulation world;
  std::vector<StormShard> state;

  explicit StormWorld(const PsimConfig& cfg) : world(cfg) {}
};

void Hop(StormWorld* w, ShardId s, int remaining) {
  StormShard& st = w->state[s];
  st.hops.Inc();
  obs::TraceContext span = st.tracer->StartSpan("hop", "storm", {});
  st.tracer->EndSpan(span);
  if (remaining <= 0) return;
  const SimDuration delay = SimDuration(st.rng.NextInt(0, 1500));
  if (st.rng.NextBool(0.3)) {
    const ShardId dst = ShardId(st.rng.NextBounded(w->world.num_shards()));
    const SimTime sent = w->world.shard(s).Now();
    w->world.Post(s, dst, delay, [w, dst, sent, remaining] {
      StormShard& to = w->state[dst];
      to.arrivals.Inc();
      to.transit_us.Observe(double(w->world.shard(dst).Now() - sent));
      Hop(w, dst, remaining - 1);
    });
  } else {
    w->world.shard(s).Schedule(
        delay, [w, s, remaining] { Hop(w, s, remaining - 1); });
  }
}

struct Fingerprint {
  uint64_t events = 0;
  uint64_t cross_posts = 0;
  uint64_t clamped = 0;
  std::vector<SimTime> clocks;
  std::string merged;  ///< obs::MergeShardExports over registries + spans.

  bool operator==(const Fingerprint& other) const = default;
};

constexpr SimDuration kStormLookahead = 500;

/// `slice` > 0 advances the storm by RunUntil(k * slice) until it drains,
/// then calls Run: every slice ends its epochs at a deadline, with the last
/// epoch's posts not yet pulled. No hop takes longer than 1500us, so the
/// storm is over by `span`; past it, a post the engine lost fails the
/// Drained check instead of slicing forever. Slicing leaves these storms'
/// event order unchanged, not every schedule's: an arrival and a local
/// event stamped at the same microsecond can swap when a deadline moves an
/// epoch boundary (see ParallelSimulation::RunUntil).
Fingerprint RunStorm(uint64_t seed, uint32_t shards, unsigned threads,
                     SimDuration slice = 0, int chains_per_shard = 12,
                     int depth = 10) {
  PsimConfig cfg;
  cfg.shards = shards;
  cfg.threads = threads;
  cfg.lookahead_us = kStormLookahead;
  StormWorld w(cfg);
  w.state = std::vector<StormShard>(shards);
  for (uint32_t s = 0; s < shards; ++s) {
    StormShard& st = w.state[s];
    st.tracer = std::make_unique<obs::Tracer>(&w.world.shard(s));
    st.rng = Rng(HashCombine(seed, s));
    st.hops = st.registry.ResolveCounter("storm.hops");
    st.arrivals = st.registry.ResolveCounter("storm.arrivals");
    st.transit_us = st.registry.ResolveHistogram("storm.transit_us");
    for (int c = 0; c < chains_per_shard; ++c) {
      w.world.shard(s).ScheduleAt(SimTime(c) * 97, [wp = &w, s, depth] {
        Hop(wp, s, depth);
      });
    }
  }
  if (slice > 0) {
    const SimTime span =
        SimTime(chains_per_shard) * 97 + SimTime(depth) * 1500;
    for (SimTime until = slice; until <= span && !w.world.Drained();
         until += slice) {
      w.world.RunUntil(until);
    }
  }
  w.world.Run();
  EXPECT_TRUE(w.world.Drained());

  Fingerprint fp;
  fp.events = w.world.events_fired();
  fp.cross_posts = w.world.stats().cross_posts;
  fp.clamped = w.world.stats().clamped_posts;
  std::vector<const obs::Registry*> regs;
  std::vector<std::string> spans;
  for (uint32_t s = 0; s < shards; ++s) {
    fp.clocks.push_back(w.world.shard(s).Now());
    regs.push_back(&w.state[s].registry);
    spans.push_back(w.state[s].tracer->ExportText());
  }
  fp.merged = obs::MergeShardExports(regs, spans);
  return fp;
}

/// Field-by-field, so a mismatch names what differs. Clocks are compared
/// only when both runs end the same way: RunUntil advances idle clocks to
/// its deadline.
void ExpectSameStorm(const Fingerprint& want, const Fingerprint& got,
                     bool clocks, const std::string& where) {
  EXPECT_EQ(want.events, got.events) << where;
  if (clocks) {
    EXPECT_EQ(want.clocks, got.clocks) << where;
  }
  EXPECT_EQ(want.cross_posts, got.cross_posts) << where;
  EXPECT_EQ(want.clamped, got.clamped) << where;
  ASSERT_EQ(want.merged, got.merged) << where;
}

TEST(PsimDifferential, SerialAndParallelAreByteIdentical) {
  // A slice of 7 lookaheads + 3 ends epochs at deadlines off the horizon
  // grid; 3 threads over 8 shards gives workers unequal shard counts. The
  // dense storm keeps every shard busy; the sparse one (one chain per
  // shard) often has a lone post in flight when a slice ends. The sliced
  // run equals the unsliced one for these storms; it need not for a
  // schedule where an arrival and a local event tie on time (RunUntil).
  constexpr SimDuration kSlice = 7 * kStormLookahead + 3;
  struct Shape {
    int chains;
    int depth;
  };
  for (const Shape shape : {Shape{12, 10}, Shape{1, 20}}) {
    for (uint64_t seed = 1; seed <= 10; ++seed) {
      for (uint32_t shards : {1u, 2u, 4u, 8u}) {
        const std::string where = "chains=" + std::to_string(shape.chains) +
                                  " seed=" + std::to_string(seed) +
                                  " shards=" + std::to_string(shards);
        auto storm = [&](unsigned threads, SimDuration slice) {
          return RunStorm(seed, shards, threads, slice, shape.chains,
                          shape.depth);
        };
        const Fingerprint serial = storm(/*threads=*/1, /*slice=*/0);
        const Fingerprint sliced = storm(1, kSlice);
        ASSERT_NO_FATAL_FAILURE(ExpectSameStorm(serial, sliced,
                                                /*clocks=*/false,
                                                where + " sliced"));
        for (unsigned threads : {2u, 3u, 4u, 8u}) {
          const std::string run =
              where + " threads=" + std::to_string(threads);
          ASSERT_NO_FATAL_FAILURE(
              ExpectSameStorm(serial, storm(threads, 0), true, run));
          ASSERT_NO_FATAL_FAILURE(ExpectSameStorm(
              sliced, storm(threads, kSlice), true, run + " sliced"));
        }
      }
    }
  }
}

TEST(PsimDifferential, RerunIsByteIdentical) {
  const Fingerprint a = RunStorm(7, 4, 4);
  const Fingerprint b = RunStorm(7, 4, 4);
  EXPECT_EQ(a, b);
}

TEST(PsimDifferential, StormActuallyCrossesShards) {
  // Guard against the suite degenerating into independent worlds: the
  // multi-shard storms must exercise the barrier path.
  const Fingerprint fp = RunStorm(3, 4, 1);
  EXPECT_GT(fp.cross_posts, 50u);
  EXPECT_GT(fp.clamped, 0u);  // NextInt(0,1500) dips under the 500us lookahead.
}

// ------------------------------------------- stream telemetry per shard
//
// The storm with the always-on obs layer on every shard: stream-mode
// tracer, sampling pipeline, flame profile and SLO engine, whose tracer
// and pipeline recycle span and group storage. Each shard's ExportAll must
// not depend on the thread count; storage shared across shards (a static
// or global pool) would break that here and race under TSan.

struct TracedShard {
  std::unique_ptr<obs::Observability> o11y;
  Rng rng{0};
};

struct TracedWorld {
  ParallelSimulation world;
  std::vector<TracedShard> state;

  explicit TracedWorld(const PsimConfig& cfg) : world(cfg) {}
};

void TracedHop(TracedWorld* w, ShardId s, int remaining) {
  TracedShard& st = w->state[s];
  obs::Tracer& tracer = st.o11y->tracer;
  const SimTime now = w->world.shard(s).Now();
  const obs::TraceContext root = tracer.StartSpan("hop", "storm", {});
  const std::string tenant = "tenant-" + std::to_string(st.rng.NextBounded(3));
  tracer.SetAttr(root, obs::kTenantAttr, tenant);
  const SimDuration work = SimDuration(st.rng.NextInt(1, 800));
  const std::string left = std::to_string(remaining);
  tracer.EmitSpan("exec", "storm", root, now, now + work,
                  {{obs::kCategoryAttr, "exec"}, {"left", left}});
  w->world.shard(s).Schedule(work, [w, s, root, remaining] {
    TracedShard& shard = w->state[s];
    const bool failed = shard.rng.NextBool(0.05);
    shard.o11y->tracer.SetAttr(root, obs::kOutcomeAttr,
                               failed ? obs::kOutcomeError : obs::kOutcomeOk);
    shard.o11y->tracer.EndSpan(root);
    if (remaining <= 0) return;
    const SimDuration delay = SimDuration(shard.rng.NextInt(0, 1500));
    if (shard.rng.NextBool(0.3)) {
      const ShardId dst =
          ShardId(shard.rng.NextBounded(w->world.num_shards()));
      w->world.Post(s, dst, delay,
                    [w, dst, remaining] { TracedHop(w, dst, remaining - 1); });
    } else {
      w->world.shard(s).Schedule(
          delay, [w, s, remaining] { TracedHop(w, s, remaining - 1); });
    }
  });
}

std::vector<std::string> RunTracedStorm(uint64_t seed, unsigned threads) {
  PsimConfig cfg;
  cfg.shards = 4;
  cfg.threads = threads;
  cfg.lookahead_us = 500;
  TracedWorld w(cfg);
  w.state = std::vector<TracedShard>(cfg.shards);
  for (uint32_t s = 0; s < cfg.shards; ++s) {
    TracedShard& st = w.state[s];
    st.o11y = std::make_unique<obs::Observability>(&w.world.shard(s));
    obs::ScaleConfig scale;
    scale.sampler.head_rate = 0.2;
    scale.sampler.seed = 422;
    scale.sampler.slow_threshold_us = 700;
    obs::SloObjective latency;
    latency.name = "storm-latency";
    latency.module = "storm";
    latency.target = 0.9;
    latency.latency_budget_us = 600;
    latency.per_tenant = true;
    latency.policies = {{"page", 20 * kMillisecond, 2 * kMillisecond, 2.0}};
    scale.objectives.push_back(std::move(latency));
    EXPECT_TRUE(st.o11y->EnableScale(scale));
    st.rng = Rng(HashCombine(seed, s));
    for (int c = 0; c < 12; ++c) {
      w.world.shard(s).ScheduleAt(SimTime(c) * 97, [wp = &w, s] {
        TracedHop(wp, s, /*remaining=*/10);
      });
    }
  }
  w.world.Run();
  EXPECT_TRUE(w.world.Drained());
  std::vector<std::string> exports;
  for (TracedShard& st : w.state) {
    st.o11y->Flush();
    EXPECT_EQ(st.o11y->tracer.stored_span_count(), 0u);
    EXPECT_EQ(st.o11y->pipeline()->pending_span_count(), 0u);
    exports.push_back(st.o11y->ExportAll());
  }
  return exports;
}

TEST(PsimDifferential, StreamTelemetryShardExportsIdenticalAcrossThreads) {
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    const std::vector<std::string> serial = RunTracedStorm(seed, 1);
    const std::vector<std::string> parallel = RunTracedStorm(seed, 4);
    ASSERT_EQ(serial.size(), parallel.size());
    for (size_t s = 0; s < serial.size(); ++s) {
      ASSERT_EQ(serial[s], parallel[s]) << "seed=" << seed << " shard=" << s;
      // Every layer of the pipeline saw traffic on every shard.
      EXPECT_NE(serial[s].find("reason=error"), std::string::npos);
      EXPECT_NE(serial[s].find("reason=head"), std::string::npos);
      EXPECT_NE(serial[s].find("hop;exec count="), std::string::npos);
      EXPECT_NE(serial[s].find("tenant-2 count="), std::string::npos);
      EXPECT_NE(serial[s].find("storm-latency"), std::string::npos);
    }
  }
}

// -------------------------------------------------- lookahead & merge rules

constexpr SimDuration kL = 1000;  ///< Lookahead for the property worlds.

ParallelSimulation MakeWorld(uint32_t shards, unsigned threads = 1) {
  PsimConfig cfg;
  cfg.shards = shards;
  cfg.threads = threads;
  cfg.lookahead_us = kL;
  return ParallelSimulation(cfg);
}

struct Delivery {
  SimTime at;
  uint32_t src;
  uint64_t seq;
};

TEST(PsimProperty, ZeroDelayPostsClampToLookaheadInPostOrder) {
  PsimConfig cfg;
  cfg.shards = 2;
  cfg.lookahead_us = kL;
  ParallelSimulation world(cfg);
  std::vector<int> order;
  world.shard(0).ScheduleAt(100, [&] {
    // A rapid-fire zero-delay storm: every post is below the lookahead and
    // must clamp to exactly now + L, delivering in post order.
    for (int i = 0; i < 50; ++i) {
      world.Post(0, 1, 0, [&world, &order, i] {
        EXPECT_EQ(world.shard(1).Now(), 100 + kL);
        order.push_back(i);
      });
    }
  });
  world.Run();
  EXPECT_EQ(world.stats().clamped_posts, 50u);
  ASSERT_EQ(order.size(), 50u);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(order[i], i);
}

TEST(PsimProperty, PostExactlyAtHorizonLandsAfterEarlierLocalEvents) {
  PsimConfig cfg;
  cfg.shards = 3;
  cfg.lookahead_us = kL;
  ParallelSimulation world(cfg);
  std::vector<std::string> log;
  // Shard 1 has a local event at exactly t = L, queued at setup (earlier
  // local sequence). Shards 0 and 2 each post an event stamped exactly at
  // the first epoch horizon boundary t = L. Rule: local first, then
  // arrivals ordered by source shard.
  world.shard(1).ScheduleAt(kL, [&] { log.push_back("local"); });
  world.shard(2).ScheduleAt(0, [&] {
    world.Post(2, 1, kL, [&world, &log] {
      EXPECT_EQ(world.shard(1).Now(), kL);
      log.push_back("from2");
    });
  });
  world.shard(0).ScheduleAt(0, [&] {
    world.Post(0, 1, kL, [&world, &log] {
      EXPECT_EQ(world.shard(1).Now(), kL);
      log.push_back("from0");
    });
  });
  world.Run();
  ASSERT_EQ(log.size(), 3u);
  EXPECT_EQ(log[0], "local");
  EXPECT_EQ(log[1], "from0");
  EXPECT_EQ(log[2], "from2");
}

TEST(PsimProperty, EqualTimeArrivalsAcrossDifferentBarriersKeepGlobalOrder) {
  // Shard 2 posts at t=0 with delay 5L (exchanged at the first barrier);
  // shard 1 posts at t=3L with delay 2L (exchanged two epochs later). Both
  // are stamped t=5L on shard 0. The global (time, shard, seq) rule says
  // shard 1's fires first — even though shard 2's crossed the barrier
  // earlier. This is exactly what the per-destination calendar preserves.
  ParallelSimulation world = MakeWorld(3);
  std::vector<uint32_t> order;
  world.shard(2).ScheduleAt(0, [&] {
    world.Post(2, 0, 5 * kL, [&order] { order.push_back(2); });
  });
  world.shard(1).ScheduleAt(3 * kL, [&] {
    world.Post(1, 0, 2 * kL, [&order] { order.push_back(1); });
  });
  world.Run();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 1u);
  EXPECT_EQ(order[1], 2u);
  EXPECT_GE(world.shard(0).Now(), 5 * kL);
}

TEST(PsimProperty, RandomStormNeverDeliversEarlyOrReordersEqualTimes) {
  // Randomized cross-shard storm: delays span [0, 3L] — below-lookahead
  // (clamped), exactly-at-horizon, and multi-epoch posts all mixed. Two
  // invariants, checked per destination:
  //   1. no event fires before (or after) its stamped timestamp;
  //   2. the delivery log is sorted by (time, source shard, post seq).
  for (uint64_t seed : {1ull, 2ull, 3ull, 4ull, 5ull}) {
    constexpr uint32_t kShards = 4;
    ParallelSimulation world = MakeWorld(kShards);
    std::vector<std::vector<Delivery>> log(kShards);
    std::vector<Rng> rng;
    std::vector<uint64_t> next_seq(kShards, 0);
    for (uint32_t s = 0; s < kShards; ++s) {
      rng.emplace_back(HashCombine(seed, s));
    }
    struct Storm {
      ParallelSimulation* world;
      std::vector<std::vector<Delivery>>* log;
      std::vector<Rng>* rng;
      std::vector<uint64_t>* next_seq;

      void Fire(uint32_t s, int remaining) {
        if (remaining <= 0) return;
        Rng& r = (*rng)[s];
        const SimDuration delay = SimDuration(r.NextInt(0, 3 * kL));
        const uint32_t dst = uint32_t(r.NextBounded(4));
        const SimTime now = world->shard(s).Now();
        const SimTime expect_at = now + std::max(delay, kL);
        const uint64_t seq = (*next_seq)[s]++;
        world->Post(s, dst, delay,
                    [this, s, dst, seq, expect_at, remaining] {
                      EXPECT_EQ(world->shard(dst).Now(), expect_at);
                      (*log)[dst].push_back(
                          Delivery{world->shard(dst).Now(), s, seq});
                      Fire(dst, remaining - 1);
                    });
      }
    };
    Storm storm{&world, &log, &rng, &next_seq};
    for (uint32_t s = 0; s < kShards; ++s) {
      for (int c = 0; c < 20; ++c) {
        world.shard(s).ScheduleAt(SimTime(c) * 37,
                                  [&storm, s] { storm.Fire(s, 8); });
      }
    }
    world.Run();
    uint64_t total = 0;
    for (uint32_t dstv = 0; dstv < kShards; ++dstv) {
      const auto& entries = log[dstv];
      total += entries.size();
      for (size_t i = 1; i < entries.size(); ++i) {
        const Delivery& a = entries[i - 1];
        const Delivery& b = entries[i];
        EXPECT_LE(a.at, b.at) << "seed=" << seed << " dst=" << dstv;
        if (a.at == b.at) {
          // Equal-time arrivals must follow the global (shard, seq) rule.
          EXPECT_TRUE(a.src < b.src || (a.src == b.src && a.seq < b.seq))
              << "seed=" << seed << " dst=" << dstv << " at=" << a.at
              << " (" << a.src << "," << a.seq << ") then (" << b.src << ","
              << b.seq << ")";
        }
      }
    }
    EXPECT_GT(total, 100u) << "seed=" << seed;
    EXPECT_GT(world.stats().clamped_posts, 0u) << "seed=" << seed;
  }
}

TEST(PsimProperty, CancelAcrossShardBeforeFireWins) {
  // Cross-shard cancellation travels as a message: shard 0 arms a timer on
  // shard 1, then posts a cancel that arrives before the timer fires. The
  // timer must not fire and the cancel must observe success.
  ParallelSimulation world = MakeWorld(2);
  sim::EventId timer = 0;
  bool fired = false;
  bool cancel_ok = false;
  world.shard(0).ScheduleAt(0, [&] {
    world.Post(0, 1, kL, [&] {
      // Arm at t=L on shard 1: fire far in the future.
      timer = world.shard(1).Schedule(100 * kL, [&] { fired = true; });
    });
    // Cancel arrives at t=2L, well before the timer's t=101L.
    world.Post(0, 1, 2 * kL, [&] { cancel_ok = world.shard(1).Cancel(timer); });
  });
  world.Run();
  EXPECT_TRUE(cancel_ok);
  EXPECT_FALSE(fired);
}

TEST(PsimProperty, CancelAcrossShardAfterFireFailsDeterministically) {
  ParallelSimulation world = MakeWorld(2);
  sim::EventId timer = 0;
  bool fired = false;
  bool cancel_ok = true;
  world.shard(0).ScheduleAt(0, [&] {
    world.Post(0, 1, kL, [&] {
      timer = world.shard(1).Schedule(kL, [&] { fired = true; });  // t=2L
    });
    // Cancel arrives at t=5L, after the timer fired at t=2L.
    world.Post(0, 1, 5 * kL, [&] { cancel_ok = world.shard(1).Cancel(timer); });
  });
  world.Run();
  EXPECT_TRUE(fired);
  EXPECT_FALSE(cancel_ok);
}

// ------------------------------------------------ engine API edge behaviour

TEST(PsimEngine, RunUntilAdvancesAllShardClocksAndHoldsFutureArrivals) {
  ParallelSimulation world = MakeWorld(2);
  int delivered = 0;
  world.shard(0).ScheduleAt(0, [&] {
    world.Post(0, 1, 10 * kL, [&] { ++delivered; });
  });
  world.RunUntil(5 * kL);
  EXPECT_EQ(delivered, 0);
  EXPECT_FALSE(world.Drained());  // The post is still waiting to be pulled.
  EXPECT_EQ(world.shard(0).Now(), 5 * kL);
  EXPECT_EQ(world.shard(1).Now(), 5 * kL);
  world.Run();
  EXPECT_EQ(delivered, 1);
  EXPECT_TRUE(world.Drained());
  // The serial coordinator never waits for a worker.
  EXPECT_EQ(world.stats().wait_ns, 0u);
}

TEST(PsimEngine, SetupTimePostsDeliverOnFirstEpoch) {
  ParallelSimulation world = MakeWorld(2);
  SimTime at = -1;
  world.Post(0, 1, 3 * kL, [&] { at = world.shard(1).Now(); });
  world.Run();
  EXPECT_EQ(at, 3 * kL);
}

TEST(PsimEngine, SingleShardWorldStillHonoursLookaheadOnSelfPosts) {
  ParallelSimulation world = MakeWorld(1);
  SimTime at = -1;
  world.shard(0).ScheduleAt(10, [&] {
    world.Post(0, 0, 0, [&] { at = world.shard(0).Now(); });
  });
  world.Run();
  EXPECT_EQ(at, 10 + kL);
  EXPECT_EQ(world.stats().clamped_posts, 1u);
}

TEST(PsimEngine, ThreadsAreClampedToShards) {
  PsimConfig cfg;
  cfg.shards = 2;
  cfg.threads = 16;
  ParallelSimulation world(cfg);
  EXPECT_EQ(world.threads(), 2u);
}

TEST(PsimEngine, ShardForKeyIsStableAndInRange) {
  const psim::ShardId a = psim::ShardForKey("topic/orders", 8);
  EXPECT_EQ(a, psim::ShardForKey("topic/orders", 8));
  for (int i = 0; i < 100; ++i) {
    EXPECT_LT(psim::ShardForKey("k" + std::to_string(i), 8), 8u);
  }
  EXPECT_EQ(psim::ShardForKey("anything", 1), 0u);
}

TEST(PsimEngine, MineLookaheadTakesTheMinimumPositiveFloor) {
  using psim::MineLookahead;
  EXPECT_EQ(MineLookahead({300, 150, 1200}), 150);
  EXPECT_EQ(MineLookahead({0, -5, 700}), 700);  // Non-positive floors skipped.
  EXPECT_EQ(MineLookahead({}), 1);              // Kernel-tick safety floor.
  EXPECT_EQ(MineLookahead({0}), 1);
}

// -------------------------------- PeriodicProcess interaction with handoff

TEST(PsimPeriodic, TicksExactlyAcrossEpochBoundaries) {
  // A 700us period deliberately misaligned with the 1000us epochs: ticks
  // must be exact regardless of how many barrier rounds interleave.
  ParallelSimulation world = MakeWorld(2);
  int ticks = 0;
  sim::PeriodicProcess proc(&world.shard(1), 700, [&] {
    ++ticks;
    return ticks < 20;
  });
  proc.Start();
  // Keep shard 0 busy so the epochs stay short.
  for (int i = 0; i < 20; ++i) {
    world.shard(0).ScheduleAt(SimTime(i) * 600, [] {});
  }
  world.Run();
  EXPECT_EQ(ticks, 20);
  EXPECT_FALSE(proc.running());
  EXPECT_GE(world.shard(1).Now(), 20 * 700);
}

TEST(PsimPeriodic, RemoteShardStopsAPeriodicViaPost) {
  // Shard handoff: a control loop lives on shard 1; shard 0 decides to
  // stop it and sends the stop as a cross-shard message. The periodic must
  // tick deterministically up to the stop's arrival and never after.
  ParallelSimulation world = MakeWorld(2);
  int ticks = 0;
  sim::PeriodicProcess proc(&world.shard(1), kL, [&] {
    ++ticks;
    return true;
  });
  proc.Start();
  world.shard(0).ScheduleAt(0, [&] {
    world.Post(0, 1, SimDuration(5 * kL) + 500, [&] { proc.Stop(); });
  });
  world.Run();
  // Ticks at L, 2L, 3L, 4L, 5L; the stop lands at 5.5L and cancels the
  // armed t=6L tick in place.
  EXPECT_EQ(ticks, 5);
  EXPECT_FALSE(proc.running());
  EXPECT_TRUE(world.Drained());
}

}  // namespace
}  // namespace taureau