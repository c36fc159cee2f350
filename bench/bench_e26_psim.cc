// E26 — parallel discrete-event simulation (src/psim): one world across N
// cores, proven byte-identical by differential replay.
//
// Part a replays sharded versions of three existing experiment workloads —
// E6 (Pulsar partitioned topics), E20 (fault injection under retries) and
// E23 (overload with admission + spillover) — each world split across 4
// logical processes that exchange cross-shard traffic via psim::Post under
// a lookahead mined from the workload's own latency models. Every workload
// runs serial (threads=1) and parallel (threads=4) and the bench asserts
// IN-BINARY that the two JSON exports are byte-identical; the verdict is
// the `serial_parallel_identical` note CI greps in BENCH_E26.json.
//
// Part b is the scaling story the paper's "planet scale" argument needs: a
// compressed heavy-traffic diurnal day — 10M requests against an 8-cell
// landscape (sinusoidal rate, amplitude 0.5) with 25% cross-cell calls —
// run at 1/2/4/8 worker threads. Every run of the curve must produce the
// same merged per-shard metric export byte-for-byte; the speedup column is
// events/sec relative to the serial run. Acceptance (>= 2.5x at 4 threads)
// is evaluated only at full shape on >= 4 hardware cores, and reported as
// SKIPPED otherwise; the correctness assertions never depend on timing.
//
// `--smoke` (CI, TSan): sets TAUREAU_BENCH_SMALL, shrinks every cell and
// skips the microbenchmarks — correctness assertions still run in full.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <thread>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "bench_util.h"
#include "chaos/fault_plan.h"
#include "chaos/injector.h"
#include "cluster/cluster.h"
#include "common/hash.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/time_types.h"
#include "faas/platform.h"
#include "guard/guard.h"
#include "obs/metrics.h"
#include "obs/shard_merge.h"
#include "psim/lookahead.h"
#include "psim/psim.h"
#include "pubsub/broker.h"
#include "sim/simulation.h"

namespace taureau {
namespace {

using psim::ParallelSimulation;
using psim::PsimConfig;
using psim::ShardId;

constexpr uint64_t kSeed = 26;
constexpr uint32_t kReplayShards = 4;

bool Small() { return std::getenv("TAUREAU_BENCH_SMALL") != nullptr; }

/// Set false by any failed in-binary assertion; main() exits nonzero.
bool g_identical = true;

void AssertIdentical(const std::string& what, const std::string& serial,
                     const std::string& parallel) {
  if (serial == parallel) {
    std::printf("  [ok] %s: serial == parallel (%zu bytes)\n", what.c_str(),
                serial.size());
    return;
  }
  g_identical = false;
  size_t i = 0;
  while (i < serial.size() && i < parallel.size() && serial[i] == parallel[i]) {
    ++i;
  }
  std::fprintf(stderr,
               "FAIL: %s serial/parallel exports differ at byte %zu\n"
               "  serial  : %s\n  parallel: %s\n",
               what.c_str(), i, serial.substr(i, 80).c_str(),
               parallel.substr(i, 80).c_str());
}

std::string U64(uint64_t v) { return std::to_string(v); }

// ------------------------------------------------------- part a: E6 replay
//
// Four geo cells, each owning a PulsarCluster slice (2 brokers, 4 bookies,
// one 4-partition topic). 20% of each cell's publishes are geo-forwarded to
// a remote cell's topic; the forward travels as a psim::Post at the mined
// lookahead (one geo RTT = 2x broker dispatch latency).

std::string RunE6Replay(unsigned threads) {
  const int messages = Small() ? 800 : 4000;  // per shard
  pubsub::PulsarConfig pcfg;
  pcfg.num_brokers = 2;
  pcfg.num_bookies = 4;
  PsimConfig cfg;
  cfg.shards = kReplayShards;
  cfg.threads = threads;
  cfg.lookahead_us = psim::MineLookahead({2 * pubsub::kDispatchLatencyUs});
  ParallelSimulation world(cfg);

  struct Cell {
    std::unique_ptr<pubsub::PulsarCluster> cluster;
    Rng rng{0};
    uint64_t forwarded = 0;
  };
  std::vector<Cell> cells(kReplayShards);
  const std::string payload(256, 'x');
  for (uint32_t s = 0; s < kReplayShards; ++s) {
    Cell& cell = cells[s];
    cell.cluster = std::make_unique<pubsub::PulsarCluster>(&world.shard(s),
                                                          pcfg);
    cell.rng = Rng(HashCombine(kSeed, s));
    pubsub::TopicConfig topic;
    topic.partitions = 4;
    topic.ensemble_size = 3;
    topic.write_quorum = 2;
    topic.ack_quorum = 2;
    cell.cluster->CreateTopic("stream", topic);
    cell.cluster->Subscribe("stream", "sub", pubsub::SubscriptionType::kShared,
                            [](const pubsub::Message&) {});
    bench::PaceArrivals(
        &world.shard(s), messages, /*gap_us=*/250,
        [&world, &cells, s, payload](int i) {
          Cell& me = cells[s];
          const std::string key = "key-" + std::to_string(i % 64);
          if (me.rng.NextBool(0.2)) {
            // Geo-forward: publish into a remote cell after one geo RTT.
            const ShardId dst =
                ShardId((s + 1 + me.rng.NextBounded(kReplayShards - 1)) %
                        kReplayShards);
            ++me.forwarded;
            world.Post(s, dst, world.lookahead(),
                       [&cells, dst, key, payload] {
                         cells[dst].cluster->Publish("stream", key, payload);
                       });
          } else {
            me.cluster->Publish("stream", key, payload);
          }
        });
  }
  world.Run();

  std::string out = "{\"workload\": \"e6\", \"shards\": [";
  for (uint32_t s = 0; s < kReplayShards; ++s) {
    const auto& m = cells[s].cluster->metrics();
    out += s ? ", {" : "{";
    out += "\"published\": " + U64(m.published);
    out += ", \"delivered\": " + U64(m.delivered);
    out += ", \"forwarded\": " + U64(cells[s].forwarded);
    out += ", \"publish_p99_us\": " + bench::Fmt("%.3f",
                                                 m.publish_latency_us.P99());
    out += ", \"clock\": " + U64(uint64_t(world.shard(s).Now()));
    out += "}";
  }
  out += "], \"events\": " + U64(world.events_fired());
  out += ", \"cross_posts\": " + U64(world.stats().cross_posts) + "}";
  return out;
}

// ------------------------------------------------------ part a: E20 replay
//
// Four availability cells, each a cluster + FaaS platform under its own
// E20-intensity fault plan (container kills, crashes, delay spikes). 25% of
// successful invocations trigger a follow-up invocation in the next cell —
// the cross-shard edge is the inter-cell forward at the platform's dispatch
// floor.

std::string RunE20Replay(unsigned threads) {
  const int invocations = Small() ? 400 : 2000;  // per shard
  const SimDuration horizon = Small() ? 2 * kSecond : 8 * kSecond;
  faas::FaasConfig fcfg;
  fcfg.seed = kSeed;
  PsimConfig cfg;
  cfg.shards = kReplayShards;
  cfg.threads = threads;
  cfg.lookahead_us = psim::MineLookahead({fcfg.dispatch_median_us});
  ParallelSimulation world(cfg);

  struct Cell {
    std::unique_ptr<chaos::InjectorRegistry> injectors;
    std::unique_ptr<cluster::Cluster> cluster;
    std::unique_ptr<faas::FaasPlatform> platform;
    uint64_t ok = 0;
    uint64_t followups = 0;
    Histogram e2e_us{double(kMinute)};
  };
  std::vector<Cell> cells(kReplayShards);
  for (uint32_t s = 0; s < kReplayShards; ++s) {
    Cell& cell = cells[s];
    sim::Simulation& sim = world.shard(s);
    cell.injectors = std::make_unique<chaos::InjectorRegistry>(&sim);
    cell.cluster = std::make_unique<cluster::Cluster>(4, cluster::ResourceVector{32000, 65536});
    faas::FaasConfig config = fcfg;
    config.seed = kSeed + s;
    cell.platform =
        std::make_unique<faas::FaasPlatform>(&sim, cell.cluster.get(), config);
    cell.cluster->AttachChaos(cell.injectors.get());
    cell.platform->AttachChaos(cell.injectors.get());

    faas::FunctionSpec spec;
    spec.name = "serve";
    spec.exec = {faas::ExecTimeModel::Kind::kFixed, 20 * kMillisecond, 0, 0};
    spec.init_us = 40 * kMillisecond;
    cell.platform->RegisterFunction(spec);

    chaos::FaultPlanConfig plan_cfg;
    plan_cfg.horizon_us = horizon;
    plan_cfg.num_machines = 4;
    plan_cfg.machine_crash_per_s = 0.05;
    plan_cfg.machine_restart_after_us = 2 * kSecond;
    plan_cfg.container_kill_per_s = 2.0;
    plan_cfg.network_delay_per_s = 0.1;
    Rng plan_rng(HashCombine(kSeed + 1, s));
    cell.injectors->Arm(chaos::FaultPlan::Generate(plan_cfg, &plan_rng));
  }
  struct Driver {
    ParallelSimulation* world;
    std::vector<Cell>* cells;

    void Submit(ShardId s, bool allow_followup) {
      Cell& cell = (*cells)[s];
      const SimTime t0 = world->shard(s).Now();
      cell.platform->Invoke(
          "serve", "req",
          [this, s, t0, allow_followup](const faas::InvocationResult& r) {
            Cell& me = (*cells)[s];
            if (!r.status.ok()) return;
            ++me.ok;
            me.e2e_us.Add(double(world->shard(s).Now() - t0));
            // Every 4th success fans a follow-up into the next cell.
            if (allow_followup && me.ok % 4 == 0) {
              const ShardId dst = ShardId((s + 1) % kReplayShards);
              ++me.followups;
              world->Post(s, dst, world->lookahead(), [this, dst] {
                Submit(dst, /*allow_followup=*/false);
              });
            }
          });
    }
  };
  auto driver = std::make_unique<Driver>(Driver{&world, &cells});
  for (uint32_t s = 0; s < kReplayShards; ++s) {
    const SimDuration gap = horizon / invocations;
    bench::PaceArrivals(&world.shard(s), invocations, gap,
                        [d = driver.get(), s](int) {
                          d->Submit(s, /*allow_followup=*/true);
                        });
  }
  world.Run();

  std::string out = "{\"workload\": \"e20\", \"shards\": [";
  for (uint32_t s = 0; s < kReplayShards; ++s) {
    Cell& cell = cells[s];
    out += s ? ", {" : "{";
    out += "\"ok\": " + U64(cell.ok);
    out += ", \"followups\": " + U64(cell.followups);
    out += ", \"injected\": " + U64(cell.injectors->log().injected_count());
    out += ", \"killed\": " + U64(cell.platform->metrics().killed_containers);
    out += ", \"p99_e2e_us\": " + bench::Fmt("%.3f", cell.e2e_us.P99());
    out += ", \"clock\": " + U64(uint64_t(world.shard(s).Now()));
    out += "}";
  }
  out += "], \"events\": " + U64(world.events_fired());
  out += ", \"cross_posts\": " + U64(world.stats().cross_posts) + "}";
  return out;
}

// ------------------------------------------------------ part a: E23 replay
//
// Four cells behind admission control. Cells 0-1 are offered ~2x their
// capacity, cells 2-3 ~0.4x; a request shed by a hot cell's admission gate
// spills over to the (s+2)-th cell — overload protection plus cross-cell
// load balancing, with the spillover travelling at the dispatch floor.

std::string RunE23Replay(unsigned threads) {
  const int hot_requests = Small() ? 600 : 3000;  // per hot shard
  constexpr size_t kSlots = 4;
  constexpr SimDuration kExecUs = 10 * kMillisecond;
  faas::FaasConfig base;
  PsimConfig cfg;
  cfg.shards = kReplayShards;
  cfg.threads = threads;
  cfg.lookahead_us = psim::MineLookahead({base.dispatch_median_us});
  ParallelSimulation world(cfg);

  struct Cell {
    std::unique_ptr<cluster::Cluster> cluster;
    std::unique_ptr<faas::FaasPlatform> platform;
    std::unique_ptr<guard::Guard> guard;
    uint64_t ok = 0;
    uint64_t shed = 0;
    uint64_t spilled_in = 0;
  };
  std::vector<Cell> cells(kReplayShards);
  for (uint32_t s = 0; s < kReplayShards; ++s) {
    Cell& cell = cells[s];
    sim::Simulation& sim = world.shard(s);
    cell.cluster = std::make_unique<cluster::Cluster>(2, cluster::ResourceVector{32000, 65536});
    faas::FaasConfig config;
    config.seed = kSeed + s;
    config.max_concurrency = kSlots;
    config.dispatch_median_us = 500;
    config.dispatch_sigma = 0.1;
    config.enable_admission = true;
    config.admission.max_queue_depth = 2 * kSlots;
    config.admission.expected_service_us = kExecUs;
    cell.platform =
        std::make_unique<faas::FaasPlatform>(&sim, cell.cluster.get(), config);
    guard::GuardConfig gcfg;
    cell.guard = std::make_unique<guard::Guard>(gcfg);
    cell.platform->AttachGuard(cell.guard.get());

    faas::FunctionSpec spec;
    spec.name = "serve";
    spec.exec = {faas::ExecTimeModel::Kind::kFixed, kExecUs, 0, 0};
    spec.init_us = 1 * kMillisecond;
    cell.platform->RegisterFunction(spec);
    cell.platform->Prewarm("serve", kSlots);
  }
  struct Driver {
    ParallelSimulation* world;
    std::vector<Cell>* cells;

    void Submit(ShardId s, bool may_spill) {
      Cell& cell = (*cells)[s];
      const SimTime t0 = world->shard(s).Now();
      guard::Deadline d = guard::Deadline::In(t0, 100 * kMillisecond);
      cell.platform->Invoke(
          "serve", "req",
          [this, s, may_spill](const faas::InvocationResult& r) {
            Cell& me = (*cells)[s];
            if (r.status.ok()) {
              ++me.ok;
              return;
            }
            if (r.status.IsResourceExhausted() ||
                r.status.IsDeadlineExceeded()) {
              ++me.shed;
              if (may_spill) {
                // Spill the rejected request to the paired cold cell.
                const ShardId dst = ShardId((s + 2) % kReplayShards);
                world->Post(s, dst, world->lookahead(), [this, dst] {
                  ++(*cells)[dst].spilled_in;
                  Submit(dst, /*may_spill=*/false);
                });
              }
            }
          },
          {}, d);
    }
  };
  auto driver = std::make_unique<Driver>(Driver{&world, &cells});
  for (uint32_t s = 0; s < kReplayShards; ++s) {
    const bool hot = s < 2;
    // Hot cells: ~2x capacity (capacity = kSlots / 10ms = 400/s).
    const int requests = hot ? hot_requests : hot_requests / 5;
    const SimDuration gap = hot ? 1250 : 6250;
    bench::PaceArrivals(&world.shard(s), requests, gap,
                        [d = driver.get(), s, hot](int) {
                          d->Submit(s, /*may_spill=*/hot);
                        });
  }
  world.Run();

  std::string out = "{\"workload\": \"e23\", \"shards\": [";
  for (uint32_t s = 0; s < kReplayShards; ++s) {
    Cell& cell = cells[s];
    out += s ? ", {" : "{";
    out += "\"ok\": " + U64(cell.ok);
    out += ", \"shed\": " + U64(cell.shed);
    out += ", \"spilled_in\": " + U64(cell.spilled_in);
    out += ", \"admitted\": " + U64(cell.platform->admission().admitted());
    out += ", \"clock\": " + U64(uint64_t(world.shard(s).Now()));
    out += "}";
  }
  out += "], \"events\": " + U64(world.events_fired());
  out += ", \"cross_posts\": " + U64(world.stats().cross_posts) + "}";
  return out;
}

// --------------------------------------------- part b: 10M-request diurnal
//
// A compressed heavy-traffic day: 8 cells, sinusoidal offered load
// (amplitude 0.5 around a base of kGlobalBaseRate req/s across the
// landscape, one compressed "day" = kDayUs), 10M requests total. Each
// request is arrival -> dispatch -> completion (3 events); 25% are
// cross-cell calls that complete on the remote cell after the mined
// inter-cell RTT. Arrivals self-schedule (one pending arrival per cell), so
// memory stays flat at any request count.

constexpr uint32_t kCells = 8;
constexpr SimDuration kDayUs = 12 * kSecond;  ///< One compressed day.
constexpr double kGlobalBaseRate = 300000.0;  ///< req/s across all cells.
constexpr double kDiurnalAmplitude = 0.5;
constexpr double kRemoteShare = 0.25;

uint64_t DiurnalRequests() { return Small() ? 200000 : 10000000; }

struct DiurnalFingerprint {
  std::string merged;  ///< obs::MergeShardExports over the cell registries.
  uint64_t events = 0;
  uint64_t cross_posts = 0;
  uint64_t clamped_posts = 0;
  std::vector<SimTime> clocks;
  double wall_seconds = 0.0;
  uint64_t epochs = 0;
  uint64_t barrier_ns = 0;  ///< Host: coordinator between epochs.
  uint64_t wait_ns = 0;     ///< Host: coordinator waiting for workers.

  std::string Export() const {
    std::string out = "{\"events\": " + U64(events);
    out += ", \"cross_posts\": " + U64(cross_posts);
    out += ", \"clamped_posts\": " + U64(clamped_posts);
    out += ", \"clocks\": [";
    for (size_t i = 0; i < clocks.size(); ++i) {
      out += (i ? ", " : "") + U64(uint64_t(clocks[i]));
    }
    out += "], \"merged_digest\": " + U64(Fnv1a64(merged)) + "}";
    return out;
  }
};

DiurnalFingerprint RunDiurnalDay(unsigned threads) {
  const uint64_t total_requests = DiurnalRequests();
  const uint64_t per_cell = total_requests / kCells;
  // The only cross-cell edge is the inter-cell RPC: one geo RTT, two broker
  // dispatch hops.
  const SimDuration lookahead =
      psim::MineLookahead({2 * pubsub::kDispatchLatencyUs});
  PsimConfig cfg;
  cfg.shards = kCells;
  cfg.threads = threads;
  cfg.lookahead_us = lookahead;
  ParallelSimulation world(cfg);

  struct Cell {
    obs::Registry registry;
    Rng rng{0};
    Rng arrivals{0};
    obs::CounterHandle requests;
    obs::CounterHandle remote_calls;
    obs::HistogramHandle e2e_us;
    uint64_t issued = 0;
    uint64_t target = 0;
  };
  std::vector<Cell> cells(kCells);

  struct Day {
    ParallelSimulation* world;
    std::vector<Cell>* cells;
    SimDuration lookahead;

    /// Offered rate for one cell at simulated time t, in requests/us.
    static double RatePerUs(SimTime t) {
      const double phase = 2.0 * 3.14159265358979323846 *
                           double(t % kDayUs) / double(kDayUs);
      const double rate_s = (kGlobalBaseRate / kCells) *
                            (1.0 + kDiurnalAmplitude * std::sin(phase));
      return rate_s / 1e6;
    }

    void Complete(ShardId s, SimTime t0) {
      Cell& cell = (*cells)[s];
      cell.e2e_us.Observe(double(world->shard(s).Now() - t0));
    }

    void Arrive(ShardId s) {
      Cell& cell = (*cells)[s];
      cell.requests.Inc();
      const SimTime t0 = world->shard(s).Now();
      const SimDuration exec =
          SimDuration(100 + cell.rng.NextInt(0, 300));  // dispatch + exec
      if (cell.rng.NextBool(kRemoteShare)) {
        // Cross-cell call: complete on the destination cell after the
        // inter-cell RTT plus its service time.
        cell.remote_calls.Inc();
        const ShardId dst = ShardId(cell.rng.NextBounded(kCells));
        world->Post(s, dst, lookahead + exec,
                    [this, dst, t0] { Complete(dst, t0); });
      } else {
        // Local: dispatch hop, then completion.
        world->shard(s).Schedule(exec / 2, [this, s, t0, exec] {
          world->shard(s).Schedule(exec - exec / 2,
                                   [this, s, t0] { Complete(s, t0); });
        });
      }
      ScheduleNext(s);
    }

    void ScheduleNext(ShardId s) {
      Cell& cell = (*cells)[s];
      if (cell.issued >= cell.target) return;
      ++cell.issued;
      const double rate = RatePerUs(world->shard(s).Now());
      const SimDuration dt = std::max<SimDuration>(
          1, SimDuration(cell.arrivals.NextExponential(rate)));
      world->shard(s).Schedule(dt, [this, s] { Arrive(s); });
    }
  };
  auto day = std::make_unique<Day>(Day{&world, &cells, lookahead});
  for (uint32_t s = 0; s < kCells; ++s) {
    Cell& cell = cells[s];
    cell.rng = Rng(HashCombine(kSeed, s));
    cell.arrivals = Rng(HashCombine(kSeed + 7, s));
    cell.requests = cell.registry.ResolveCounter("day.requests");
    cell.remote_calls = cell.registry.ResolveCounter("day.remote_calls");
    cell.e2e_us = cell.registry.ResolveHistogram("day.e2e_us");
    cell.target = per_cell;
    day->ScheduleNext(ShardId(s));
  }

  const auto wall0 = std::chrono::steady_clock::now();
  world.Run();
  const auto wall1 = std::chrono::steady_clock::now();

  DiurnalFingerprint fp;
  fp.events = world.events_fired();
  fp.cross_posts = world.stats().cross_posts;
  fp.clamped_posts = world.stats().clamped_posts;
  fp.epochs = world.stats().epochs;
  fp.barrier_ns = world.stats().barrier_ns;
  fp.wait_ns = world.stats().wait_ns;
  std::vector<const obs::Registry*> regs;
  for (uint32_t s = 0; s < kCells; ++s) {
    fp.clocks.push_back(world.shard(s).Now());
    regs.push_back(&cells[s].registry);
  }
  fp.merged = obs::MergeShardExports(regs);
  fp.wall_seconds =
      std::chrono::duration<double>(wall1 - wall0).count();
  return fp;
}

// ----------------------------------------------------------------- driver

void RunExperiment() {
  std::printf("E26: parallel simulation (psim) — differential replay + "
              "core scaling%s\n",
              Small() ? " [small]" : "");

  // Part a: differential replay of E6/E20/E23-shaped sharded workloads.
  {
    bench::Table table({"workload", "shards", "events", "cross posts",
                        "identical"});
    struct Row {
      const char* name;
      std::function<std::string(unsigned)> run;
    };
    const std::vector<Row> rows = {{"e6 pulsar geo-cells", RunE6Replay},
                                   {"e20 fault cells", RunE20Replay},
                                   {"e23 overload spillover", RunE23Replay}};
    for (const Row& row : rows) {
      const std::string serial = row.run(1);
      const std::string parallel = row.run(4);
      const bool same = serial == parallel;
      AssertIdentical(row.name, serial, parallel);
      // Pull events/cross_posts back out of the export for the table.
      auto field = [&serial](const std::string& key) {
        const size_t pos = serial.rfind("\"" + key + "\": ");
        if (pos == std::string::npos) return std::string("?");
        size_t start = pos + key.size() + 4;
        size_t end = start;
        while (end < serial.size() && serial[end] >= '0' && serial[end] <= '9')
          ++end;
        return serial.substr(start, end - start);
      };
      table.AddRow({row.name, bench::FmtInt(kReplayShards), field("events"),
                    field("cross_posts"), same ? "yes" : "NO"});
    }
    table.Print("E26a: serial (1 thread) vs parallel (4 threads) replay — "
                "byte-identical JSON exports");
  }

  // Part b: the diurnal day core-scaling curve. Every run must produce the
  // same merged export; speedup is events/sec relative to threads=1. The
  // barrier and wait columns are the coordinator's host time per epoch.
  double speedup4 = 0.0;
  {
    bench::Table table({"threads", "events", "epochs", "wall (s)",
                        "Mevents/s", "speedup", "barrier (us/epoch)",
                        "wait (us/epoch)", "identical"});
    std::string reference;
    double serial_rate = 0.0;
    for (unsigned threads : {1u, 2u, 4u, 8u}) {
      const DiurnalFingerprint fp = RunDiurnalDay(threads);
      const std::string exported = fp.Export();
      if (threads == 1) {
        reference = exported;
      } else {
        AssertIdentical("diurnal day @" + std::to_string(threads) + "t",
                        reference, exported);
      }
      const double rate = fp.wall_seconds > 0
                              ? double(fp.events) / fp.wall_seconds
                              : 0.0;
      if (threads == 1) serial_rate = rate;
      const double speedup = serial_rate > 0 ? rate / serial_rate : 0.0;
      if (threads == 4) speedup4 = speedup;
      const double epochs = double(std::max<uint64_t>(fp.epochs, 1));
      table.AddRow({bench::FmtInt(threads), U64(fp.events), U64(fp.epochs),
                    bench::Fmt("%.2f", fp.wall_seconds),
                    bench::Fmt("%.2f", rate / 1e6),
                    bench::Fmt("%.2fx", speedup),
                    bench::Fmt("%.2f", double(fp.barrier_ns) / epochs / 1e3),
                    bench::Fmt("%.2f", double(fp.wait_ns) / epochs / 1e3),
                    reference == exported ? "yes" : "NO"});
    }
    table.Print("E26b: " + std::to_string(DiurnalRequests() / 1000000.0 >= 1
                                              ? DiurnalRequests() / 1000000
                                              : DiurnalRequests() / 1000) +
                (DiurnalRequests() >= 1000000 ? "M" : "K") +
                "-request diurnal day, " + std::to_string(kCells) +
                " cells — core-scaling curve");
  }

  auto& report = bench::JsonReport::Instance();
  report.Note("serial_parallel_identical", g_identical ? "true" : "false");
  report.Note("speedup_4t", bench::Fmt("%.2f", speedup4));
  const unsigned hw = std::thread::hardware_concurrency();
  // The speedup check needs the full shape on at least 4 cores; otherwise
  // only the differential ran, and the note says the speedup was skipped.
  if (Small() || hw < 4) {
    const std::string why =
        Small() ? "smoke shape" : std::to_string(hw) + " hw cores < 4";
    report.Note("acceptance",
                g_identical ? "PASS differential; speedup SKIPPED (" + why + ")"
                            : "FAIL (exports differ)");
  } else {
    const bool fast = speedup4 >= 2.5;
    report.Note("acceptance",
                !g_identical ? "FAIL (exports differ)"
                : fast       ? "PASS (identical; " +
                             bench::Fmt("%.2f", speedup4) + "x >= 2.5x @4t)"
                             : "FAIL (speedup " +
                             bench::Fmt("%.2f", speedup4) + "x < 2.5x @4t)");
  }
}

// -------------------------------------------------------- microbenchmarks

/// Cross-shard storm throughput at a given worker-thread count: the same
/// workload shape psim_test replays, sized for steady-state measurement.
void BM_PsimStorm(benchmark::State& state) {
  const unsigned threads = unsigned(state.range(0));
  uint64_t events = 0;
  for (auto _ : state) {
    PsimConfig cfg;
    cfg.shards = 4;
    cfg.threads = threads;
    cfg.lookahead_us = 500;
    ParallelSimulation world(cfg);
    std::vector<Rng> rngs;
    for (uint32_t s = 0; s < 4; ++s) rngs.emplace_back(HashCombine(7, s));
    struct Hop {
      ParallelSimulation* world;
      std::vector<Rng>* rngs;
      void Fire(ShardId s, int remaining) {
        if (remaining <= 0) return;
        Rng& r = (*rngs)[s];
        const SimDuration delay = SimDuration(r.NextInt(0, 1500));
        if (r.NextBool(0.3)) {
          const ShardId dst = ShardId(r.NextBounded(4));
          world->Post(s, dst, delay,
                      [this, dst, remaining] { Fire(dst, remaining - 1); });
        } else {
          world->shard(s).Schedule(
              delay, [this, s, remaining] { Fire(s, remaining - 1); });
        }
      }
    };
    Hop hop{&world, &rngs};
    for (uint32_t s = 0; s < 4; ++s) {
      for (int c = 0; c < 64; ++c) {
        world.shard(s).ScheduleAt(SimTime(c) * 97,
                                  [&hop, s] { hop.Fire(ShardId(s), 64); });
      }
    }
    events += world.Run();
  }
  state.counters["events/s"] =
      benchmark::Counter(double(events), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_PsimStorm)->Arg(1)->Arg(2)->Arg(4)->Unit(benchmark::kMillisecond);

/// Barrier overhead floor: epochs with exactly one event each — the
/// worst-case work:synchronization ratio.
void BM_PsimEpochOverhead(benchmark::State& state) {
  const unsigned threads = unsigned(state.range(0));
  for (auto _ : state) {
    PsimConfig cfg;
    cfg.shards = 4;
    cfg.threads = threads;
    cfg.lookahead_us = 100;
    ParallelSimulation world(cfg);
    struct Ping {
      ParallelSimulation* world;
      void Fire(ShardId s, int remaining) {
        if (remaining <= 0) return;
        const ShardId dst = ShardId((s + 1) % 4);
        world->Post(s, dst, 100,
                    [this, dst, remaining] { Fire(dst, remaining - 1); });
      }
    };
    Ping ping{&world};
    world.shard(0).ScheduleAt(0, [&ping] { ping.Fire(0, 2000); });
    world.Run();
    benchmark::DoNotOptimize(world.events_fired());
  }
  state.SetItemsProcessed(int64_t(state.iterations()) * 2000);
}
BENCHMARK(BM_PsimEpochOverhead)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace taureau

int main(int argc, char** argv) {
  bool smoke = false;
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    if (argv[i] != nullptr && std::string_view(argv[i]) == "--smoke") {
      smoke = true;
      continue;
    }
    args.push_back(argv[i]);
  }
  if (smoke) setenv("TAUREAU_BENCH_SMALL", "1", 1);
  argc = int(args.size());
  taureau::RunExperiment();
  taureau::bench::JsonReport::Instance().WriteForBinary(args[0]);
  if (!taureau::g_identical) {
    std::fprintf(stderr,
                 "E26: in-binary differential assertion FAILED — serial and "
                 "parallel exports differ\n");
    return 1;
  }
  if (smoke) return 0;  // CI smoke: skip the microbenchmarks.
  ::benchmark::Initialize(&argc, args.data());
  if (::benchmark::ReportUnrecognizedArguments(argc, args.data())) return 1;
  ::benchmark::RunSpecifiedBenchmarks();
  return 0;
}
