// E29: the computation-reuse layer (taureau::reuse) — content-addressed
// result cache, singleflight coalescing, SLO-triggered approximation.
//
// Part a is the headline experiment: a Zipf-skewed stream of idempotent
// requests at 4x the fleet's exact-execution capacity. Without reuse the
// queues grow for the whole arrival window, p99 blows past the latency
// budget by two orders of magnitude, and every request is billed. With
// the reuse layer attached the first sight of each key executes, identical
// in-flight requests coalesce onto that one execution (single-billed), and
// every later arrival is a cache hit served at dispatch cost — p99 drops
// back inside the budget, throughput-per-machine multiplies, and the bill
// collapses to the unique work. Freshness is a checked contract: every
// hit's staleness is measured against the configured TTL.
//
// Part b: degraded-mode approximation under burn. A fleet sized at 1/4 of
// the arrival rate serves a counting function over a wide (mostly
// uncacheable) key space. The burn-rate gate starts disabled; at 800ms a
// live ctrl push sets "reuse.approx.burn_threshold", after which requests
// arriving while the SLO burn is at/above it get a CountMin-backed
// estimate with an exported error bound instead of queueing exact work.
// Checked in-binary: approximation never fires while the gate is closed,
// and every approximate answer's true error is within its exported bound.
//
// Part c: the reuse layer inside a sharded psim world — merged metric
// exports and per-shard cache counters byte-identical at 1 worker thread
// and at 4 (the E26 invariant extended to the reuse path).
//
// Deterministic: the reuse cell run twice prints byte-identical rows.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "cluster/cluster.h"
#include "common/hash.h"
#include "common/rng.h"
#include "ctrl/config.h"
#include "faas/platform.h"
#include "obs/observability.h"
#include "obs/shard_merge.h"
#include "obs/slo.h"
#include "psim/psim.h"
#include "reuse/reuse.h"
#include "sim/simulation.h"
#include "sketch/countmin.h"

namespace taureau {
namespace {

constexpr uint64_t kSeed = 29;

bool Small() { return std::getenv("TAUREAU_BENCH_SMALL") != nullptr; }

// ------------------------------------------------------------------ part a

constexpr size_t kMachines = 4;
constexpr SimDuration kExecUs = 20 * kMillisecond;
constexpr SimDuration kArrivalGapUs = 250;        ///< 4000 rps offered.
// Wide enough that the leaders' one-time cold-start wave (64 keys over 20
// containers at 100ms init) fits; the exact cell still misses it by an
// order of magnitude.
constexpr SimDuration kBudgetUs = 500 * kMillisecond;
constexpr uint64_t kKeys = 64;
constexpr double kTheta = 1.1;
// Outlives the run including the keep-alive drain, so staleness — not
// expiry — is what the freshness check below measures.
constexpr SimDuration kTtlUs = 2 * kHour;

SimDuration HorizonUs() { return Small() ? 1500 * kMillisecond : 4 * kSecond; }

enum class Cell { kExact, kReuse };

const char* CellName(Cell c) {
  return c == Cell::kExact ? "exact (no reuse)" : "reuse attached";
}

struct CellResult {
  uint64_t offered = 0, ok = 0;
  uint64_t billed = 0;          ///< Billing ledger records (= executions).
  uint64_t hits = 0, coalesced = 0;
  uint64_t cache_admitted = 0, cache_rejected = 0;
  double p99_us = 0;
  double compliance = 0;        ///< Fraction of OK results within budget.
  SimTime makespan_us = 0;      ///< Last completion.
  SimDuration max_staleness_us = 0;  ///< Worst cache-hit age (reuse cell).
  SimDuration saved_exec_us = 0;
  double cost_dollars = 0;
  uint64_t e2e_fingerprint = 0;  ///< FNV over the e2e sample stream.

  /// Useful results per machine-second over the time the fleet was
  /// actually occupied delivering them.
  double ThroughputPerMachine() const {
    const double span_s = double(makespan_us) / double(kSecond);
    return span_s > 0 ? double(ok) / double(kMachines) / span_s : 0;
  }
};

/// One saturation cell: the same seeded Zipf stream against the same
/// 20-container fleet, with or without the reuse layer attached.
CellResult RunSaturation(Cell cell) {
  sim::Simulation sim;
  // 5 containers per machine (cpu-bound: 1000/200) -> 20 total -> 1000 rps
  // of exact 20ms executions; the stream offers 4000 rps.
  cluster::Cluster cluster(kMachines, {1000, 2048});
  faas::FaasConfig config;
  config.seed = kSeed;
  faas::FaasPlatform platform(&sim, &cluster, config);

  faas::FunctionSpec spec;
  spec.name = "hot";
  spec.exec = {faas::ExecTimeModel::Kind::kFixed, kExecUs, 0.0, 0.0};
  spec.idempotent = true;
  spec.handler = [](const std::string& payload, faas::InvocationContext&) {
    return Result<std::string>("v:" + payload);
  };
  platform.RegisterFunction(spec);

  reuse::ReuseConfig rcfg;
  rcfg.cache = {/*max_bytes=*/size_t(1) << 20, /*max_entries=*/0,
                /*ttl_us=*/kTtlUs, /*cost_aware=*/true};
  reuse::ReuseLayer layer(rcfg);
  if (cell == Cell::kReuse) platform.AttachReuse(&layer);

  // The same payload stream in both cells: rank 0 of the Zipf is the
  // hottest key, so most arrivals repeat a handful of payloads.
  Rng rng(kSeed);
  ZipfGenerator zipf(kKeys, kTheta);
  const int count = int(HorizonUs() / kArrivalGapUs);

  CellResult out;
  std::vector<double> e2e;
  e2e.reserve(size_t(count));
  std::map<std::string, SimTime> first_exec_end;
  bench::PaceArrivals(&sim, count, kArrivalGapUs, [&](int) {
    const std::string payload = "q" + std::to_string(zipf.Next(&rng));
    ++out.offered;
    (void)platform.Invoke(
        "hot", payload, [&, payload](const faas::InvocationResult& r) {
          if (!r.status.ok()) return;
          ++out.ok;
          const double lat = double(r.EndToEnd());
          e2e.push_back(lat);
          out.makespan_us = std::max(out.makespan_us, r.end_us);
          if (r.served_via == faas::ServedVia::kExecution) {
            first_exec_end.emplace(payload, r.end_us);
          } else if (r.served_via == faas::ServedVia::kCacheHit) {
            // The cache keeps the first writer, so the hit's staleness is
            // its age relative to the first execution of this payload.
            out.max_staleness_us = std::max(
                out.max_staleness_us, r.end_us - first_exec_end[payload]);
          }
        });
  });
  sim.Run();

  out.p99_us = bench::Percentile(e2e, 0.99);
  uint64_t within = 0;
  uint64_t fp = 1469598103934665603ULL;  // FNV-1a over the sample stream.
  for (double v : e2e) {
    within += v <= double(kBudgetUs);
    fp = (fp ^ uint64_t(v)) * 1099511628211ULL;
  }
  out.e2e_fingerprint = fp;
  out.compliance = out.ok ? double(within) / double(out.ok) : 0;
  out.billed = platform.ledger().record_count();
  out.cost_dollars = double(platform.ledger().Total().nano_dollars()) / 1e9;
  const reuse::ReuseStats rs = layer.stats();
  out.hits = rs.hits;
  out.coalesced = rs.coalesced;
  out.cache_admitted = rs.cache_admitted;
  out.cache_rejected = rs.cache_rejected;
  out.saved_exec_us = rs.saved_exec_us;
  return out;
}

std::vector<std::string> CellRow(Cell cell, const CellResult& r) {
  return {CellName(cell),
          bench::FmtInt(int64_t(r.offered)),
          bench::FmtInt(int64_t(r.billed)),
          bench::FmtInt(int64_t(r.hits)),
          bench::FmtInt(int64_t(r.coalesced)),
          bench::Fmt("%.1f", r.p99_us / kMillisecond),
          bench::Fmt("%.3f", r.compliance),
          bench::Fmt("%.2f", double(r.makespan_us) / kSecond),
          bench::Fmt("%.0f", r.ThroughputPerMachine()),
          bench::Fmt("%.4f", r.cost_dollars)};
}

// ------------------------------------------------------------------ part b

constexpr SimDuration kApproxGapUs = 500;  ///< 2000 rps vs 500 rps capacity.
constexpr uint64_t kWideKeys = 4096;       ///< Mostly uncacheable stream.
constexpr double kBurnThreshold = 3.0;
constexpr SimTime kEnableAtUs = 800 * kMillisecond;

SimDuration ApproxHorizonUs() {
  return Small() ? 1500 * kMillisecond : 3 * kSecond;
}

struct ApproxBucket {
  uint64_t offered = 0;
  uint64_t approx = 0;
  uint64_t within = 0;
  double burn = 0;  ///< Burn rate at the bucket's end.
};

struct ApproxResult {
  std::vector<ApproxBucket> timeline;  ///< Per 250ms of submit time.
  uint64_t offered = 0;
  uint64_t approx_served = 0;
  uint64_t approx_before_enable = 0;
  uint64_t gate_violations = 0;  ///< Approximate answers with the gate closed.
  uint64_t bound_violations = 0;  ///< True error above the exported bound.
  double max_error = 0, max_bound = 0;
};

/// Overloaded fleet, wide key space, burn-gated degradation enabled by a
/// live ctrl push mid-run. The submitted-time gate state and the exact
/// truth (a bench-side count per key, mirrored into the provider's
/// CountMin) make both contracts — gate discipline and error bounds —
/// checkable per answer.
ApproxResult RunApproximation() {
  sim::Simulation sim;
  cluster::Cluster cluster(2, {1000, 2048});  // 10 containers: 500 rps cap.
  faas::FaasConfig config;
  config.seed = kSeed + 1;
  faas::FaasPlatform platform(&sim, &cluster, config);

  faas::FunctionSpec spec;
  spec.name = "est";
  spec.exec = {faas::ExecTimeModel::Kind::kFixed, kExecUs, 0.0, 0.0};
  spec.idempotent = true;
  spec.handler = [](const std::string&, faas::InvocationContext&) {
    return Result<std::string>("exact");
  };
  platform.RegisterFunction(spec);

  obs::SloEngine slo;
  obs::SloObjective obj;
  obj.name = "reuse-lat";
  obj.module = "faas";
  obj.target = 0.99;
  obj.latency_budget_us = -1;
  // The gate reads a 1s burn window; the engine only retains events up to
  // the longest policy window, so the objective must carry one at least
  // that long.
  obj.policies = {{"page", /*long=*/1 * kSecond, /*short=*/250 * kMillisecond,
                   /*burn=*/5.0}};
  slo.AddObjective(std::move(obj));

  reuse::ReuseConfig rcfg;
  rcfg.cache = {/*max_bytes=*/size_t(1) << 20, 0, kTtlUs, /*cost_aware=*/true};
  rcfg.approx_burn_threshold = 0.0;  // Disabled until the live push lands.
  rcfg.approx_burn_window_us = 1 * kSecond;
  rcfg.slo_objective = "reuse-lat";
  reuse::ReuseLayer layer(rcfg);
  layer.SetSloSource(&slo, "reuse-lat");

  // Degraded mode: a CountMin popularity estimate for the key, with the
  // sketch's guaranteed one-sided bound exported to the client.
  sketch::CountMinSketch popularity(4, 1024, kSeed);
  std::map<std::string, uint64_t> truth;
  layer.RegisterApprox("est", [&popularity](const std::string& payload) {
    return reuse::ReuseLayer::ApproxAnswer{
        std::to_string(popularity.EstimateCount(payload)),
        popularity.ErrorBound()};
  });
  platform.AttachReuse(&layer);

  ctrl::ConfigService svc(&sim);
  layer.AttachControl(&svc);
  sim.ScheduleAt(kEnableAtUs, [&] {
    svc.Push("reuse.approx.burn_threshold",
             ctrl::ConfigValue::Double(kBurnThreshold));
  });

  Rng rng(kSeed + 1);
  const int count = int(ApproxHorizonUs() / kApproxGapUs);
  ApproxResult out;
  out.timeline.resize(size_t(ApproxHorizonUs() / (250 * kMillisecond)) + 1);
  bench::PaceArrivals(&sim, count, kApproxGapUs, [&](int) {
    const std::string payload =
        "u" + std::to_string(rng.NextBounded(kWideKeys));
    popularity.Add(payload);
    const uint64_t exact_now = ++truth[payload];
    // The platform reads the same gate synchronously inside Invoke, so
    // this snapshot is exactly the decision it will make.
    const bool gate_open = layer.ShouldApproximate("", sim.Now());
    const size_t bucket =
        std::min(out.timeline.size() - 1,
                 size_t(sim.Now() / (250 * kMillisecond)));
    ++out.offered;
    ++out.timeline[bucket].offered;
    (void)platform.Invoke(
        "est", payload,
        [&, exact_now, gate_open, bucket](const faas::InvocationResult& r) {
          if (!r.status.ok()) return;
          const double lat = double(r.EndToEnd());
          slo.Record("faas", r.end_us, SimDuration(lat),
                     lat <= double(kBudgetUs));
          out.timeline[bucket].within += lat <= double(kBudgetUs);
          if (r.served_via != faas::ServedVia::kApproximation) return;
          ++out.approx_served;
          ++out.timeline[bucket].approx;
          out.gate_violations += !gate_open;
          out.approx_before_enable += r.submit_us < kEnableAtUs;
          // CountMin never undercounts, and its exported bound caps the
          // overcount: 0 <= estimate - truth <= bound, checked per answer.
          const double err = std::atof(r.output.c_str()) - double(exact_now);
          out.bound_violations += err < 0 || err > r.approx_error_bound;
          out.max_error = std::max(out.max_error, err);
          out.max_bound = std::max(out.max_bound, r.approx_error_bound);
        });
  });
  for (size_t b = 0; b < out.timeline.size(); ++b) {
    sim.ScheduleAt(SimTime(b + 1) * 250 * kMillisecond - 1, [&, b] {
      out.timeline[b].burn = slo.BurnRate("reuse-lat", 1 * kSecond, sim.Now());
    });
  }
  sim.Run();
  return out;
}

// ------------------------------------------------------------------ part c

// The reuse layer sharded: every shard runs a seeded hit/miss/offer storm
// over its own ReuseLayer with cross-shard chain handoff, and the merged
// metric export + per-shard cache counters are the fingerprint compared
// across worker-thread counts.

struct ReuseShard {
  std::unique_ptr<obs::Observability> obs;
  std::unique_ptr<reuse::ReuseLayer> layer;
  Rng rng{0};
};

struct ReuseWorld {
  psim::ParallelSimulation world;
  std::vector<ReuseShard> state;

  explicit ReuseWorld(const psim::PsimConfig& cfg) : world(cfg) {}
};

void ReuseHop(ReuseWorld* w, psim::ShardId s, int remaining) {
  ReuseShard& st = w->state[s];
  reuse::ReuseLayer& layer = *st.layer;
  const reuse::ContentKey key =
      layer.Key("fn", "p" + std::to_string(st.rng.NextBounded(16)));
  reuse::ReuseLayer::TenantHandles* tenant =
      layer.TenantMetrics("t" + std::to_string(st.rng.NextBounded(3)));
  const SimTime now = w->world.shard(s).Now();
  layer.NoteRequest(key);
  if (const reuse::CachedResult* e = layer.Lookup(key, now)) {
    layer.RecordHit(tenant, e->exec_us);
  } else {
    layer.RecordMiss(tenant);
    layer.Offer(key,
                {Status::OK(),
                 std::string(size_t(st.rng.NextBounded(180)), 'x'),
                 SimDuration(st.rng.NextInt(100, 5000)), /*recurrence=*/1},
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
    reuse::ReuseConfig rcfg;
    rcfg.cache = {/*max_bytes=*/4096, 0, /*ttl_us=*/5000, /*cost_aware=*/true};
    st.layer = std::make_unique<reuse::ReuseLayer>(rcfg);
    st.layer->AttachObservability(st.obs.get());
    st.rng = Rng(HashCombine(seed, s));
    for (int c = 0; c < 12; ++c) {
      w.world.shard(s).ScheduleAt(SimTime(c) * 97,
                                  [wp = &w, s] { ReuseHop(wp, s, 14); });
    }
  }
  w.world.Run();

  std::vector<const obs::Registry*> regs;
  std::string counters;
  for (uint32_t s = 0; s < shards; ++s) {
    regs.push_back(&w.state[s].obs->registry);
    const reuse::ReuseLayer::Cache& c = w.state[s].layer->cache();
    counters += "shard " + std::to_string(s) + ": h=" +
                std::to_string(c.hits()) + " m=" + std::to_string(c.misses()) +
                " ev=" + std::to_string(c.evictions()) + " ex=" +
                std::to_string(c.expirations()) + " rj=" +
                std::to_string(c.rejected_admissions()) + "\n";
  }
  return obs::MergeShardExports(regs) + counters;
}

// -------------------------------------------------------------- experiment

void RunExperiment() {
  // Part a: the saturation cells.
  const CellResult exact = RunSaturation(Cell::kExact);
  const CellResult reused = RunSaturation(Cell::kReuse);
  {
    bench::Table table({"cell", "offered", "billed execs", "cache hits",
                        "coalesced", "p99 (ms)", "within 500ms", "makespan (s)",
                        "ok/machine/s", "cost ($)"});
    table.AddRow(CellRow(Cell::kExact, exact));
    table.AddRow(CellRow(Cell::kReuse, reused));
    table.Print(
        "E29a: Zipf stream at 4x fleet capacity, exact vs reuse "
        "(64 keys, theta=1.1, 20 containers) — the cache + singleflight "
        "restore p99 compliance and multiply throughput-per-machine");
  }
  std::printf("\nreuse cell: admitted=%llu rejected=%llu saved_exec=%.1fs "
              "max_hit_staleness=%.2fs (ttl %.0fs)\n",
              (unsigned long long)reused.cache_admitted,
              (unsigned long long)reused.cache_rejected,
              double(reused.saved_exec_us) / kSecond,
              double(reused.max_staleness_us) / kSecond,
              double(kTtlUs) / kSecond);

  // Part b: burn-gated approximation.
  const ApproxResult ap = RunApproximation();
  {
    bench::Table table({"t (ms)", "offered", "approx served", "within budget",
                        "burn @ end"});
    for (size_t b = 0; b < ap.timeline.size(); ++b) {
      const ApproxBucket& tb = ap.timeline[b];
      if (tb.offered == 0) continue;
      table.AddRow({bench::FmtInt(int64_t(b) * 250),
                    bench::FmtInt(int64_t(tb.offered)),
                    bench::FmtInt(int64_t(tb.approx)),
                    bench::FmtInt(int64_t(tb.within)),
                    bench::Fmt("%.1f", tb.burn)});
    }
    table.Print(
        "E29b: degraded mode under burn — the threshold knob goes live at "
        "800ms via ctrl push; approximation serves only while the 1s burn "
        "rate is at/above 3.0, every answer within its exported bound");
  }
  std::printf("\napprox: served=%llu gate_violations=%llu "
              "bound_violations=%llu max_err=%.0f max_bound=%.0f\n",
              (unsigned long long)ap.approx_served,
              (unsigned long long)ap.gate_violations,
              (unsigned long long)ap.bound_violations, ap.max_error,
              ap.max_bound);

  // Part c: psim differential.
  bool psim_same = true;
  for (uint64_t seed = 1; seed <= 2 && psim_same; ++seed) {
    for (uint32_t shards : {1u, 4u}) {
      const std::string serial = RunReuseStorm(seed, shards, /*threads=*/1);
      const std::string parallel = RunReuseStorm(seed, shards, /*threads=*/4);
      const std::string rerun = RunReuseStorm(seed, shards, /*threads=*/4);
      psim_same = psim_same && serial == parallel && serial == rerun;
    }
  }
  {
    bench::Table table({"comparison", "identical"});
    table.AddRow({"1 thread vs 4 threads vs rerun, shards {1,4}, seeds {1,2}",
                  psim_same ? "yes" : "NO"});
    table.Print(
        "E29c: the reuse layer in a sharded psim world — merged exports and "
        "per-shard cache counters byte-identical across worker threads");
  }

  // In-binary acceptance: every E29 claim checked here, mirrored as JSON
  // notes CI greps.
  const bool overloaded_without =
      exact.compliance < 0.5 && exact.p99_us > double(4 * kBudgetUs);
  const bool p99_restored = reused.p99_us <= double(kBudgetUs) &&
                            reused.compliance >= 0.99 &&
                            reused.ok == reused.offered;
  const double tpm_gain =
      exact.ThroughputPerMachine() > 0
          ? reused.ThroughputPerMachine() / exact.ThroughputPerMachine()
          : 0;
  const bool single_billed =
      reused.billed * 20 <= exact.billed &&
      reused.billed + reused.hits + reused.coalesced >= reused.offered;
  const bool fresh = reused.max_staleness_us <= kTtlUs && reused.hits > 0 &&
                     reused.coalesced > 0;
  const bool approx_ok = ap.approx_served > 0 && ap.gate_violations == 0 &&
                         ap.bound_violations == 0 &&
                         ap.approx_before_enable == 0;
  bench::JsonReport::Instance().Note("p99_restored",
                                     p99_restored ? "true" : "false");
  bench::JsonReport::Instance().Note("serial_parallel_identical",
                                     psim_same ? "true" : "false");
  bench::JsonReport::Instance().Note(
      "approx_within_bounds",
      ap.bound_violations == 0 && ap.approx_served > 0 ? "true" : "false");
  const bool pass = overloaded_without && p99_restored && tpm_gain >= 2.0 &&
                    single_billed && fresh && approx_ok && psim_same;
  bench::JsonReport::Instance().Note(
      "acceptance",
      std::string(pass ? "PASS" : "FAIL") +
          bench::Fmt(" exact_p99_ms=%.1f", exact.p99_us / kMillisecond) +
          bench::Fmt(" reuse_p99_ms=%.1f", reused.p99_us / kMillisecond) +
          bench::Fmt(" p99_restored=%.0f", p99_restored ? 1.0 : 0.0) +
          bench::Fmt(" tpm_gain=%.1f", tpm_gain) +
          bench::Fmt(" billed_frac=%.3f",
                     reused.offered
                         ? double(reused.billed) / double(reused.offered)
                         : 1.0) +
          bench::Fmt(" approx_served=%.0f", double(ap.approx_served)) +
          bench::Fmt(" approx_bounds_ok=%.0f",
                     ap.bound_violations == 0 ? 1.0 : 0.0));

  // Determinism: the reuse cell run twice must agree byte-for-byte.
  const CellResult again = RunSaturation(Cell::kReuse);
  const bool same = CellRow(Cell::kReuse, again) ==
                        CellRow(Cell::kReuse, reused) &&
                    again.e2e_fingerprint == reused.e2e_fingerprint;
  bench::JsonReport::Instance().Note("determinism", same ? "yes" : "BROKEN");
}

// --------------------------------------------------------- microbenchmarks

void BM_ReuseKey64KiB(benchmark::State& state) {
  reuse::ReuseLayer layer;
  const uint32_t fn = layer.FunctionId("fn");
  const std::string payload(64 * 1024, 'p');
  for (auto _ : state) {
    benchmark::DoNotOptimize(layer.Key(fn, payload));
  }
}
BENCHMARK(BM_ReuseKey64KiB);

void BM_ResultCacheHit(benchmark::State& state) {
  reuse::ReuseLayer layer;
  reuse::ReuseLayer::Cache cache({size_t(1) << 20, 0, 0, /*cost_aware=*/false});
  std::vector<reuse::ContentKey> keys;
  for (int i = 0; i < 256; ++i) {
    keys.push_back(layer.Key("fn", "p" + std::to_string(i)));
    cache.Put(keys.back(), {Status::OK(), "result", 1000, 1}, 0);
  }
  size_t i = 0;
  for (auto _ : state) {
    i = (i + 1) % keys.size();
    benchmark::DoNotOptimize(cache.Lookup(keys[i], 0));
  }
}
BENCHMARK(BM_ResultCacheHit);

void BM_ResultCacheOfferCostAware(benchmark::State& state) {
  // Steady-state churn through a full cost-aware cache: every Put runs the
  // admission fight against the LRU tail.
  reuse::ReuseLayer layer;
  std::vector<reuse::ContentKey> keys;
  for (int i = 0; i < 4096; ++i) {
    keys.push_back(layer.Key("fn", "p" + std::to_string(i)));
  }
  reuse::ReuseLayer::Cache cache({32 * 1024, 0, 0, /*cost_aware=*/true});
  uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.Put(
        keys[i % keys.size()],
        {Status::OK(), "result-bytes-to-cache",
         SimDuration(1000 + (i % 7) * 500), 1 + (i % 5)},
        SimTime(i)));
    ++i;
  }
}
BENCHMARK(BM_ResultCacheOfferCostAware);

void BM_SingleflightLeadAttach(benchmark::State& state) {
  reuse::ReuseLayer layer;
  const reuse::ContentKey key = layer.Key("fn", "k");
  reuse::Singleflight flights;
  for (auto _ : state) {
    flights.Lead(key, 1);
    for (uint64_t f = 2; f <= 8; ++f) {
      benchmark::DoNotOptimize(flights.Attach(
          key, reuse::Follower{f, [](const reuse::CachedResult&) {}}));
    }
    benchmark::DoNotOptimize(flights.Complete(key));
  }
}
BENCHMARK(BM_SingleflightLeadAttach);

}  // namespace
}  // namespace taureau

TAUREAU_BENCH_MAIN(taureau::RunExperiment)
