// E22: observability at production scale (taureau::obs sampling layer).
//
// E21 retained every span, which is the right debugging posture and the
// wrong production one: span storage grows with traffic, not with incident
// rate. E22 runs the same instrumented shapes through the always-on layer
// (EnableScale: streaming tracer -> SamplingPipeline -> FlameProfile +
// SloEngine) and measures what sampling costs and what it provably keeps:
//
//   - retained-store memory: head-sampling healthy traces at 5% bounds the
//     retained spans/bytes to a small fraction of full retention on the
//     heavy warm shape (the acceptance bound is <= 10%);
//   - incident retention: tail rules keep 100% of error/fault/slow traces
//     at any head rate ("imp kept" == "imp seen" on every row);
//   - exact attribution: the flame aggregates fold every trace *before*
//     the drop decision, so the per-root critical-path breakdown is
//     byte-identical between full retention and 5% sampling;
//   - determinism: two same-seed sampled runs serialize byte-identically.
//
// The SLO section scores the heavy shape against latency/availability
// objectives and prints the burn-rate alert edges; the flame section shows
// the hot paths by self time, computed from aggregates alone.
#include <benchmark/benchmark.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "bench_util.h"
#include "chaos/fault_plan.h"
#include "chaos/injector.h"
#include "chaos/retry_policy.h"
#include "cluster/cluster.h"
#include "common/stats.h"
#include "faas/platform.h"
#include "jiffy/controller.h"
#include "obs/observability.h"
#include "sim/simulation.h"

namespace taureau {
namespace {

constexpr uint64_t kSeed = 22;
constexpr SimDuration kHorizon = 30 * kSecond;
constexpr size_t kMachines = 8;
constexpr double kSampledRate = 0.05;

int HeavyRequests() {
  return std::getenv("TAUREAU_BENCH_SMALL") != nullptr ? 300 : 2000;
}

obs::ScaleConfig MakeScaleConfig(double head_rate) {
  obs::ScaleConfig cfg;
  cfg.sampler.head_rate = head_rate;
  cfg.sampler.seed = 422;  // decision hash seed, decoupled from workloads
  cfg.stream = true;

  obs::SloObjective latency;
  latency.name = "faas-latency";
  latency.module = "faas";
  latency.target = 0.99;
  latency.latency_budget_us = 50 * kMillisecond;
  latency.policies = {{"page", 10 * kSecond, 2 * kSecond, 10.0},
                      {"ticket", 30 * kSecond, 5 * kSecond, 2.0}};
  cfg.objectives.push_back(std::move(latency));

  obs::SloObjective avail;
  avail.name = "faas-avail";
  avail.module = "faas";
  avail.target = 0.999;
  avail.policies = {{"page", 10 * kSecond, 2 * kSecond, 14.4}};
  cfg.objectives.push_back(std::move(avail));
  return cfg;
}

struct CellResult {
  int requests = 0;
  obs::SamplingPipeline::Stats stats;
  size_t retained_spans = 0;
  size_t retained_bytes = 0;
  std::string attribution;  ///< FormatRootAggregates(flame by_root).
  std::string export_all;
  std::string slo_text;
  size_t alert_edges = 0;
  double budget_latency = 1.0;
  std::vector<std::pair<std::string, obs::PathStat>> top_paths;
};

enum class Shape { kColdFaas, kWarmFaasFaulty, kShuffle };

/// One instrumented world at the given head-sampling rate. Full retention
/// is just head_rate=1.0 through the identical pipeline, so the A/B
/// comparison isolates the sampling decision and nothing else.
CellResult RunCell(Shape shape, double head_rate, uint64_t seed,
                   int requests) {
  sim::Simulation sim;
  obs::Observability o(&sim);
  o.EnableScale(MakeScaleConfig(head_rate));

  cluster::Cluster cluster(kMachines, {32000, 65536});
  faas::FaasPlatform* platform = nullptr;
  jiffy::JiffyController* controller = nullptr;
  std::unique_ptr<faas::FaasPlatform> platform_holder;
  std::unique_ptr<jiffy::JiffyController> controller_holder;
  chaos::InjectorRegistry registry(&sim);

  CellResult result;
  result.requests = requests;

  if (shape == Shape::kShuffle) {
    controller_holder =
        std::make_unique<jiffy::JiffyController>(&sim, jiffy::JiffyConfig{});
    controller = controller_holder.get();
    controller->AttachObservability(&o);
    controller->CreateNamespace("/e22", -1);
    jiffy::JiffyHashTable* ht = *controller->CreateHashTable("/e22", "ht", 4);
    jiffy::JiffyQueue* q = *controller->CreateQueue("/e22", "q");
    const std::string value(4096, 'x');
    for (int i = 0; i < requests; ++i) {
      // `value` is copied: this block's locals die before sim.Run() fires
      // the scheduled work.
      sim.ScheduleAt(SimTime(i) * 2 * kMillisecond, [&sim, &o, ht, q, i,
                                                     value] {
        auto root = o.tracer.StartSpan("shuffle-req", "bench", {});
        const std::string key = "k" + std::to_string(i);
        auto put = ht->Put(key, value, root);
        sim.Schedule(put.latency_us, [&sim, &o, ht, q, root, key] {
          auto enq = q->Enqueue(std::string(1024, 'y'), root);
          sim.Schedule(enq.latency_us, [&sim, &o, ht, q, root, key] {
            std::string v;
            auto get = ht->Get(key, &v, root);
            sim.Schedule(get.latency_us, [&sim, &o, q, root] {
              std::string out;
              auto deq = q->Dequeue(&out, root);
              sim.Schedule(deq.latency_us,
                           [&o, root] { o.tracer.EndSpan(root); });
            });
          });
        });
      });
    }
  } else {
    const bool warm = shape == Shape::kWarmFaasFaulty;
    const bool faulty = shape == Shape::kWarmFaasFaulty;
    faas::FaasConfig config;
    config.seed = seed;
    config.keep_alive_us = warm ? 10 * kMinute : 50 * kMillisecond;
    if (faulty) config.retry = chaos::RetryPolicy::ExponentialJitter(4);
    platform_holder =
        std::make_unique<faas::FaasPlatform>(&sim, &cluster, config);
    platform = platform_holder.get();
    platform->AttachObservability(&o);
    if (faulty) {
      cluster.AttachChaos(&registry);
      platform->AttachChaos(&registry);
      registry.AttachObservability(&o);
      chaos::FaultPlanConfig plan_cfg;
      plan_cfg.horizon_us = kHorizon;
      plan_cfg.num_machines = kMachines;
      plan_cfg.container_kill_per_s = 1.0;
      Rng plan_rng(seed + 1);
      registry.Arm(chaos::FaultPlan::Generate(plan_cfg, &plan_rng));
    }
    faas::FunctionSpec spec;
    spec.name = "serve";
    spec.exec = {faas::ExecTimeModel::Kind::kFixed, 15 * kMillisecond, 0, 0};
    spec.init_us = 120 * kMillisecond;
    platform->RegisterFunction(spec);
    if (warm) platform->Prewarm("serve", 8);
    const SimDuration gap = warm ? 5 * kMillisecond : 70 * kMillisecond;
    const SimTime first = warm ? 500 * kMillisecond : 0;
    for (int i = 0; i < requests; ++i) {
      sim.ScheduleAt(first + i * gap, [platform] {
        platform->Invoke("serve", "req",
                         [](const faas::InvocationResult&) {});
      });
    }
  }

  sim.Run();
  o.Flush();

  const obs::SamplingPipeline* p = o.pipeline();
  result.stats = p->stats();
  result.retained_spans = p->retained_span_count();
  result.retained_bytes = p->retained_bytes();
  result.attribution = obs::FormatRootAggregates(o.flame()->by_root());
  result.export_all = o.ExportAll();
  result.slo_text = o.slo()->ExportText();
  result.alert_edges = o.slo()->alerts().size();
  result.budget_latency = o.slo()->BudgetRemaining("faas-latency");
  result.top_paths = o.flame()->TopKBySelf(5);
  return result;
}

void AddShapeRows(bench::Table* table, const char* name, Shape shape,
                  int requests, bool* all_bounds_hold) {
  const CellResult full = RunCell(shape, 1.0, kSeed, requests);
  const CellResult smp = RunCell(shape, kSampledRate, kSeed, requests);
  const CellResult smp2 = RunCell(shape, kSampledRate, kSeed, requests);

  const double span_pct =
      full.retained_spans
          ? 100.0 * double(smp.retained_spans) / double(full.retained_spans)
          : 0.0;
  const double byte_pct =
      full.retained_bytes
          ? 100.0 * double(smp.retained_bytes) / double(full.retained_bytes)
          : 0.0;
  const bool imp_all =
      smp.stats.important_retained == smp.stats.important_seen;
  const bool attrib_same = full.attribution == smp.attribution;
  const bool deterministic = smp.export_all == smp2.export_all;
  // The <=10% memory bound applies where healthy traffic dominates (the
  // heavy warm shape); incident-dominated shapes retain what matters.
  if (shape == Shape::kWarmFaasFaulty) {
    *all_bounds_hold = *all_bounds_hold && span_pct <= 10.0 &&
                       byte_pct <= 10.0 && imp_all && attrib_same &&
                       deterministic;
  }

  table->AddRow({name, bench::FmtInt(requests),
                 bench::FmtInt(int64_t(smp.stats.traces_finalized)),
                 bench::FmtInt(int64_t(smp.stats.spans_seen)),
                 bench::FmtInt(int64_t(full.retained_spans)),
                 bench::FmtInt(int64_t(smp.retained_spans)),
                 bench::Fmt("%.1f", span_pct), bench::Fmt("%.1f", byte_pct),
                 bench::FmtInt(int64_t(smp.stats.important_seen)),
                 bench::FmtInt(int64_t(smp.stats.important_retained)),
                 imp_all ? "yes" : "NO", attrib_same ? "yes" : "NO",
                 deterministic ? "yes" : "NO"});
}

void RunExperiment() {
  const int heavy = HeavyRequests();
  bool bounds_hold = true;

  bench::Table table({"shape", "requests", "traces", "spans", "full_spans",
                      "smp_spans", "span%", "bytes%", "imp_seen", "imp_kept",
                      "imp100%", "attrib=", "determ"});
  AddShapeRows(&table, "cold-heavy", Shape::kColdFaas, 400, &bounds_hold);
  AddShapeRows(&table, "warm-heavy", Shape::kWarmFaasFaulty, heavy,
               &bounds_hold);
  AddShapeRows(&table, "shuffle-heavy", Shape::kShuffle, 400, &bounds_hold);
  table.Print("E22: sampled observability vs full retention (head rate 5%)");
  std::printf(
      "\n'span%%'/'bytes%%' compare the sampled retained store against full\n"
      "retention; 'imp100%%' asserts every error/fault/slow trace survived\n"
      "sampling; 'attrib=' byte-compares the per-root critical-path\n"
      "attribution (flame aggregates) between the two modes; 'determ'\n"
      "byte-compares two same-seed sampled exports.\n");
  std::printf("\nacceptance (warm-heavy: <=10%% memory, 100%% incidents, "
              "exact attribution, deterministic): %s\n",
              bounds_hold ? "PASS" : "FAIL");
  bench::JsonReport::Instance().Note("acceptance",
                                     bounds_hold ? "PASS" : "FAIL");

  // SLO + flame detail from the heavy sampled cell.
  const CellResult heavy_cell =
      RunCell(Shape::kWarmFaasFaulty, kSampledRate, kSeed, heavy);
  bench::Table slo({"objective", "detail"});
  {
    std::string text = heavy_cell.slo_text;
    size_t pos = 0;
    while (pos < text.size()) {
      size_t nl = text.find('\n', pos);
      if (nl == std::string::npos) nl = text.size();
      std::string line = text.substr(pos, nl - pos);
      if (!line.empty()) {
        const size_t sp = line.find(' ');
        slo.AddRow({line.substr(0, sp),
                    sp == std::string::npos ? "" : line.substr(sp + 1)});
      }
      pos = nl + 1;
    }
  }
  slo.Print("E22: SLO objectives + burn-rate alert edges (heavy shape)");
  std::printf("\nalert edges: %zu, latency budget remaining: %.2f\n",
              heavy_cell.alert_edges, heavy_cell.budget_latency);

  bench::Table flame({"path", "count", "total_ms", "self_ms"});
  for (const auto& [path, stat] : heavy_cell.top_paths) {
    flame.AddRow({path, bench::FmtInt(int64_t(stat.count)),
                  bench::Fmt("%.1f", double(stat.total_us) / kMillisecond),
                  bench::Fmt("%.1f", double(stat.self_us) / kMillisecond)});
  }
  flame.Print("E22: hot paths by self time (flame aggregates, heavy shape)");
  std::printf(
      "\nSelf time uses the critical-path partition, so per-trace self\n"
      "times sum exactly to the root's wall time; aggregates fold every\n"
      "trace before the retention decision, so this table is identical at\n"
      "any sampling rate.\n");
}

// ----------------------------------------------------------- microbench

void BM_PipelineIngest(benchmark::State& state) {
  sim::Simulation sim;
  obs::Observability o(&sim);
  obs::ScaleConfig cfg;
  cfg.sampler.head_rate = 0.05;
  o.EnableScale(cfg);
  uint64_t t = 0;
  for (auto _ : state) {
    auto root = o.tracer.StartSpanAt("req", "bench", {}, SimTime(t));
    o.tracer.EmitSpan("exec", "bench", root, SimTime(t), SimTime(t + 10),
                      {{obs::kCategoryAttr, "exec"}});
    o.tracer.EndSpanAt(root, SimTime(t + 10));
    t += 10;
  }
  state.SetItemsProcessed(int64_t(o.tracer.span_count()));
}
BENCHMARK(BM_PipelineIngest);

void BM_FlameFold(benchmark::State& state) {
  const int n = int(state.range(0));
  std::vector<obs::Span> spans(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    obs::Span& s = spans[size_t(i)];
    s.id = uint64_t(i + 1);
    s.parent = i == 0 ? 0 : 1;
    s.trace = 1;
    s.name = i == 0 ? "root" : "child";
    s.module = "bench";
    s.start_us = i == 0 ? 0 : SimTime(i - 1) * 10;
    s.end_us = i == 0 ? SimTime(n - 1) * 10 : SimTime(i) * 10;
    if (i != 0) s.attrs.Set(obs::kCategoryAttr, i % 2 ? "exec" : "queue");
  }
  obs::FlameProfile flame;
  for (auto _ : state) {
    flame.FoldTrace(spans);
    benchmark::DoNotOptimize(flame);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_FlameFold)->Arg(16)->Arg(256);

void BM_SloRecord(benchmark::State& state) {
  obs::SloEngine slo;
  obs::SloObjective objective;
  objective.name = "bench";
  objective.module = "bench";
  objective.target = 0.99;
  objective.latency_budget_us = 100;
  objective.policies = {{"page", 1000000, 100000, 10.0},
                        {"ticket", 10000000, 500000, 2.0}};
  slo.AddObjective(std::move(objective));
  uint64_t t = 0;
  for (auto _ : state) {
    slo.Record("bench", SimTime(t), SimDuration(t % 150), (t % 10) != 0);
    t += 100;
  }
  state.SetItemsProcessed(int64_t(state.iterations()));
}
BENCHMARK(BM_SloRecord);

}  // namespace
}  // namespace taureau

TAUREAU_BENCH_MAIN(taureau::RunExperiment)
