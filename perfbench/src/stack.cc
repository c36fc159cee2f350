// The warm-invoke layer probe behind the stack.* rows: the same steady
// stream on the bare platform, then with one more layer per row, so the
// difference between adjacent rows is that layer's host cost.
#include <limits>
#include <string>
#include <vector>

#include "chaos/fault_plan.h"
#include "chaos/injector.h"
#include "cluster/cluster.h"
#include "common/hash.h"
#include "ctrl/config.h"
#include "faas/platform.h"
#include "guard/guard.h"
#include "obs/observability.h"
#include "reuse/reuse.h"
#include "sim/simulation.h"
#include "span_trace.h"
#include "workloads.h"

namespace perfbench {

using taureau::kMillisecond;
using taureau::SimDuration;
namespace faas = taureau::faas;

namespace {

constexpr SimDuration kGapUs = 100;
constexpr size_t kProbeContainers = 64;

struct Layers {
  const char* name;
  bool obs_retain = false;
  bool obs_scale = false;
  bool guard = false;
  bool reuse = false;
  bool chaos = false;
  bool ctrl = false;
  bool repeat_payload = false;
};

constexpr Layers kRows[] = {
    {"faas"},
    {"obs", true},
    {"obs_scale", false, true},
    {"guard", false, true, true},
    {"reuse_miss", false, true, true, true},
    {"chaos", false, true, true, true, true},
    {"ctrl", false, true, true, true, true, true},
    {"reuse_hit", false, true, true, true, true, true, true},
};

struct Probe {
  int64_t ns = 0;
  uint64_t allocs = 0;
};

Probe RunProbe(const Layers& layers, uint64_t seed, int invokes) {
  taureau::sim::Simulation sim;
  taureau::obs::Observability o11y(&sim);
  if (layers.obs_scale) {
    taureau::obs::ScaleConfig scale;
    scale.sampler.head_rate = 0.05;
    scale.sampler.seed = 422;
    o11y.EnableScale(scale);
  }
  taureau::chaos::InjectorRegistry injectors(&sim);
  taureau::cluster::Cluster cluster(8, {32000, 65536});
  taureau::guard::Guard guard;
  taureau::reuse::ReuseLayer reuse;
  taureau::ctrl::ConfigService svc(&sim);

  faas::FaasConfig config;
  config.seed = taureau::HashCombine(seed, 11);
  config.max_concurrency = kProbeContainers;
  config.enable_admission = layers.guard;
  config.admission.max_queue_depth = 2 * kProbeContainers;
  faas::FaasPlatform platform(&sim, &cluster, config);
  if (layers.obs_retain || layers.obs_scale) {
    platform.AttachObservability(&o11y);
  }
  if (layers.guard) {
    guard.AttachObservability(&o11y);
    platform.AttachGuard(&guard);
  }
  if (layers.reuse) {
    reuse.AttachObservability(&o11y);
    platform.AttachReuse(&reuse);
  }
  if (layers.chaos) {
    cluster.AttachChaos(&injectors);
    platform.AttachChaos(&injectors);
    injectors.AttachObservability(&o11y);
  }
  if (layers.ctrl) {
    svc.AttachObservability(&o11y);
    platform.AttachControl(&svc);
    guard.AttachControl(&svc);
    reuse.AttachControl(&svc);
  }

  faas::FunctionSpec spec;
  spec.name = "probe";
  spec.exec = {faas::ExecTimeModel::Kind::kFixed, 1 * kMillisecond, 0, 0};
  spec.idempotent = true;
  platform.RegisterFunction(spec);
  platform.Prewarm("probe", kProbeContainers);
  // Step until every container is warm; running the queue dry would also
  // fire the keep-alive teardowns.
  while (platform.warm_container_count("probe") < kProbeContainers &&
         sim.Step()) {
  }

  const taureau::SimTime t0 = sim.Now();
  const SimDuration horizon = SimDuration(invokes) * kGapUs;
  if (layers.chaos) {
    taureau::chaos::FaultPlanConfig plan_cfg;
    plan_cfg.horizon_us = horizon;
    plan_cfg.num_machines = 8;
    plan_cfg.container_kill_per_s = 2.0;
    plan_cfg.network_delay_per_s = 0.1;
    taureau::Rng plan_rng(taureau::HashCombine(seed, 12));
    const auto plan = taureau::chaos::FaultPlan::Generate(plan_cfg, &plan_rng);
    taureau::chaos::FaultPlan shifted;
    for (taureau::chaos::FaultEvent e : plan.events()) {
      e.at_us += t0;
      shifted.Add(e);
    }
    injectors.Arm(shifted);
  }
  if (layers.ctrl) {
    sim.ScheduleAt(t0 + horizon / 2, [&svc] {
      svc.Push("faas.keep_alive_us",
               taureau::ctrl::ConfigValue::Int(5 * taureau::kMinute));
    });
  }

  // Open loop: each arrival schedules the next, one pending at a time.
  struct Stream {
    taureau::sim::Simulation& sim;
    faas::FaasPlatform& platform;
    bool repeat;
    int left;
    uint64_t n = 0;
    void Next() {
      if (left-- <= 0) return;
      sim.Schedule(kGapUs, [this] {
        std::string payload = "p";
        if (!repeat) payload += std::to_string(++n);
        platform.Invoke("probe", std::move(payload),
                        [](const faas::InvocationResult&) {});
        Next();
      });
    }
  };
  Stream stream{sim, platform, layers.repeat_payload, invokes};
  stream.Next();

  Probe p;
  const uint64_t a0 = ThreadAllocs();
  const int64_t start = NowNs();
  sim.Run();
  p.ns = NowNs() - start;
  p.allocs = ThreadAllocs() - a0;
  return p;
}

}  // namespace

std::vector<StackRow> MeasureStackRows(uint64_t seed, int invokes,
                                       int repeats) {
  std::vector<StackRow> rows;
  for (const Layers& layers : kRows) {
    int64_t best_ns = std::numeric_limits<int64_t>::max();
    uint64_t allocs = 0;
    for (int r = 0; r < repeats; ++r) {
      const Probe p = RunProbe(layers, seed, invokes);
      if (p.ns < best_ns) {
        best_ns = p.ns;
        allocs = p.allocs;
      }
    }
    rows.push_back({layers.name, double(best_ns) / invokes,
                    double(allocs) / invokes});
  }
  return rows;
}

std::vector<StackRow> UnmeasuredStackRows() {
  std::vector<StackRow> rows;
  for (const Layers& layers : kRows) rows.push_back({layers.name, 0, 0});
  return rows;
}

}  // namespace perfbench
