// E28: the live control plane (taureau::ctrl) — versioned dynamic config,
// SLO-gated canary rollouts, automatic rollback.
//
// Part a is the headline experiment: the classic config-change-induced
// outage, reproduced and then prevented. A fleet of 100 single-server
// machines admits requests against a live "fleet.admission.max_wait_us"
// knob (each machine holds a scoped ctrl Subscription and reads it on
// every arrival). A bad value (1ms, below the 5ms service time) sheds
// everything it touches. Pushed fleet-wide, goodput collapses across all
// 100 machines and stays collapsed. Rolled out through the
// RolloutController (1% -> 10% -> 100%, multi-window SLO burn gating),
// the same bad change is caught at the 1% canary stage: exactly one
// machine ever serves degraded, the controller rolls back automatically,
// and post-rollback goodput is byte-equal to the baseline. A good change
// walks all three stages and promotes to the base config.
//
// Part b: the rollout controller inside a 4-shard psim world — decisions
// and per-shard apply ledgers byte-identical at 1 worker thread and 4.
//
// Part c: self-tuning keep-alive — a closed loop samples the platform's
// cold-start fraction and pushes doubled faas.keep_alive_us values through
// FaasPlatform::AttachControl until cold starts vanish, with no platform
// restart.
//
// Deterministic: the canary cell run twice prints byte-identical rows.
#include <benchmark/benchmark.h>

#include <cstdlib>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "bench_util.h"
#include "cluster/cluster.h"
#include "ctrl/config.h"
#include "ctrl/rollout.h"
#include "faas/platform.h"
#include "obs/observability.h"
#include "obs/slo.h"
#include "psim/psim.h"
#include "sim/simulation.h"

namespace taureau {
namespace {

constexpr uint64_t kSeed = 28;

bool Small() { return std::getenv("TAUREAU_BENCH_SMALL") != nullptr; }

// ------------------------------------------------------------------ part a

constexpr size_t kFleet = 100;
constexpr SimDuration kServiceUs = 5 * kMillisecond;
constexpr SimDuration kArrivalGapUs = 50 * kMillisecond;  ///< Per machine.
constexpr const char* kKnob = "fleet.admission.max_wait_us";
constexpr int64_t kGoodWait = 10 * kSecond;
constexpr int64_t kBadWait = 1 * kMillisecond;  ///< < service time: sheds all.
constexpr int64_t kBetterWait = 20 * kSecond;   ///< The healthy candidate.
constexpr SimTime kChangeAtUs = 2 * kSecond;
constexpr SimTime kPostFromUs = 3 * kSecond;    ///< Post-change window start.

SimDuration HorizonUs() { return Small() ? 6 * kSecond : 8 * kSecond; }

enum class Cell { kBaseline, kFleetWide, kCanaryBad, kCanaryGood };

const char* CellName(Cell c) {
  switch (c) {
    case Cell::kBaseline: return "baseline";
    case Cell::kFleetWide: return "fleet-wide bad push";
    case Cell::kCanaryBad: return "canary bad push";
    case Cell::kCanaryGood: return "canary good push";
  }
  return "?";
}

struct FleetResult {
  uint64_t offered_pre = 0, ok_pre = 0;      ///< [0, change).
  uint64_t offered_change = 0, ok_change = 0;  ///< [change, post).
  uint64_t offered_post = 0, ok_post = 0;    ///< [post, horizon).
  uint64_t sheds = 0;
  size_t machines_impacted = 0;  ///< Machines that shed >= 1 request.
  ctrl::RolloutState rollout_state = ctrl::RolloutState::kIdle;
  int rollback_stage = -1;       ///< Stage of the rollback decision, if any.
  int64_t final_base = 0;        ///< Base knob value at the horizon.
  size_t final_overrides = 0;
  uint64_t config_pushes = 0;
  std::string decision_log;

  double Pre() const { return offered_pre ? double(ok_pre) / double(offered_pre) : 0; }
  double Change() const {
    return offered_change ? double(ok_change) / double(offered_change) : 0;
  }
  double Post() const {
    return offered_post ? double(ok_post) / double(offered_post) : 0;
  }
};

/// One fleet cell: 100 machines admitting against the live knob, an
/// availability SLO scoring every decision, and (in the canary cells) the
/// RolloutController gating the change on multi-window burn.
FleetResult RunFleet(Cell cell) {
  sim::Simulation sim;
  obs::Observability o(&sim);
  ctrl::ConfigService service(&sim, {.push_delay_us = 50 * kMillisecond});
  service.AttachObservability(&o);
  (void)service.EnsureDefined({.key = kKnob,
                               .default_value = ctrl::ConfigValue::Int(kGoodWait),
                               .min_value = 0,
                               .max_value = double(1 * kHour),
                               .description = "fleet admission wait bound"});

  // Availability objective at 0.999: one fully-bad machine of 100 burns at
  // 0.01 / 0.001 = 10x budget — comfortably over the rollout's threshold.
  obs::SloEngine slo;
  obs::SloObjective obj;
  obj.name = "fleet-avail";
  obj.module = "fleet";
  obj.target = 0.999;
  obj.latency_budget_us = -1;
  obj.policies = {{"page", /*long=*/1 * kSecond, /*short=*/250 * kMillisecond,
                   /*burn=*/5.0}};
  slo.AddObjective(std::move(obj));

  struct Machine {
    ctrl::Subscription knob;
    SimTime busy_until = 0;
    bool shed_ever = false;
  };
  std::vector<Machine> fleet(kFleet);
  std::vector<std::string> names;
  for (size_t i = 0; i < kFleet; ++i) {
    names.push_back("m" + std::to_string(i));
    fleet[i].knob = service.Subscribe(kKnob, nullptr, names[i]);
  }

  FleetResult out;
  auto arrive = [&](size_t i, SimTime t) {
    Machine& m = fleet[i];
    // The safe-point read: the live effective value for this machine.
    const int64_t max_wait = m.knob.AsInt();
    const SimTime start = std::max(t, m.busy_until);
    const SimDuration wait = start - t;
    const bool ok = wait + kServiceUs <= max_wait;
    if (ok) {
      m.busy_until = start + kServiceUs;
    } else {
      ++out.sheds;
      m.shed_ever = true;
    }
    slo.Record("fleet", t, wait + kServiceUs, ok);
    if (t < kChangeAtUs) {
      ++out.offered_pre;
      out.ok_pre += ok;
    } else if (t < kPostFromUs) {
      ++out.offered_change;
      out.ok_change += ok;
    } else {
      ++out.offered_post;
      out.ok_post += ok;
    }
  };
  for (size_t i = 0; i < kFleet; ++i) {
    // Phase-spread arrivals: machine i at i*0.5ms + k*50ms.
    const SimTime phase = SimTime(i) * 500;
    for (SimTime t = phase; t < HorizonUs(); t += kArrivalGapUs) {
      sim.ScheduleAt(t, [&arrive, i, t] { arrive(i, t); });
    }
  }

  ctrl::RolloutPolicy policy;
  policy.stage_fractions = {0.01, 0.10, 1.0};
  policy.bake_us = 1 * kSecond;
  policy.check_period_us = 250 * kMillisecond;
  policy.burn_threshold = 5.0;
  policy.seed = kSeed;
  ctrl::RolloutController rc(&sim, &service, policy);
  rc.SetHealthSource(ctrl::HealthFromSlo(&slo, "fleet-avail", 1 * kSecond,
                                         250 * kMillisecond));
  rc.AttachObservability(&o);

  sim.ScheduleAt(kChangeAtUs, [&] {
    switch (cell) {
      case Cell::kBaseline:
        break;
      case Cell::kFleetWide:
        service.Push(kKnob, ctrl::ConfigValue::Int(kBadWait));
        break;
      case Cell::kCanaryBad:
        (void)rc.Begin(kKnob, ctrl::ConfigValue::Int(kBadWait), names);
        break;
      case Cell::kCanaryGood:
        (void)rc.Begin(kKnob, ctrl::ConfigValue::Int(kBetterWait), names);
        break;
    }
  });
  sim.Run();

  for (const Machine& m : fleet) out.machines_impacted += m.shed_ever;
  out.rollout_state = rc.state();
  for (const ctrl::RolloutEvent& e : rc.events()) {
    if (e.kind == ctrl::RolloutEvent::Kind::kRollback) out.rollback_stage = e.stage;
  }
  out.final_base = service.store().Find(kKnob)->value.as_int();
  out.final_overrides = service.OverrideTargets(kKnob).size();
  out.config_pushes = service.stats().pushes;
  out.decision_log = rc.DecisionLog();
  return out;
}

std::vector<std::string> FleetRow(Cell cell, const FleetResult& r) {
  return {CellName(cell),
          bench::Fmt("%.3f", r.Pre()),
          bench::Fmt("%.3f", r.Change()),
          bench::Fmt("%.3f", r.Post()),
          bench::FmtInt(int64_t(r.sheds)),
          bench::FmtInt(int64_t(r.machines_impacted)),
          std::string(ctrl::RolloutStateName(r.rollout_state)),
          bench::FmtInt(r.final_base / kMillisecond),
          bench::FmtInt(int64_t(r.config_pushes))};
}

// ------------------------------------------------------------------ part b

/// The rollout controller inside a sharded psim world: 16 machines homed
/// by ShardForKey across 4 shards report health samples to shard 0 via
/// Post; the controller (on shard 0) stages a bad flag across them with a
/// Post-based StageApplier. Returns the decision log + per-shard apply
/// ledgers — compared byte-for-byte across worker thread counts.
struct ShardedResult {
  std::string decisions;
  std::string ledgers;
  ctrl::RolloutState state = ctrl::RolloutState::kIdle;
};

ShardedResult RunSharded(unsigned threads) {
  constexpr uint32_t kShards = 4;
  constexpr int kMachines = 16;
  psim::PsimConfig cfg;
  cfg.shards = kShards;
  cfg.threads = threads;
  cfg.lookahead_us = 1 * kMillisecond;
  psim::ParallelSimulation world(cfg);

  struct MachineState {
    bool on_candidate = false;
  };
  std::vector<std::map<std::string, MachineState>> machines(kShards);
  std::vector<std::string> ledgers(kShards);
  std::vector<std::string> names;
  for (int i = 0; i < kMachines; ++i) {
    const std::string name = "n" + std::to_string(i);
    names.push_back(name);
    machines[psim::ShardForKey(name, kShards)][name] = MachineState{};
  }

  uint64_t good = 0, bad = 0;
  for (uint32_t s = 0; s < kShards; ++s) {
    for (auto& [name, state] : machines[s]) {
      MachineState* st = &state;
      auto report = [&world, s, &good, &bad, st](auto&& self) -> void {
        if (world.shard(s).Now() >= 20 * kSecond) return;
        const bool is_bad = st->on_candidate;
        world.Post(s, 0, 1 * kMillisecond, [&good, &bad, is_bad] {
          is_bad ? ++bad : ++good;
        });
        world.shard(s).Schedule(10 * kMillisecond,
                                [self]() mutable { self(self); });
      };
      world.shard(s).Schedule(10 * kMillisecond,
                              [report]() mutable { report(report); });
    }
  }

  ctrl::RolloutPolicy policy;
  policy.stage_fractions = {0.1, 0.5, 1.0};
  policy.bake_us = 2 * kSecond;
  policy.check_period_us = 250 * kMillisecond;
  policy.burn_threshold = 5.0;
  policy.seed = kSeed;
  ctrl::RolloutController rc(&world.shard(0), nullptr, policy);
  rc.SetHealthSource([&good, &bad](SimTime) {
    const double total = double(good + bad);
    const double frac = total > 0 ? double(bad) / total : 0.0;
    return ctrl::BurnSample{50.0 * frac, 50.0 * frac};
  });
  rc.SetStageApplier([&world, &machines, &ledgers](
                         const std::vector<std::string>& targets, bool apply) {
    for (const std::string& t : targets) {
      const uint32_t dst = psim::ShardForKey(t, kShards);
      std::string* ledger = &ledgers[dst];
      MachineState* st = &machines[dst][t];
      world.Post(0, dst, 1 * kMillisecond, [&world, dst, st, t, apply, ledger] {
        st->on_candidate = apply;
        *ledger += std::to_string(world.shard(dst).Now()) + " " +
                   (apply ? "apply " : "retract ") + t + "\n";
      });
    }
  });
  rc.SetFinalizer([] {});
  (void)rc.Begin("flag", ctrl::ConfigValue::Int(1), names);
  world.Run();

  ShardedResult out;
  out.decisions = rc.DecisionLog();
  for (uint32_t s = 0; s < kShards; ++s) {
    out.ledgers += "== shard " + std::to_string(s) + " ==\n" + ledgers[s];
  }
  out.state = rc.state();
  return out;
}

// ------------------------------------------------------------------ part c

/// Closed-loop keep-alive tuning: arrivals every 200ms against a platform
/// whose keep-alive starts at 50ms (every start cold). A tuner samples the
/// cold-start fraction once a second and doubles faas.keep_alive_us
/// through the live config service until cold starts stop.
struct TuneStep {
  SimTime at_us;
  int64_t keep_alive_us;
  double cold_frac;  ///< Over the window ending here.
};

std::vector<TuneStep> RunKeepAliveTuner() {
  sim::Simulation sim;
  ctrl::ConfigService service(&sim);
  cluster::Cluster cluster(4, {32000, 65536});
  faas::FaasConfig config;
  config.seed = kSeed;
  config.keep_alive_us = 50 * kMillisecond;
  faas::FaasPlatform platform(&sim, &cluster, config);
  platform.AttachControl(&service);

  faas::FunctionSpec spec;
  spec.name = "fn";
  spec.exec = {faas::ExecTimeModel::Kind::kFixed, 5 * kMillisecond, 0.0, 0.0};
  spec.init_us = 50 * kMillisecond;
  platform.RegisterFunction(spec);

  const SimDuration horizon = Small() ? 5 * kSecond : 10 * kSecond;
  uint64_t invocations = 0, cold = 0;
  for (SimTime t = 0; t < horizon; t += 200 * kMillisecond) {
    sim.ScheduleAt(t, [&] {
      platform.Invoke("fn", "x", [&](const faas::InvocationResult& r) {
        if (!r.status.ok()) return;
        ++invocations;
        cold += r.cold_start;
      });
    });
  }

  std::vector<TuneStep> steps;
  int64_t keep_alive = config.keep_alive_us;
  uint64_t last_inv = 0, last_cold = 0;
  auto tick = [&](auto&& self) -> void {
    const uint64_t dinv = invocations - last_inv;
    const uint64_t dcold = cold - last_cold;
    last_inv = invocations;
    last_cold = cold;
    const double frac = dinv ? double(dcold) / double(dinv) : 0.0;
    steps.push_back({sim.Now(), keep_alive, frac});
    if (frac > 0.05) {
      keep_alive *= 2;
      service.Push("faas.keep_alive_us", ctrl::ConfigValue::Int(keep_alive));
    }
    if (sim.Now() + 1 * kSecond < horizon) {
      sim.Schedule(1 * kSecond, [self]() mutable { self(self); });
    }
  };
  sim.ScheduleAt(1 * kSecond, [tick]() mutable { tick(tick); });
  sim.Run();
  return steps;
}

// -------------------------------------------------------------- experiment

void RunExperiment() {
  // Part a: the fleet cells.
  const FleetResult base = RunFleet(Cell::kBaseline);
  const FleetResult wide = RunFleet(Cell::kFleetWide);
  const FleetResult canary_bad = RunFleet(Cell::kCanaryBad);
  const FleetResult canary_good = RunFleet(Cell::kCanaryGood);
  {
    bench::Table table({"cell", "pre goodput", "change goodput",
                        "post goodput", "sheds", "machines impacted",
                        "rollout", "final base (ms)", "pushes"});
    table.AddRow(FleetRow(Cell::kBaseline, base));
    table.AddRow(FleetRow(Cell::kFleetWide, wide));
    table.AddRow(FleetRow(Cell::kCanaryBad, canary_bad));
    table.AddRow(FleetRow(Cell::kCanaryGood, canary_good));
    table.Print(
        "E28a: a bad admission-threshold change, fleet-wide vs canaried "
        "(100 machines, availability SLO at 0.999) — the canary catches it "
        "at 1% coverage and auto-rolls back; the good change promotes");
  }
  std::printf("\ncanary-bad rollout decisions:\n%s",
              canary_bad.decision_log.c_str());

  // Part b: psim differential.
  const ShardedResult serial = RunSharded(1);
  const ShardedResult parallel = RunSharded(4);
  const bool psim_same = serial.decisions == parallel.decisions &&
                         serial.ledgers == parallel.ledgers &&
                         serial.state == parallel.state;
  {
    bench::Table table({"threads", "rollout", "decisions (bytes)",
                        "ledgers (bytes)", "identical"});
    table.AddRow({"1", std::string(ctrl::RolloutStateName(serial.state)),
                  bench::FmtInt(int64_t(serial.decisions.size())),
                  bench::FmtInt(int64_t(serial.ledgers.size())), "-"});
    table.AddRow({"4", std::string(ctrl::RolloutStateName(parallel.state)),
                  bench::FmtInt(int64_t(parallel.decisions.size())),
                  bench::FmtInt(int64_t(parallel.ledgers.size())),
                  psim_same ? "yes" : "NO"});
    table.Print(
        "E28b: rollout controller in a 4-shard psim world — decisions and "
        "per-shard apply ledgers byte-identical across worker threads");
  }

  // Part c: keep-alive tuner.
  const std::vector<TuneStep> steps = RunKeepAliveTuner();
  {
    bench::Table table({"t (s)", "keep-alive (ms)", "cold-start frac"});
    for (const TuneStep& s : steps) {
      table.AddRow({bench::Fmt("%.0f", double(s.at_us) / kSecond),
                    bench::FmtInt(s.keep_alive_us / kMillisecond),
                    bench::Fmt("%.2f", s.cold_frac)});
    }
    table.Print(
        "E28c: self-tuning keep-alive — a closed loop doubles "
        "faas.keep_alive_us through the live config service until cold "
        "starts vanish (no platform restart)");
  }
  const bool tuned = steps.size() >= 3 && steps.front().cold_frac > 0.5 &&
                     steps.back().cold_frac <= 0.05 &&
                     steps.back().keep_alive_us > steps.front().keep_alive_us;

  // In-binary acceptance: every E28 claim checked here, mirrored as JSON
  // notes CI greps.
  const bool collapse = wide.Post() < 0.1 && wide.machines_impacted == kFleet;
  const bool caught = canary_bad.rollout_state == ctrl::RolloutState::kRolledBack &&
                      canary_bad.rollback_stage == 0;
  const bool blast = canary_bad.machines_impacted <= kFleet / 100;
  const bool restored = canary_bad.Post() >= base.Post() - 1e-9 &&
                        canary_bad.final_base == kGoodWait &&
                        canary_bad.final_overrides == 0;
  const bool promoted = canary_good.rollout_state == ctrl::RolloutState::kCompleted &&
                        canary_good.final_base == kBetterWait &&
                        canary_good.Post() >= 0.999;
  bench::JsonReport::Instance().Note("canary_caught_at_stage",
                                     caught ? "0" : "MISSED");
  bench::JsonReport::Instance().Note("rollback_restored_goodput",
                                     restored ? "true" : "false");
  bench::JsonReport::Instance().Note("serial_parallel_identical",
                                     psim_same ? "true" : "false");
  const bool pass = collapse && caught && blast && restored && promoted &&
                    psim_same && tuned;
  bench::JsonReport::Instance().Note(
      "acceptance",
      std::string(pass ? "PASS" : "FAIL") +
          bench::Fmt(" fleetwide_post=%.3f", wide.Post()) +
          bench::Fmt(" canary_post=%.3f", canary_bad.Post()) +
          bench::Fmt(" baseline_post=%.3f", base.Post()) +
          bench::Fmt(" blast_machines=%.0f",
                     double(canary_bad.machines_impacted)) +
          bench::Fmt(" good_promoted=%.0f", promoted ? 1.0 : 0.0) +
          bench::Fmt(" keepalive_tuned=%.0f", tuned ? 1.0 : 0.0));

  // Determinism: the canary cell run twice must agree byte-for-byte.
  const FleetResult again = RunFleet(Cell::kCanaryBad);
  const bool same = FleetRow(Cell::kCanaryBad, again) ==
                        FleetRow(Cell::kCanaryBad, canary_bad) &&
                    again.decision_log == canary_bad.decision_log;
  bench::JsonReport::Instance().Note("determinism", same ? "yes" : "BROKEN");
}

// --------------------------------------------------------- microbenchmarks

void BM_SubscriptionRead(benchmark::State& state) {
  sim::Simulation sim;
  ctrl::ConfigService service(&sim);
  (void)service.EnsureDefined(
      {.key = "k",
       .default_value = ctrl::ConfigValue::Int(7),
       .description = "bench knob"});
  ctrl::Subscription sub = service.Subscribe("k");
  for (auto _ : state) {
    benchmark::DoNotOptimize(sub.AsInt());
  }
}
BENCHMARK(BM_SubscriptionRead);

void BM_ConfigPushApply(benchmark::State& state) {
  sim::Simulation sim;
  ctrl::ConfigService service(&sim);
  (void)service.EnsureDefined(
      {.key = "k",
       .default_value = ctrl::ConfigValue::Int(0),
       .description = "bench knob"});
  int64_t v = 0;
  for (auto _ : state) {
    service.Push("k", ctrl::ConfigValue::Int(++v));
    sim.Run();
    benchmark::DoNotOptimize(service.store().Find("k")->version);
  }
}
BENCHMARK(BM_ConfigPushApply);

void BM_ScopedValueResolve(benchmark::State& state) {
  sim::Simulation sim;
  ctrl::ConfigService service(&sim);
  (void)service.EnsureDefined(
      {.key = "k",
       .default_value = ctrl::ConfigValue::Int(0),
       .description = "bench knob"});
  std::vector<std::string> targets;
  for (int i = 0; i < 64; ++i) targets.push_back("m" + std::to_string(i));
  service.PushScoped("k", targets, ctrl::ConfigValue::Int(1));
  sim.Run();
  size_t i = 0;
  for (auto _ : state) {
    i = (i + 1) % targets.size();
    benchmark::DoNotOptimize(service.ValueFor("k", targets[i]));
  }
}
BENCHMARK(BM_ScopedValueResolve);

}  // namespace
}  // namespace taureau

TAUREAU_BENCH_MAIN(taureau::RunExperiment)
