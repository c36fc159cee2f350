#include "workloads.h"

#include <algorithm>
#include <cstdio>

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

namespace perfbench {

using taureau::kMillisecond;
using taureau::kSecond;
using taureau::SimDuration;
using taureau::SimTime;
namespace faas = taureau::faas;
namespace obs = taureau::obs;

namespace {

/// E23's client deadline, carried by every attempt.
constexpr SimDuration kPatienceUs = 100 * kMillisecond;
/// Retry steps (resubmits plus budget denials) before a request gives up:
/// with backoff capped at 250 ms, about 20 s of simulated waiting.
constexpr uint32_t kMaxRetrySteps = 96;
constexpr SimDuration kBackoffBaseUs = 4 * kMillisecond;
constexpr SimDuration kBackoffCapUs = 250 * kMillisecond;
/// Result-cache entry lifetime: hot keys are refreshed continually.
constexpr SimDuration kCacheTtlUs = 1 * kSecond;

// Arrivals run on well past the burst: after it, resubmits wait on E23's
// retry budget, which refills by a tenth of a token per executed success,
// and only new arrivals execute enough to drain that backlog.
constexpr InvokeShape kOverload{
    .name = "overload",
    .burst_start_us = 2 * kSecond,
    .burst_us = 250 * kMillisecond,
    .horizon_us = 14 * kSecond,
    .base_load = 0.5,
    .burst_load = 3.0,
    .zipf_keys = 0,
    .zipf_theta = 0,
};

constexpr InvokeShape kReuseZipf{
    .name = "reuse_zipf",
    .burst_start_us = 0,
    .burst_us = 2 * kSecond,
    .horizon_us = 2 * kSecond,
    .base_load = 4.0,
    .burst_load = 4.0,
    .zipf_keys = 64,
    .zipf_theta = 1.1,
};

constexpr InvokeShape Shrink(const InvokeShape& s, const char* name) {
  InvokeShape t = s;
  t.name = name;
  t.burst_start_us /= 20;
  t.burst_us /= 20;
  t.horizon_us /= 20;
  return t;
}
constexpr InvokeShape kOverloadTiny = Shrink(kOverload, "overload.tiny");
constexpr InvokeShape kReuseZipfTiny = Shrink(kReuseZipf, "reuse_zipf.tiny");

/// `prefix` followed by `n` in decimal.
std::string Tagged(char prefix, uint64_t n) {
  std::string s(1, prefix);
  s += std::to_string(n);
  return s;
}
std::string FunctionName(uint32_t f) { return Tagged('f', f); }
std::string TenantName(uint32_t f) {
  return Tagged('t', f / (kFunctions / kTenants));
}

std::string Hex64(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", (unsigned long long)v);
  return buf;
}

/// Forwards every span to the sampling pipeline and times the call; the
/// obs layer's host cost measured from outside.
class TimingSink : public obs::SpanSink {
 public:
  TimingSink(obs::SpanSink* next, SpanTrace* trace)
      : next_(next), trace_(trace) {}

  void OnSpanStart(const obs::Span& span) override {
    if (span.parent == 0) {
      if (span.trace >= request_of_trace_.size()) {
        request_of_trace_.resize(span.trace + 4096, 0);
      }
      request_of_trace_[span.trace] = trace_->current_request();
    }
    const int64_t t0 = NowNs();
    const uint64_t a0 = ThreadAllocs();
    next_->OnSpanStart(span);
    trace_->AddSinkCall(RequestOf(span), NowNs() - t0, ThreadAllocs() - a0);
  }

  void OnSpanEnd(const obs::Span& span) override {
    const int64_t t0 = NowNs();
    const uint64_t a0 = ThreadAllocs();
    next_->OnSpanEnd(span);
    trace_->AddSinkCall(RequestOf(span), NowNs() - t0, ThreadAllocs() - a0);
  }

 private:
  uint64_t RequestOf(const obs::Span& span) const {
    return span.trace < request_of_trace_.size()
               ? request_of_trace_[span.trace]
               : 0;
  }

  obs::SpanSink* next_;
  SpanTrace* trace_;
  std::vector<uint64_t> request_of_trace_;
};

}  // namespace

double FleetCapacityPerSec() {
  return double(kFunctions * kContainersPerFunction) * double(kSecond) /
         double(kExecUs);
}

const InvokeShape& OverloadShape() { return kOverload; }
const InvokeShape& ReuseZipfShape() { return kReuseZipf; }
const InvokeShape& TinyShape(const InvokeShape& full) {
  return full.zipf_keys > 0 ? kReuseZipfTiny : kOverloadTiny;
}

// ------------------------------------------------------------ generator

InvokeArrivals::InvokeArrivals(const InvokeShape& shape, uint64_t seed)
    : shape_(shape), rng_(taureau::HashCombine(seed, 2)) {
  if (shape.zipf_keys > 0) {
    zipf_ = std::make_unique<taureau::ZipfGenerator>(shape.zipf_keys,
                                                     shape.zipf_theta);
  }
}

bool InvokeArrivals::Next(Arrival* out) {
  const bool in_burst = now_ >= shape_.burst_start_us &&
                        now_ < shape_.burst_start_us + shape_.burst_us;
  const double load = in_burst ? shape_.burst_load : shape_.base_load;
  const double rate_per_us = FleetCapacityPerSec() * load / 1e6;
  now_ += std::max<SimDuration>(
      1, SimDuration(rng_.NextExponential(rate_per_us)));
  if (now_ >= shape_.horizon_us) return false;
  out->at_us = now_;
  out->function = uint32_t(rng_.NextBounded(kFunctions));
  out->key = zipf_ ? zipf_->Next(&rng_) : ++count_;
  return true;
}

uint64_t InvokeWorld::MaxRequests(const InvokeShape& shape) {
  const double burst_s = double(shape.burst_us) / kSecond;
  const double rest_s = double(shape.horizon_us) / kSecond - burst_s;
  const double expected = FleetCapacityPerSec() *
                          (shape.burst_load * burst_s + shape.base_load * rest_s);
  return uint64_t(expected * 1.25) + 1024;
}

// ---------------------------------------------------------------- world

struct InvokeWorld::Impl {
  struct Request {
    SimTime submit_us = 0;  ///< First submission.
    uint32_t function = 0;
    uint32_t retry_steps = 0;
    uint32_t terminals = 0;
    uint64_t key = 0;
  };

  Impl(const InvokeShape& s, uint64_t seed, InvokeOptions o)
      : shape(s),
        options(o),
        trace(o.trace),
        cluster(8, {32000, 65536}),
        guard(GuardConfigFor()),
        reuse(ReuseConfigFor()),
        svc(&sim),
        arrivals(s, seed),
        client_rng(taureau::HashCombine(seed, 3)) {
    // obs first: stream mode must be chosen before any span exists.
    obs::ScaleConfig scale;
    scale.sampler.head_rate = 0.05;
    scale.sampler.seed = 422;
    // Bounded so that retained memory does not depend on how many traces a
    // seed's burst turns into errors.
    scale.sampler.max_retained_spans = size_t(1) << 14;
    scale.stream = true;
    obs::SloObjective latency;
    latency.name = "faas-latency";
    latency.module = "faas";
    latency.target = 0.99;
    latency.latency_budget_us = 50 * kMillisecond;
    latency.policies = {{"page", 1 * kSecond, 100 * kMillisecond, 10.0}};
    scale.objectives.push_back(std::move(latency));
    o11y.EnableScale(scale);
    if (trace != nullptr) {
      timing_sink = std::make_unique<TimingSink>(o11y.pipeline(), trace);
      o11y.tracer.SetSink(timing_sink.get());
    }

    // E23's guarded platform, scaled from 8 slots to the 64-container fleet.
    faas::FaasConfig config;
    config.seed = taureau::HashCombine(seed, 1);
    config.max_concurrency = kFunctions * kContainersPerFunction;
    config.dispatch_median_us = 500;
    config.dispatch_sigma = 0.1;
    config.enable_admission = true;
    config.admission.max_queue_depth = 2 * config.max_concurrency;
    config.admission.expected_service_us = kExecUs;
    platform = std::make_unique<faas::FaasPlatform>(&sim, &cluster, config);
    platform->AttachObservability(&o11y);
    guard.AttachObservability(&o11y);
    platform->AttachGuard(&guard);
    reuse.AttachObservability(&o11y);
    platform->AttachReuse(&reuse);
    cluster.AttachChaos(&injectors);
    platform->AttachChaos(&injectors);
    injectors.AttachObservability(&o11y);
    svc.AttachObservability(&o11y);
    platform->AttachControl(&svc);
    guard.AttachControl(&svc);
    reuse.AttachControl(&svc);

    for (uint32_t f = 0; f < kFunctions; ++f) {
      faas::FunctionSpec spec;
      spec.name = FunctionName(f);
      spec.tenant = TenantName(f);
      spec.exec = {faas::ExecTimeModel::Kind::kFixed, kExecUs, 0.0, 0.0};
      spec.init_us = 1 * kMillisecond;
      spec.idempotent = true;
      spec.handler = [this](const std::string& payload,
                            faas::InvocationContext& ctx) {
        ScopedSpan span(trace, SpanKind::kHandler,
                        RequestOfInvocation(ctx.invocation_id));
        return taureau::Result<std::string>("r:" +
                                            Hex64(taureau::Fnv1a64(payload)));
      };
      platform->RegisterFunction(std::move(spec));
      fn_names.push_back(FunctionName(f));
    }
    for (uint32_t f = 0; f < kFunctions; ++f) {
      platform->Prewarm(fn_names[f], kContainersPerFunction);
    }
    // Prewarm drain: step until every container is parked warm. (Running
    // the queue dry would also fire the keep-alive teardowns.)
    while (WarmContainers() < kFunctions * kContainersPerFunction &&
           sim.Step()) {
    }

    if (shape.zipf_keys > 0) WarmCache();
    // Only the timed phase is traced.
    if (trace != nullptr) trace->Clear();

    // The workload's time origin.
    t0 = sim.Now();
    events_before = sim.events_fired();
    setup_cost = platform->ledger().Total();
    // E23's fault plan: E20's container kills and dispatch-delay spikes at
    // half E20's base rates.
    taureau::chaos::FaultPlanConfig plan_cfg;
    plan_cfg.horizon_us = shape.horizon_us;
    plan_cfg.num_machines = 8;
    plan_cfg.container_kill_per_s = 1.0;
    plan_cfg.network_delay_per_s = 0.05;
    taureau::Rng plan_rng(taureau::HashCombine(seed, 4));
    const auto plan = taureau::chaos::FaultPlan::Generate(plan_cfg, &plan_rng);
    taureau::chaos::FaultPlan shifted;
    for (taureau::chaos::FaultEvent e : plan.events()) {
      e.at_us += t0;
      shifted.Add(e);
    }
    injectors.Arm(shifted);
    using taureau::ctrl::ConfigValue;
    sim.ScheduleAt(t0 + shape.horizon_us / 4, [this] {
      svc.Push("faas.keep_alive_us", ConfigValue::Int(5 * taureau::kMinute));
    });
    sim.ScheduleAt(t0 + shape.horizon_us / 2, [this] {
      svc.Push("guard.hedge.delay_quantile", ConfigValue::Double(0.9));
    });
    sim.ScheduleAt(t0 + 3 * shape.horizon_us / 4, [this] {
      svc.Push("faas.keep_alive_us", ConfigValue::Int(10 * taureau::kMinute));
    });
    requests.reserve(MaxRequests(shape));
    ScheduleArrival();
  }

  /// E23's retry budget.
  static taureau::guard::GuardConfig GuardConfigFor() {
    taureau::guard::GuardConfig g;
    g.retry_budget.refill_ratio = 0.1;
    g.retry_budget.initial_tokens = 10;
    g.retry_budget.max_tokens = 50;
    return g;
  }

  /// E29a's 1 MB cost-aware cache, with entries that expire.
  static taureau::reuse::ReuseConfig ReuseConfigFor() {
    taureau::reuse::ReuseConfig r;
    r.cache = {/*max_bytes=*/size_t(1) << 20, /*max_entries=*/0,
               /*ttl_us=*/kCacheTtlUs, /*cost_aware=*/true};
    return r;
  }

  /// Executes every key once, staggered over one cache TTL, so the timed
  /// phase starts in steady state: a warm cache whose entries expire (and
  /// are refreshed by the next request) evenly over time, rather than one
  /// cold wave of every key at once.
  void WarmCache() {
    const uint64_t keys = kFunctions * shape.zipf_keys;
    const SimTime start = sim.Now();
    uint64_t done = 0;
    for (uint64_t i = 0; i < keys; ++i) {
      const uint32_t f = uint32_t(i % kFunctions);
      const uint64_t key = i / kFunctions;
      sim.ScheduleAt(start + SimDuration(i) * kCacheTtlUs / SimDuration(keys),
                     [this, f, key, &done] {
                       platform->Invoke(fn_names[f], Tagged('k', key),
                                        [&done](const faas::InvocationResult&) {
                                          ++done;
                                        });
                     });
    }
    while (done < keys && sim.Step()) {
    }
  }

  size_t WarmContainers() const {
    size_t warm = 0;
    for (const std::string& f : fn_names) {
      warm += platform->warm_container_count(f);
    }
    return warm;
  }

  uint64_t RequestOfInvocation(uint64_t inv) const {
    return inv < request_of_inv.size() ? request_of_inv[inv] : 0;
  }

  void ScheduleArrival() {
    Arrival a;
    if (!arrivals.Next(&a)) return;
    sim.ScheduleAt(t0 + a.at_us, [this, a] {
      const uint64_t id = requests.size() + 1;
      ScopedSpan span(trace, SpanKind::kArrival, id);
      requests.push_back({sim.Now(), a.function, 0, 0, a.key});
      Submit(id);
      ScheduleArrival();
    });
  }

  void Submit(uint64_t id) {
    const Request& r = requests[id - 1];
    std::string payload = Tagged(shape.zipf_keys > 0 ? 'k' : 'o', r.key);
    auto cb = [this, id](const faas::InvocationResult& res) {
      OnResult(id, res);
      if (id == options.double_fire_request) OnResult(id, res);
    };
    taureau::Result<uint64_t> inv = taureau::Status::Internal("not invoked");
    {
      ScopedSpan span(trace, SpanKind::kInvoke, id);
      if (trace != nullptr) trace->set_current_request(id);
      inv = platform->Invoke(fn_names[r.function], std::move(payload),
                             std::move(cb), {},
                             taureau::guard::Deadline::In(sim.Now(),
                                                          kPatienceUs));
      if (trace != nullptr) trace->set_current_request(0);
    }
    if (!inv.ok()) {
      violations.push_back("invoke refused: " + inv.status().ToString());
      Terminal(id, nullptr);
      return;
    }
    if (*inv >= request_of_inv.size()) {
      request_of_inv.resize(*inv + 4096, 0);
      callbacks_of_inv.resize(*inv + 4096, 0);
    }
    request_of_inv[*inv] = id;
    max_inv = std::max(max_inv, *inv);
  }

  void OnResult(uint64_t id, const faas::InvocationResult& res) {
    ScopedSpan span(trace, SpanKind::kCallback, id);
    if (res.id < callbacks_of_inv.size()) ++callbacks_of_inv[res.id];
    if (res.status.ok()) {
      Terminal(id, &res);
    } else {
      Retry(id);
    }
  }

  /// Like E23's guarded client, a failed attempt is resubmitted only when
  /// the shared retry budget grants a token. Unlike it, the client does not
  /// give up on a denial: it waits out a jittered exponential backoff and
  /// asks again, so that no offered request fails.
  void Retry(uint64_t id) {
    Request& r = requests[id - 1];
    if (++r.retry_steps > kMaxRetrySteps) {
      Terminal(id, nullptr);
      return;
    }
    const bool granted = guard.retry_budget().TryAcquire();
    const SimDuration backoff = std::min(
        kBackoffCapUs,
        kBackoffBaseUs << std::min<uint32_t>(r.retry_steps - 1, 16));
    const SimDuration delay =
        SimDuration(double(backoff) * client_rng.NextDouble(0.5, 1.0));
    sim.Schedule(delay, [this, id, granted] {
      ScopedSpan span(trace, SpanKind::kArrival, id);
      if (granted) {
        Submit(id);
      } else {
        Retry(id);
      }
    });
  }

  /// The request's terminal state: `res` is its OK result, or null when it
  /// gave up.
  void Terminal(uint64_t id, const faas::InvocationResult* res) {
    Request& r = requests[id - 1];
    ++r.terminals;
    results.Mix(id);
    results.Mix(uint64_t(sim.Now()));
    if (res == nullptr) {
      results.Mix(0);
      return;
    }
    ok_latency.Add(sim.Now() - r.submit_us);
    results.Mix(uint64_t(res->attempts));
    results.Mix(uint64_t(res->served_via));
    results.Mix(taureau::Fnv1a64(res->output));
  }

  const InvokeShape& shape;
  const InvokeOptions options;
  SpanTrace* const trace;

  taureau::sim::Simulation sim;
  obs::Observability o11y{&sim};
  std::unique_ptr<TimingSink> timing_sink;
  taureau::chaos::InjectorRegistry injectors{&sim};
  taureau::cluster::Cluster cluster;
  taureau::guard::Guard guard;
  taureau::reuse::ReuseLayer reuse;
  taureau::ctrl::ConfigService svc;
  // Declared after everything it points at, so it is destroyed first.
  std::unique_ptr<faas::FaasPlatform> platform;

  InvokeArrivals arrivals;
  taureau::Rng client_rng;
  std::vector<std::string> fn_names;
  std::vector<Request> requests;
  std::vector<uint64_t> request_of_inv;
  std::vector<uint32_t> callbacks_of_inv;
  uint64_t max_inv = 0;
  SimTime t0 = 0;
  uint64_t events_before = 0;
  taureau::Money setup_cost;
  Digest results;
  LatencyCounts ok_latency;
  std::string exported;
  std::vector<std::string> violations;
};

InvokeWorld::InvokeWorld(const InvokeShape& shape, uint64_t seed,
                         InvokeOptions options)
    : impl_(std::make_unique<Impl>(shape, seed, options)) {}

InvokeWorld::~InvokeWorld() = default;

void InvokeWorld::Run() {
  Impl& w = *impl_;
  {
    ScopedSpan span(w.trace, SpanKind::kRun, 0);
    w.sim.Run();
  }
  ScopedSpan span(w.trace, SpanKind::kExport, 0);
  w.o11y.Flush();
  w.exported = w.o11y.ExportAll();
}

Outcome InvokeWorld::Finish() {
  Impl& w = *impl_;
  Outcome out;
  out.violations = w.violations;
  out.offered = w.requests.size();
  out.events = w.sim.events_fired() - w.events_before;
  if (w.sim.pending_events() != 0) {
    out.violations.push_back("world did not drain: " +
                             std::to_string(w.sim.pending_events()) +
                             " pending events");
  }
  uint64_t bad_invocations = 0;
  for (uint64_t inv = 1; inv <= w.max_inv; ++inv) {
    bad_invocations +=
        w.request_of_inv[inv] != 0 && w.callbacks_of_inv[inv] != 1;
  }
  if (bad_invocations > 0) {
    out.violations.push_back(std::to_string(bad_invocations) +
                             " invocations without exactly one callback");
  }
  uint64_t bad_requests = 0;
  for (const Impl::Request& r : w.requests) {
    bad_requests += r.terminals != 1;
    out.terminal += r.terminals > 0;
  }
  if (bad_requests > 0) {
    out.violations.push_back(std::to_string(bad_requests) +
                             " requests without exactly one terminal state");
  }
  out.ok = w.ok_latency.count();
  out.ok_latency_us = w.ok_latency;
  const faas::BillingLedger& ledger = w.platform->ledger();
  out.cost_usd = (ledger.Total() - w.setup_cost).dollars();
  Digest d;
  d.Mix(w.results.value());
  d.Mix(ledger.record_count());
  d.Mix(uint64_t(ledger.Total().nano_dollars()));
  d.Mix(taureau::Fnv1a64(w.exported));
  out.digest = d.value();
  return out;
}

InvokeLayerStats InvokeWorld::LayerStats() {
  Impl& w = *impl_;
  InvokeLayerStats s;
  const faas::PlatformMetrics& m = w.platform->metrics();
  s.attempts = m.cold_starts + m.warm_starts;
  s.cold_starts = m.cold_starts;
  s.spans_emitted = w.o11y.tracer.span_count();
  const obs::SamplingPipeline* p = w.o11y.pipeline();
  s.traces_finalized = p->stats().traces_finalized;
  s.traces_retained = p->stats().traces_retained;
  s.retained_bytes = p->retained_bytes();
  const taureau::guard::GuardStats g = w.guard.stats();
  s.shed = g.shed_queue_full + g.shed_deadline;
  s.deadline_exceeded = g.deadline_exceeded;
  // The budget's own counts: the platform's retries and the client's.
  s.retries_granted = w.guard.retry_budget().granted();
  s.retries_denied = w.guard.retry_budget().denied();
  const taureau::reuse::ReuseStats r = w.reuse.stats();
  s.reuse_hits = r.hits;
  s.reuse_lookups = r.hits + r.misses;
  s.reuse_coalesced = r.coalesced;
  s.cache_admitted = r.cache_admitted;
  s.cache_rejected = r.cache_rejected;
  s.cache_evictions = r.cache_evictions;
  s.faults_injected = w.injectors.injected();
  s.recoveries = w.injectors.recovered();
  s.pushes_applied = w.svc.stats().applied;
  return s;
}

}  // namespace perfbench
