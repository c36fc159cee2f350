#include "faas/platform.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <optional>
#include <utility>

#include "cluster/virtualization.h"

namespace taureau::faas {

FaasPlatform::FaasPlatform(sim::Simulation* sim, cluster::Cluster* cluster,
                           FaasConfig config)
    : sim_(sim),
      cluster_(cluster),
      config_(config),
      rng_(config.seed),
      ledger_(config.rates),
      admission_(config.admission) {
  BindMetrics();
}

FaasPlatform::~FaasPlatform() {
  // Account the residual memory-time of containers alive at teardown into
  // the native integral only: an attached shared registry is allowed to be
  // destroyed before the platform, so the gauge must not be touched here.
  for (auto& [id, c] : containers_) {
    container_mb_us_ += static_cast<long double>(sim_->Now() - c.created_us) *
                        static_cast<long double>(c.memory_mb);
  }
}

void FaasPlatform::BindMetrics() {
  h_.invocations = registry_->ResolveCounter("faas.invocations");
  h_.completions = registry_->ResolveCounter("faas.completions");
  h_.cold_starts = registry_->ResolveCounter("faas.cold_starts");
  h_.warm_starts = registry_->ResolveCounter("faas.warm_starts");
  h_.throttled = registry_->ResolveCounter("faas.throttled");
  h_.timeouts = registry_->ResolveCounter("faas.timeouts");
  h_.failures = registry_->ResolveCounter("faas.failures");
  h_.exhausted = registry_->ResolveCounter("faas.exhausted");
  h_.killed_containers = registry_->ResolveCounter("faas.killed_containers");
  h_.chaos_recoveries = registry_->ResolveCounter("faas.chaos_recoveries");
  h_.peak_containers = registry_->ResolveGauge("faas.peak_containers");
  h_.container_mb_us = registry_->ResolveGauge("faas.container_mb_us");
  h_.e2e_latency_us =
      registry_->ResolveHistogram("faas.e2e_latency_us", double(kHour));
  h_.queue_latency_us =
      registry_->ResolveHistogram("faas.queue_latency_us", double(kHour));
  h_.startup_latency_us =
      registry_->ResolveHistogram("faas.startup_latency_us", double(kHour));
  h_.exec_latency_us =
      registry_->ResolveHistogram("faas.exec_latency_us", double(kHour));
  // Re-resolve known tenants into the (possibly re-homed) registry.
  for (auto& [tenant, th] : tenant_handles_) {
    const obs::LabelSet labels{.tenant = tenant};
    th.invocations = registry_->ResolveCounter("faas.invocations", labels);
    th.completions = registry_->ResolveCounter("faas.completions", labels);
    th.errors = registry_->ResolveCounter("faas.errors", labels);
    th.e2e_latency_us =
        registry_->ResolveHistogram("faas.e2e_latency_us", labels,
                                    double(kHour));
  }
}

FaasPlatform::TenantHandles* FaasPlatform::TenantMetrics(
    const std::string& tenant) {
  if (tenant.empty()) return nullptr;
  auto [it, inserted] = tenant_handles_.try_emplace(tenant);
  if (inserted) {
    const obs::LabelSet labels{.tenant = tenant};
    it->second.invocations =
        registry_->ResolveCounter("faas.invocations", labels);
    it->second.completions =
        registry_->ResolveCounter("faas.completions", labels);
    it->second.errors = registry_->ResolveCounter("faas.errors", labels);
    it->second.e2e_latency_us =
        registry_->ResolveHistogram("faas.e2e_latency_us", labels,
                                    double(kHour));
  }
  return &it->second;
}

void FaasPlatform::AttachObservability(obs::Observability* o) {
  if (o == nullptr || registry_ == &o->registry) return;
  o->registry.MergeFrom(*registry_);
  if (registry_ == &own_registry_) own_registry_.Reset();
  registry_ = &o->registry;
  obs_ = o;
  BindMetrics();
}

void FaasPlatform::AccumulateMemoryTime(const Container& c) {
  container_mb_us_ += static_cast<long double>(sim_->Now() - c.created_us) *
                      static_cast<long double>(c.memory_mb);
  h_.container_mb_us.Set(static_cast<double>(container_mb_us_));
}

const PlatformMetrics& FaasPlatform::metrics() const {
  PlatformMetrics& m = metrics_view_;
  m.invocations = h_.invocations.value();
  m.completions = h_.completions.value();
  m.cold_starts = h_.cold_starts.value();
  m.warm_starts = h_.warm_starts.value();
  m.throttled = h_.throttled.value();
  m.timeouts = h_.timeouts.value();
  m.failures = h_.failures.value();
  m.exhausted = h_.exhausted.value();
  m.killed_containers = h_.killed_containers.value();
  m.chaos_recoveries = h_.chaos_recoveries.value();
  m.peak_containers = static_cast<uint64_t>(h_.peak_containers.value());
  m.container_mb_us = container_mb_us_;
  m.e2e_latency_us.Reset();
  m.e2e_latency_us.Merge(*h_.e2e_latency_us.raw());
  m.queue_latency_us.Reset();
  m.queue_latency_us.Merge(*h_.queue_latency_us.raw());
  m.startup_latency_us.Reset();
  m.startup_latency_us.Merge(*h_.startup_latency_us.raw());
  m.exec_latency_us.Reset();
  m.exec_latency_us.Merge(*h_.exec_latency_us.raw());
  return m;
}

void FaasPlatform::EmitAttemptSpans(const Invocation& inv,
                                    const Container& c,
                                    SimTime attempt_end_us,
                                    SimDuration startup_us,
                                    SimDuration exec_us, bool cold,
                                    const Status& attempt_status,
                                    bool killed) {
  if (obs_ == nullptr || !inv.root_ctx.valid()) return;
  const std::string attempt = std::to_string(inv.attempt);
  const SimTime exec_start = attempt_end_us - exec_us;
  const SimTime place_us = exec_start - startup_us;
  obs_->tracer.EmitSpan("queue", "faas", inv.root_ctx, inv.attempt_start_us,
                        place_us,
                        {{obs::kCategoryAttr, "queue"}, {"attempt", attempt}});
  if (cold && startup_us > 0) {
    obs_->tracer.EmitSpan("cold-start", "faas", inv.root_ctx, place_us,
                          exec_start,
                          {{obs::kCategoryAttr, "cold"}, {"attempt", attempt}});
  }
  obs::SpanAttrList exec_attrs = {
      {obs::kCategoryAttr, "exec"},
      {"attempt", attempt},
      {"status", StatusCodeName(attempt_status.code())}};
  if (!c.owner.empty()) {
    // ExecutionUnit::owner of the hosting container — the tenant tag the
    // scheduler actually placed under (flame profiles group by it).
    exec_attrs.Add("owner", c.owner);
  }
  if (killed) exec_attrs.Add("killed", "1");
  obs_->tracer.EmitSpan("exec", "faas", inv.root_ctx, exec_start,
                        attempt_end_us, exec_attrs);
}

Status FaasPlatform::RegisterFunction(FunctionSpec spec) {
  if (spec.name.empty()) {
    return Status::InvalidArgument("function name must be non-empty");
  }
  if (spec.timeout_us <= 0) {
    return Status::InvalidArgument("timeout must be positive");
  }
  auto [it, inserted] = functions_.try_emplace(spec.name);
  if (!inserted) {
    return Status::AlreadyExists("function '" + it->first +
                                 "' already registered");
  }
  it->second.spec = std::move(spec);
  // Pre-resolve the tenant's labeled series now so the invoke hot path
  // never pays a registration lookup.
  it->second.tenant_metrics = TenantMetrics(it->second.spec.tenant);
  return Status::OK();
}

Result<FunctionSpec> FaasPlatform::GetFunction(const std::string& name) const {
  auto it = functions_.find(name);
  if (it == functions_.end()) {
    return Status::NotFound("function '" + name + "' not registered");
  }
  return it->second.spec;
}

Result<uint64_t> FaasPlatform::Invoke(const std::string& function,
                                      std::string payload, InvokeCallback cb,
                                      obs::TraceContext parent,
                                      guard::Deadline deadline) {
  auto fn_it = functions_.find(function);
  if (fn_it == functions_.end()) {
    return Status::NotFound("function '" + function + "' not registered");
  }
  Function& fn = fn_it->second;
  const uint64_t id = next_invocation_id_++;
  Invocation* inv = &live_.try_emplace(id).first->second;
  inv->id = id;
  inv->fn = &fn;
  inv->payload = std::move(payload);
  inv->cb = std::move(cb);
  inv->submit_us = sim_->Now();
  inv->attempt_start_us = sim_->Now();
  inv->deadline = deadline;
  h_.invocations.Inc();
  if (TenantHandles* th = fn.tenant_metrics) th->invocations.Inc();
  if (obs_ != nullptr) {
    inv->root_ctx = obs_->tracer.StartSpan("invoke:" + function, "faas",
                                           parent);
    if (!fn.spec.tenant.empty()) {
      obs_->tracer.SetAttr(inv->root_ctx, obs::kTenantAttr, fn.spec.tenant);
    }
  }

  // Computation reuse (E29): idempotent invocations may be answered from
  // the result cache, a degraded-mode approximation, or an identical
  // in-flight execution — all before admission, because a reused answer
  // consumes no capacity and relieves the very pressure admission sheds.
  if (reuse_ != nullptr && reuse_->enabled() && fn.spec.idempotent &&
      TryServeReuse(inv)) {
    return id;
  }

  // Reject-on-arrival: when the pending backlog is over its bound or the
  // remaining deadline cannot cover the expected wait + service, finishing
  // this request is impossible — shed it now, before it costs anything.
  if (GuardActive()) {
    const auto decision = admission_.Admit(
        pending_.size(), AdmissionParallelism(), deadline, sim_->Now());
    if (decision != guard::AdmissionDecision::kAdmit) {
      guard_->RecordShed("faas", decision, inv->root_ctx, sim_->Now(),
                         fn.spec.tenant);
      sim_->Schedule(0, [this, inv, decision] {
        Complete(inv, /*cold=*/false, 0, 0,
                 decision == guard::AdmissionDecision::kShedDeadline
                     ? Status::DeadlineExceeded(
                           "shed on arrival: deadline cannot be met")
                     : Status::ResourceExhausted(
                           "shed on arrival: admission queue full"),
                 "");
      });
      return id;
    }
  }

  sim_->Schedule(SampleDispatchDelay(), [this, inv] { Dispatch(inv); });
  return id;
}

SimDuration FaasPlatform::SampleDispatchDelay() {
  const double mu = std::log(std::max<double>(1, config_.dispatch_median_us));
  return static_cast<SimDuration>(
             rng_.NextLogNormal(mu, config_.dispatch_sigma)) +
         extra_dispatch_delay_us_;
}

void FaasPlatform::AttachReuse(reuse::ReuseLayer* r) {
  reuse_ = r;
  // Function ids belong to a layer: re-resolve on each function's next
  // reuse lookup.
  for (auto& [name, fn] : functions_) fn.reuse_resolved = false;
}

bool FaasPlatform::TryServeReuse(Invocation* inv) {
  Function& fn = *inv->fn;
  if (!fn.reuse_resolved) {
    fn.reuse_resolved = true;
    fn.reuse_id = reuse_->FunctionId(fn.spec.name);
    fn.reuse_tenant = reuse_->TenantMetrics(fn.spec.tenant);
  }
  inv->reuse_key = reuse_->Key(fn.reuse_id, inv->payload);
  inv->has_reuse_key = true;
  reuse_->NoteRequest(inv->reuse_key);

  // 1. Memoized result: answer now (zero-delay event — the callback never
  //    fires inside the caller's Invoke), zero cost, no container touched.
  if (const reuse::CachedResult* hit =
          reuse_->Lookup(inv->reuse_key, sim_->Now())) {
    reuse_->RecordHit(fn.reuse_tenant, hit->exec_us);
    inv->served_via = ServedVia::kCacheHit;
    inv->reuse_status = hit->status;
    inv->reuse_output = hit->output;
    sim_->Schedule(0, [this, inv] { CompleteFromReuse(inv); });
    return true;
  }
  reuse_->RecordMiss(fn.reuse_tenant);

  // 2. Approximation: while the SLO burn gate fires, a registered provider
  //    answers from sketch state instead of queueing exact work on a fleet
  //    that is already missing its objective. The error bound is exported
  //    on the result and the span.
  if (reuse_->HasApprox(fn.reuse_id) &&
      reuse_->ShouldApproximate(fn.spec.tenant, sim_->Now())) {
    reuse_->RecordApprox(fn.reuse_tenant);
    inv->served_via = ServedVia::kApproximation;
    auto ans = reuse_->Approximate(fn.reuse_id, inv->payload);
    inv->approx_error_bound = ans.error_bound;
    inv->reuse_output = std::move(ans.output);
    sim_->Schedule(0, [this, inv] { CompleteFromReuse(inv); });
    return true;
  }

  // 3. Singleflight: attach to an identical in-flight execution, or become
  //    the leader whose completion fans out to every follower.
  if (reuse_->flights().InFlight(inv->reuse_key)) {
    reuse::Follower f;
    f.id = inv->id;
    f.deliver = [this, inv](const reuse::CachedResult& r) {
      inv->served_via = ServedVia::kCoalesced;
      reuse_->RecordCoalesce(inv->fn->reuse_tenant, r.exec_us);
      inv->reuse_status = r.status;
      inv->reuse_output = r.output;
      CompleteFromReuse(inv);
    };
    reuse_->flights().Attach(inv->reuse_key, std::move(f));
    return true;
  }
  reuse_->flights().Lead(inv->reuse_key, inv->id);
  return false;
}

void FaasPlatform::CompleteFromReuse(Invocation* inv) {
  if (inv->abandoned) {
    Complete(inv, /*cold=*/false, 0, 0,
             Status::Cancelled("cancelled while awaiting reuse"), "");
    return;
  }
  Complete(inv, /*cold=*/false, /*startup_us=*/0, /*exec_us=*/0,
           std::move(inv->reuse_status), std::move(inv->reuse_output));
}

Result<InvocationResult> FaasPlatform::InvokeSync(const std::string& function,
                                                  std::string payload) {
  std::optional<InvocationResult> out;
  auto r = Invoke(function, std::move(payload),
                  [&out](const InvocationResult& res) { out = res; });
  TAU_RETURN_IF_ERROR(r.status());
  while (!out.has_value()) {
    if (!sim_->Step()) {
      return Status::Internal("simulation drained before invocation finished");
    }
  }
  return *out;
}

void FaasPlatform::Dispatch(Invocation* inv) {
  if (inv->abandoned) {
    Complete(inv, /*cold=*/false, 0, 0,
             Status::Cancelled("cancelled before dispatch"), "");
    return;
  }
  if (GuardActive() && inv->deadline.Expired(sim_->Now())) {
    guard_->RecordDeadlineExceeded("faas", inv->root_ctx,
                                   inv->attempt_start_us, sim_->Now(),
                                   inv->fn->spec.tenant);
    Complete(inv, /*cold=*/false, 0, 0,
             Status::DeadlineExceeded("deadline expired before dispatch"), "");
    return;
  }
  if (TryPlace(inv)) return;
  if (config_.queue_on_throttle) {
    pending_.push_back(inv);
    return;
  }
  h_.throttled.Inc();
  Complete(inv, /*cold=*/false, 0, 0,
           Status::ResourceExhausted("throttled: concurrency limit reached"),
           "");
}

bool FaasPlatform::TryPlace(Invocation* inv) {
  // Prefer a warm container (most recently used — best cache locality and
  // lets older ones age out). Containers on partitioned machines are
  // unreachable and stay parked until the partition heals.
  auto& warm = inv->fn->warm;
  for (auto it = warm.rbegin(); it != warm.rend(); ++it) {
    Container* c = &containers_.at(*it);
    if (!cluster_->MachineUsable(c->machine)) continue;
    warm.erase(std::next(it).base());
    CancelKeepAlive(c);
    c->busy = true;
    StartOnContainer(inv, c, /*cold=*/false, /*startup_us=*/0);
    return true;
  }

  auto launch = LaunchContainer(inv->fn);
  if (!launch.ok()) {
    if (launch.status().IsResourceExhausted()) return false;
    Complete(inv, false, 0, 0, launch.status(), "");
    return true;  // terminal: do not queue
  }
  StartOnContainer(inv, launch->container, /*cold=*/true, launch->startup_us);
  return true;
}

Result<FaasPlatform::ColdStart> FaasPlatform::LaunchContainer(Function* fn) {
  const FunctionSpec& spec = fn->spec;
  if (containers_.size() >= config_.max_concurrency ||
      (spec.max_concurrency > 0 && fn->containers >= spec.max_concurrency)) {
    return Status::ResourceExhausted("concurrency cap");
  }
  auto unit = cluster_->Allocate(
      cluster::IsolationLevel::kLambda, spec.demand,
      cluster::PlacementPolicy::kFirstFit,
      spec.tenant.empty() ? spec.name : spec.tenant);
  if (!unit.ok()) return unit.status();

  const cluster::StartupModel model =
      cluster::DefaultStartupModel(cluster::IsolationLevel::kLambda);
  const uint64_t cid = next_container_id_++;
  Container* c = &containers_.try_emplace(cid).first->second;
  c->id = cid;
  c->fn = fn;
  c->unit = *unit;
  c->machine = cluster_->MachineOf(*unit).value_or(0);
  c->owner = cluster_->OwnerOf(*unit).value_or("");
  c->created_us = sim_->Now();
  c->memory_mb = spec.demand.memory_mb + model.overhead_mb;
  c->busy = true;
  fn->containers += 1;
  h_.peak_containers.SetMax(double(containers_.size()));
  return ColdStart{c, model.SampleStartup(&rng_) + spec.init_us};
}

void FaasPlatform::CancelKeepAlive(Container* c) {
  if (c->keep_alive_event == 0) return;
  sim_->Cancel(c->keep_alive_event);
  c->keep_alive_event = 0;
}

void FaasPlatform::StartOnContainer(Invocation* inv, Container* container,
                                    bool cold, SimDuration startup_us) {
  const FunctionSpec& spec = inv->fn->spec;
  const SimDuration queue_us = sim_->Now() - inv->attempt_start_us;
  h_.queue_latency_us.Add(double(queue_us));
  h_.startup_latency_us.Add(double(startup_us));
  if (cold) {
    h_.cold_starts.Inc();
  } else {
    h_.warm_starts.Inc();
  }

  // Determine how this attempt ends, ahead of time (simulated outcome).
  SimDuration exec = spec.exec.Sample(&rng_, inv->payload.size());
  Status attempt_status = Status::OK();
  if (spec.failure_prob > 0 && rng_.NextBool(spec.failure_prob)) {
    // Crash partway through the run.
    exec = static_cast<SimDuration>(double(exec) * rng_.NextDouble());
    attempt_status = Status::Aborted("function crashed (injected failure)");
  }
  if (attempt_status.ok() && exec > spec.timeout_us) {
    exec = spec.timeout_us;
    attempt_status =
        Status::Timeout("execution exceeded " +
                        std::to_string(spec.timeout_us / kMillisecond) + "ms");
  }

  const uint64_t cid = container->id;
  container->inflight = inv;
  container->inflight_cold = cold;
  container->inflight_startup_us = startup_us;
  container->exec_began_us = sim_->Now() + startup_us;
  container->inflight_exec_us = exec;
  container->inflight_status = std::move(attempt_status);
  container->inflight_event =
      sim_->Schedule(startup_us + exec, [this, cid] {
        auto it = containers_.find(cid);
        assert(it != containers_.end() && "busy container destroyed");
        Container* c = &it->second;
        c->inflight_event = 0;
        FinishAttempt(std::exchange(c->inflight, nullptr), c, c->inflight_cold,
                      c->inflight_startup_us, c->inflight_exec_us,
                      std::move(c->inflight_status), "");
      });
}

void FaasPlatform::FinishAttempt(Invocation* inv, Container* container,
                                 bool cold, SimDuration startup_us,
                                 SimDuration exec_us, Status attempt_status,
                                 std::string output) {
  const FunctionSpec& spec = inv->fn->spec;

  // Run the real handler (if any) only for attempts that did not already
  // fail in the simulated-outcome stage.
  if (attempt_status.ok() && spec.handler) {
    InvocationContext ctx;
    ctx.invocation_id = inv->id;
    ctx.attempt = inv->attempt;
    ctx.cold_start = cold;
    ctx.container_cache = &container->cache;
    auto r = spec.handler(inv->payload, ctx);
    if (r.ok()) {
      output = std::move(r).value();
    } else {
      attempt_status = r.status();
    }
  }

  // Every attempt is billed for its execution time — including failed and
  // timed-out attempts, as on production FaaS platforms.
  inv->cost_so_far += ledger_.Charge(spec.name, exec_us,
                                     spec.demand.memory_mb);
  h_.exec_latency_us.Add(double(exec_us));
  admission_.RecordService(startup_us + exec_us);

  if (attempt_status.IsTimeout()) h_.timeouts.Inc();
  if (!attempt_status.ok()) h_.failures.Inc();

  EmitAttemptSpans(*inv, *container, sim_->Now(), startup_us, exec_us, cold,
                   attempt_status, /*killed=*/false);
  ReleaseToWarmPool(container);
  RetryOrComplete(inv, cold, startup_us, exec_us, std::move(attempt_status),
                  std::move(output));
}

void FaasPlatform::RetryOrComplete(Invocation* inv, bool cold,
                                   SimDuration startup_us, SimDuration exec_us,
                                   Status attempt_status, std::string output) {
  bool want_retry =
      !attempt_status.ok() && config_.retry.ShouldRetry(inv->attempt) &&
      !inv->abandoned && !attempt_status.IsCancelled();
  if (want_retry && GuardActive() &&
      inv->deadline.Expired(sim_->Now())) {
    guard_->RecordDeadlineExceeded("faas", inv->root_ctx, sim_->Now(),
                                   sim_->Now(), inv->fn->spec.tenant);
    attempt_status = Status::DeadlineExceeded(
        "deadline expired; not retrying: " + attempt_status.ToString());
    want_retry = false;
  }
  if (want_retry && guard_ != nullptr) {
    // Retry budget: each retry spends a token refilled by successes, so
    // retry traffic cannot exceed a fixed fraction of the offered load no
    // matter how hard the backends fail (the anti-retry-storm valve).
    const bool granted = guard_->retry_budget().TryAcquire();
    guard_->RecordRetryDecision("faas", granted, inv->root_ctx, sim_->Now(),
                                inv->fn->spec.tenant);
    want_retry = granted;
  }
  if (want_retry) {
    const int failed_attempt = inv->attempt;
    ++inv->attempt;
    inv->attempt_start_us = sim_->Now();
    // Backoff (zero under the default policy) plus the usual dispatch hop.
    const SimDuration delay =
        config_.retry.BackoffFor(failed_attempt, &rng_) + SampleDispatchDelay();
    if (obs_ != nullptr && inv->root_ctx.valid() && delay > 0) {
      // Overlaps the next attempt's queue span from the same instant; the
      // analyzer breaks the tie toward this (earlier-created) span, so the
      // backoff window is charged to retry and only the excess to queue.
      obs_->tracer.EmitSpan(
          "retry-wait", "faas", inv->root_ctx, sim_->Now(), sim_->Now() + delay,
          {{obs::kCategoryAttr, "retry"},
           {"after_attempt", std::to_string(failed_attempt)}});
    }
    sim_->Schedule(delay, [this, inv] { Dispatch(inv); });
    return;
  }

  if (!attempt_status.ok()) h_.exhausted.Inc();
  Complete(inv, cold, startup_us, exec_us, std::move(attempt_status),
           std::move(output));
}

void FaasPlatform::Complete(Invocation* inv, bool cold, SimDuration startup_us,
                            SimDuration exec_us, Status status,
                            std::string output) {
  InvocationResult res;
  res.id = inv->id;
  res.status = std::move(status);
  res.output = std::move(output);
  res.cold_start = cold;
  res.attempts = inv->attempt + 1;
  res.submit_us = inv->submit_us;
  res.end_us = sim_->Now();
  res.queue_us = inv->attempt_start_us - inv->submit_us;
  res.startup_us = startup_us;
  res.exec_us = exec_us;
  res.cost = inv->cost_so_far;
  res.served_via = inv->served_via;
  res.approx_error_bound = inv->approx_error_bound;
  // Owns the invocation from here until Complete returns.
  const auto node = live_.extract(inv->id);
  h_.completions.Inc();
  h_.e2e_latency_us.Add(double(res.EndToEnd()));
  if (TenantHandles* th = inv->fn->tenant_metrics) {
    th->completions.Inc();
    th->e2e_latency_us.Add(double(res.EndToEnd()));
    if (!res.status.ok()) th->errors.Inc();
  }
  const bool executed = inv->served_via == ServedVia::kExecution;
  if (guard_ != nullptr && res.status.ok() && executed) {
    // Reuse-served answers cost no execution; letting them refill the
    // retry budget or drag the hedge-delay quantile down would misstate
    // what the backends can actually absorb.
    guard_->retry_budget().RecordSuccess();
    guard_->hedge().Record(res.EndToEnd());
  }
  if (inv->chaos_killed && res.status.ok()) {
    h_.chaos_recoveries.Inc();
    if (chaos_ != nullptr) {
      chaos_->RecordRecovery("faas", chaos::FaultKind::kContainerKill, inv->id,
                             "invocation retried to success after kill");
    }
  }
  const char* reuse_path = nullptr;
  if (obs_ != nullptr && inv->root_ctx.valid() && !executed) {
    // The whole request window was spent in the reuse layer; the child
    // span puts it on the critical path under its own category.
    reuse_path = inv->served_via == ServedVia::kCacheHit ? "cache-hit"
                 : inv->served_via == ServedVia::kCoalesced
                     ? "coalesced"
                     : "approximation";
    obs::SpanAttrList attrs = {{obs::kCategoryAttr, "reuse"},
                               {"path", reuse_path}};
    std::string error_bound;
    if (inv->served_via == ServedVia::kApproximation) {
      error_bound = std::to_string(inv->approx_error_bound);
      attrs.Add("error_bound", error_bound);
    }
    obs_->tracer.EmitSpan(std::string("reuse-") + reuse_path, "faas",
                          inv->root_ctx, inv->submit_us, sim_->Now(), attrs);
  }
  if (obs_ != nullptr && inv->root_ctx.valid()) {
    // Outcome/severity for tail sampling: terminal failures are errors, a
    // chaos kill retried to success is a masked fault (warn) — both must
    // survive any sampling rate.
    const char* outcome = !res.status.ok() ? obs::kOutcomeError
                          : inv->chaos_killed ? obs::kOutcomeFault
                                              : obs::kOutcomeOk;
    const char* sev = !res.status.ok()  ? "error"
                      : inv->chaos_killed ? "warn"
                                          : "info";
    const std::string attempts = std::to_string(res.attempts);
    obs::SpanAttrList attrs = {{"cold", res.cold_start ? "1" : "0"},
                               {"attempts", attempts},
                               {"status", StatusCodeName(res.status.code())},
                               {obs::kOutcomeAttr, outcome},
                               {obs::kSeverityAttr, sev}};
    if (reuse_path != nullptr) attrs.Add("reuse", reuse_path);
    obs_->tracer.EndSpan(inv->root_ctx, attrs);
  }
  if (inv->cb) inv->cb(res);

  // Singleflight leader: offer the (successful, executed) result to the
  // cache under cost-aware admission, then fan it out to every coalesced
  // follower in attach order — one execution, one bill, N callbacks.
  if (reuse_ != nullptr && executed && inv->has_reuse_key) {
    // The callback has read `res`; its strings move rather than copy.
    const reuse::CachedResult result{std::move(res.status),
                                     std::move(res.output), res.exec_us};
    if (result.status.ok()) {
      reuse_->Offer(inv->reuse_key, result, sim_->Now());
    }
    for (auto& f : reuse_->flights().Complete(inv->reuse_key)) {
      f.deliver(result);
    }
  }
}

void FaasPlatform::ReleaseToWarmPool(Container* container) {
  container->busy = false;
  if (config_.keep_alive_us <= 0) {
    DestroyContainer(container->id);
    DrainPending();
    return;
  }
  container->fn->warm.push_back(container->id);
  const uint64_t cid = container->id;
  container->keep_alive_event = sim_->Schedule(
      config_.keep_alive_us, [this, cid] { DestroyContainer(cid); });
  DrainPending();
}

void FaasPlatform::DestroyContainer(uint64_t container_id) {
  auto it = containers_.find(container_id);
  if (it == containers_.end()) return;
  Container& c = it->second;
  if (c.busy) return;  // raced with reuse; keep-alive was logically void
  AccumulateMemoryTime(c);
  auto& warm = c.fn->warm;
  warm.erase(std::remove(warm.begin(), warm.end(), container_id), warm.end());
  cluster_->Release(c.unit);  // ignore status: unit must exist by invariant
  c.fn->containers -= 1;
  containers_.erase(it);
}

void FaasPlatform::DrainPending() {
  while (!pending_.empty()) {
    Invocation* inv = pending_.front();
    // Queued work that was cancelled or whose deadline lapsed is doomed —
    // running it would burn a container on a result nobody will read.
    if (inv->abandoned) {
      pending_.pop_front();
      Complete(inv, /*cold=*/false, 0, 0,
               Status::Cancelled("cancelled while queued"), "");
      continue;
    }
    if (GuardActive() && inv->deadline.Expired(sim_->Now())) {
      pending_.pop_front();
      guard_->RecordDeadlineExceeded("faas", inv->root_ctx,
                                     inv->attempt_start_us, sim_->Now(),
                                     inv->fn->spec.tenant);
      Complete(inv, /*cold=*/false, 0, 0,
               Status::DeadlineExceeded("deadline expired while queued"), "");
      continue;
    }
    // TryPlace either schedules the attempt (true) or cannot make progress
    // right now (false) — in which case the invocation stays queued.
    if (!TryPlace(inv)) break;
    pending_.pop_front();
  }
}

size_t FaasPlatform::warm_container_count(const std::string& function) const {
  auto it = functions_.find(function);
  return it == functions_.end() ? 0 : it->second.warm.size();
}

Result<size_t> FaasPlatform::Prewarm(const std::string& function,
                                     size_t count) {
  auto fn_it = functions_.find(function);
  if (fn_it == functions_.end()) {
    return Status::NotFound("function '" + function + "' not registered");
  }
  size_t started = 0;
  for (; started < count; ++started) {
    auto launch = LaunchContainer(&fn_it->second);
    if (!launch.ok()) break;
    // Busy while initializing; parks warm when startup completes.
    const uint64_t cid = launch->container->id;
    sim_->Schedule(launch->startup_us, [this, cid] {
      auto it = containers_.find(cid);
      if (it == containers_.end()) return;
      ReleaseToWarmPool(&it->second);
    });
  }
  return started;
}

bool FaasPlatform::KillContainer(uint64_t container_id,
                                 const std::string& reason) {
  auto it = containers_.find(container_id);
  if (it == containers_.end()) return false;
  Container* c = &it->second;
  h_.killed_containers.Inc();

  if (c->inflight != nullptr) {
    // A running attempt dies with its container and goes back through the
    // retry path.
    const Status kill_status =
        Status::Unavailable("container killed: " + reason);
    StoppedAttempt a = StopAttempt(c, kill_status, /*killed=*/true);
    ForceDestroyContainer(container_id);
    RetryOrComplete(a.inv, a.cold, a.startup_us, a.exec_us, kill_status, "");
  } else {
    ForceDestroyContainer(container_id);
  }
  DrainPending();  // freed capacity may admit a queued invocation
  return true;
}

size_t FaasPlatform::KillContainersOnMachine(cluster::MachineId machine,
                                             const std::string& reason) {
  std::vector<uint64_t> victims;
  for (const auto& [id, c] : containers_) {
    if (c.machine == machine) victims.push_back(id);
  }
  std::sort(victims.begin(), victims.end());
  for (uint64_t id : victims) KillContainer(id, reason);
  return victims.size();
}

FaasPlatform::StoppedAttempt FaasPlatform::StopAttempt(Container* c,
                                                      const Status& status,
                                                      bool killed) {
  sim_->Cancel(c->inflight_event);
  c->inflight_event = 0;
  StoppedAttempt a;
  a.inv = std::exchange(c->inflight, nullptr);
  a.cold = c->inflight_cold;
  a.exec_us = std::max<SimDuration>(0, sim_->Now() - c->exec_began_us);
  // An attempt stopped mid-startup only burned part of its init; report
  // the actual elapsed startup so the attempt timeline stays contiguous.
  const SimTime place_us = c->exec_began_us - c->inflight_startup_us;
  a.startup_us = std::min(c->inflight_startup_us,
                          std::max<SimDuration>(0, sim_->Now() - place_us));
  Invocation& inv = *a.inv;
  inv.cost_so_far += ledger_.Charge(inv.fn->spec.name, a.exec_us,
                                    inv.fn->spec.demand.memory_mb);
  h_.exec_latency_us.Add(double(a.exec_us));
  if (killed) {
    h_.failures.Inc();
    inv.chaos_killed = true;
  }
  EmitAttemptSpans(inv, *c, sim_->Now(), a.startup_us, a.exec_us, a.cold,
                   status, killed);
  return a;
}

void FaasPlatform::ForceDestroyContainer(uint64_t container_id) {
  auto it = containers_.find(container_id);
  if (it == containers_.end()) return;
  Container* c = &it->second;
  CancelKeepAlive(c);
  c->busy = false;  // let DestroyContainer proceed even mid-attempt
  DestroyContainer(container_id);
}

bool FaasPlatform::CancelInvocation(uint64_t id) {
  return CancelInvocationInternal(id, "cancelled by caller") >= 0;
}

SimDuration FaasPlatform::CancelInvocationInternal(uint64_t id,
                                                   const std::string& why) {
  auto live_it = live_.find(id);
  if (live_it == live_.end()) return -1;  // unknown or already terminal
  Invocation* inv = &live_it->second;
  // Waiting for capacity?
  auto queued = std::find(pending_.begin(), pending_.end(), inv);
  if (queued != pending_.end()) {
    pending_.erase(queued);
    Complete(inv, /*cold=*/false, 0, 0, Status::Cancelled(why), "");
    return 0;
  }
  // Running on a container? Stop the attempt and return the (healthy)
  // container to the warm pool.
  for (auto& [cid, c] : containers_) {
    if (c.inflight != inv) continue;
    const Status cancel_status = Status::Cancelled(why);
    StoppedAttempt a = StopAttempt(&c, cancel_status, /*killed=*/false);
    ReleaseToWarmPool(&c);
    Complete(inv, a.cold, a.startup_us, a.exec_us, cancel_status, "");
    return a.exec_us;
  }
  // Between events (dispatch delay, retry backoff or awaiting a reuse
  // answer): flag it; the next continuation completes it Cancelled.
  inv->abandoned = true;
  return 0;
}

Result<uint64_t> FaasPlatform::InvokeHedged(const std::string& function,
                                            std::string payload,
                                            InvokeCallback cb,
                                            obs::TraceContext parent,
                                            guard::Deadline deadline,
                                            std::string hedge_key) {
  if (guard_ == nullptr) {
    return Invoke(function, std::move(payload), std::move(cb), parent,
                  deadline);
  }
  const auto fn_it = functions_.find(function);
  if (fn_it == functions_.end()) {
    return Status::NotFound("function '" + function + "' not registered");
  }
  auto hs = std::make_shared<HedgeState>();
  hs->function = function;
  hs->deadline = deadline;
  hs->cb = std::move(cb);
  hs->submit_us = sim_->Now();
  hs->key = std::move(hedge_key);
  if (obs_ != nullptr) {
    hs->root_ctx =
        obs_->tracer.StartSpan("hedged:" + function, "faas", parent);
    if (!fn_it->second.spec.tenant.empty()) {
      obs_->tracer.SetAttr(hs->root_ctx, obs::kTenantAttr,
                           fn_it->second.spec.tenant);
    }
  }
  // The primary gets a copy; the duplicate, if it launches, takes this one.
  auto primary = Invoke(
      function, payload,
      [this, hs](const InvocationResult& res) {
        OnHedgeResult(hs, res, /*from_hedge=*/false);
      },
      hs->root_ctx, deadline);
  if (!primary.ok()) {
    if (obs_ != nullptr && hs->root_ctx.valid()) {
      obs_->tracer.EndSpan(hs->root_ctx);
    }
    return primary;
  }
  hs->primary_id = *primary;
  hs->payload = std::move(payload);
  if (hs->key.empty()) {
    hs->key = "hedge:" + function + ":" + std::to_string(hs->primary_id);
  }
  const SimDuration delay = guard_->hedge().Delay();
  hs->hedge_timer = sim_->Schedule(delay, [this, hs] {
    hs->hedge_timer = 0;
    if (hs->done) return;
    guard_->RecordHedgeLaunched();
    // The wait-before-duplicating window is guard policy time: charge it
    // to the guard category wherever no deeper span covers it.
    guard_->EmitGuardSpan("hedge-wait", "faas", hs->root_ctx, hs->submit_us,
                          sim_->Now(), {});
    auto hedge = Invoke(
        hs->function, std::move(hs->payload),
        [this, hs](const InvocationResult& res) {
          OnHedgeResult(hs, res, /*from_hedge=*/true);
        },
        hs->root_ctx, hs->deadline);
    if (hedge.ok()) hs->hedge_id = *hedge;
  });
  return hs->primary_id;
}

void FaasPlatform::OnHedgeResult(std::shared_ptr<HedgeState> hs,
                                 const InvocationResult& res,
                                 bool from_hedge) {
  // The loser we cancelled ourselves reports Cancelled — already handled.
  if (res.status.IsCancelled()) return;
  if (hs->done) {
    // A duplicate ran to completion after the winner (both finished before
    // the cancel could land): the idempotency cache absorbs it — recorded
    // as a duplicate, never applied or delivered a second time.
    guard_->dedupe().Record(hs->key, res.status, res.output);
    guard_->RecordHedgeDeduped();
    return;
  }
  hs->done = true;
  if (hs->hedge_timer != 0) {
    sim_->Cancel(hs->hedge_timer);
    hs->hedge_timer = 0;
  }
  guard_->dedupe().Record(hs->key, res.status, res.output);
  if (from_hedge) guard_->RecordHedgeWin();
  const uint64_t loser = from_hedge ? hs->primary_id : hs->hedge_id;
  if (loser != 0) {
    const SimDuration wasted =
        CancelInvocationInternal(loser, "hedge loser cancelled");
    if (wasted >= 0) guard_->RecordHedgeCancelled(wasted);
  }
  // The caller sees the winner's result and only the winner's bill; the
  // duplicate's burn is accounted as guard.hedge_wasted_us.
  InvocationResult out = res;
  out.submit_us = hs->submit_us;
  if (obs_ != nullptr && hs->root_ctx.valid()) {
    obs_->tracer.EndSpan(
        hs->root_ctx,
        {{"hedged", hs->hedge_id != 0 ? "1" : "0"},
         {"winner", from_hedge ? "hedge" : "primary"},
         {"status", StatusCodeName(out.status.code())},
         {obs::kOutcomeAttr,
          out.status.ok() ? obs::kOutcomeOk : obs::kOutcomeError},
         {obs::kSeverityAttr, out.status.ok() ? "info" : "error"}});
  }
  if (hs->cb) hs->cb(out);
}

void FaasPlatform::AttachControl(ctrl::ConfigService* service) {
  (void)service->EnsureDefined(
      {.key = "faas.keep_alive_us",
       .default_value = ctrl::ConfigValue::Int(config_.keep_alive_us),
       .min_value = 0.0,
       .max_value = 24.0 * 3600 * kSecond,
       .description = "idle warm-container retention before teardown"});
  // Existing keep-alive timers keep their scheduled teardown; the new
  // retention governs containers going idle from now on (safe point:
  // between events, never mid-decision).
  service->Subscribe(
      "faas.keep_alive_us",
      [this](const ctrl::ConfigUpdate& u) {
        config_.keep_alive_us = u.value.as_int();
      });
}

void FaasPlatform::AttachChaos(chaos::InjectorRegistry* registry) {
  chaos_ = registry;
  using chaos::FaultKind;
  registry->RegisterHook(
      "faas", FaultKind::kContainerKill, [this](const chaos::FaultEvent& e) {
        if (containers_.empty()) return;
        std::vector<uint64_t> ids;
        ids.reserve(containers_.size());
        for (const auto& [id, c] : containers_) ids.push_back(id);
        std::sort(ids.begin(), ids.end());
        KillContainer(ids[e.target % ids.size()], "chaos container kill");
      });
  registry->RegisterHook(
      "faas", FaultKind::kMachineCrash, [this](const chaos::FaultEvent& e) {
        // The cluster hook (registered first) already evicted the units;
        // our per-container machine snapshot still identifies the victims.
        const size_t n = cluster_->machine_count();
        if (n == 0) return;
        KillContainersOnMachine(static_cast<cluster::MachineId>(e.target % n),
                                "machine crash");
      });
  registry->RegisterHook(
      "faas", FaultKind::kNetworkDelay, [this](const chaos::FaultEvent& e) {
        const SimDuration spike = static_cast<SimDuration>(e.param);
        extra_dispatch_delay_us_ += spike;
        sim_->Schedule(config_.network_delay_window_us, [this, spike] {
          extra_dispatch_delay_us_ =
              std::max<SimDuration>(0, extra_dispatch_delay_us_ - spike);
        });
      });
}

void FaasPlatform::FlushWarmPool() {
  std::vector<uint64_t> ids;
  for (const auto& [name, fn] : functions_) {
    ids.insert(ids.end(), fn.warm.begin(), fn.warm.end());
  }
  // Id order, so the memory-time sum and the cluster releases do not
  // depend on hash-map iteration. Pooled containers are idle, so forcing
  // only cancels their keep-alive.
  std::sort(ids.begin(), ids.end());
  for (uint64_t id : ids) ForceDestroyContainer(id);
}

}  // namespace taureau::faas
