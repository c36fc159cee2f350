// The FaaS platform (paper §2.2, §4.1): demand-driven container lifecycle
// with cold/warm starts, keep-alive, concurrency limits, execution timeouts,
// transparent retries, and fine-grained billing.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "chaos/injector.h"
#include "chaos/retry_policy.h"
#include "cluster/cluster.h"
#include "common/rng.h"
#include "common/stats.h"
#include "ctrl/config.h"
#include "faas/billing.h"
#include "faas/function.h"
#include "guard/admission.h"
#include "guard/deadline.h"
#include "guard/guard.h"
#include "obs/observability.h"
#include "reuse/reuse.h"
#include "sim/simulation.h"

namespace taureau::faas {

/// Platform configuration.
struct FaasConfig {
  /// How long an idle warm container is retained before teardown.
  SimDuration keep_alive_us = 10 * kMinute;
  /// Account-level cap on concurrently live containers (Lambda: 1000).
  size_t max_concurrency = 1000;
  /// When at the cap: queue the invocation (true) or fail it (false,
  /// Lambda-style throttling).
  bool queue_on_throttle = true;
  /// Re-execution after a failed/timed-out attempt, shared with the
  /// orchestrator. The default is three attempts with no backoff; set e.g.
  /// RetryPolicy::ExponentialJitter to get backoff + jitter between them.
  chaos::RetryPolicy retry = chaos::RetryPolicy::Immediate(3);
  /// How long one injected network-delay spike inflates dispatch latency.
  SimDuration network_delay_window_us = 1 * kSecond;
  /// Median platform dispatch overhead (routing, auth, scheduling).
  SimDuration dispatch_median_us = 2 * kMillisecond;
  double dispatch_sigma = 0.3;
  BillingRates rates{};
  uint64_t seed = 42;
  /// Overload protection (taureau::guard). Takes effect once a Guard is
  /// wired in via AttachGuard: arriving invocations are rejected when the
  /// pending queue is over its bound or their remaining deadline cannot
  /// cover the expected wait + service; queued/retrying invocations whose
  /// deadline lapses are cancelled instead of run; retries must acquire a
  /// token from the shared retry budget.
  bool enable_admission = false;
  guard::AdmissionConfig admission{};
};

/// How an invocation's result was produced (the computation-reuse layer
/// can answer without running the function).
enum class ServedVia : uint8_t {
  kExecution = 0,   ///< Ran on a container (the only path without reuse).
  kCacheHit,        ///< Memoized result from the content-addressed cache.
  kCoalesced,       ///< Attached to an identical in-flight execution.
  kApproximation,   ///< Sketch-backed degraded-mode answer under SLO burn.
};

/// Outcome of one invocation, delivered to the caller's callback.
struct InvocationResult {
  uint64_t id = 0;
  Status status;
  std::string output;
  bool cold_start = false;  ///< Whether the *final* attempt started cold.
  int attempts = 1;
  SimTime submit_us = 0;
  SimTime end_us = 0;
  SimDuration queue_us = 0;    ///< Dispatch + throttle queueing (final attempt).
  SimDuration startup_us = 0;  ///< Container + runtime init (final attempt).
  SimDuration exec_us = 0;     ///< Pure execution (final attempt).
  Money cost;                  ///< Total billed across all attempts.
  ServedVia served_via = ServedVia::kExecution;
  /// Exported error bound of an approximate answer (the freshness/exactness
  /// contract the client sees); 0 for exact results.
  double approx_error_bound = 0.0;

  SimDuration EndToEnd() const { return end_us - submit_us; }
};

using InvokeCallback = std::function<void(const InvocationResult&)>;

/// Counters and latency distributions exposed for the experiments.
///
/// Since the observability subsystem landed this struct is a *view*: the
/// canonical store is an obs::Registry (the platform's own, or a shared one
/// wired in via AttachObservability) and `FaasPlatform::metrics()`
/// materializes this struct from it on demand. Only `container_mb_us` is
/// kept natively (long double — the memory-time integral needs more
/// precision than a metrics gauge carries).
struct PlatformMetrics {
  uint64_t invocations = 0;
  uint64_t completions = 0;
  uint64_t cold_starts = 0;
  uint64_t warm_starts = 0;
  uint64_t throttled = 0;
  uint64_t timeouts = 0;
  uint64_t failures = 0;       ///< Attempt-level failures (pre-retry).
  uint64_t exhausted = 0;      ///< Invocations that failed after all retries.
  uint64_t killed_containers = 0;  ///< Chaos: containers killed (busy or warm).
  uint64_t chaos_recoveries = 0;   ///< Killed invocations that retried to OK.
  uint64_t peak_containers = 0;
  /// Memory-time integral over all container lifetimes (MB * microseconds);
  /// the resource cost of keep-alive policies in E2.
  long double container_mb_us = 0;
  Histogram e2e_latency_us{double(kHour)};
  Histogram queue_latency_us{double(kHour)};
  Histogram startup_latency_us{double(kHour)};
  Histogram exec_latency_us{double(kHour)};
};

/// The platform. Single simulated region; all methods are called from the
/// simulation thread.
class FaasPlatform {
 public:
  FaasPlatform(sim::Simulation* sim, cluster::Cluster* cluster,
               FaasConfig config);
  ~FaasPlatform();

  FaasPlatform(const FaasPlatform&) = delete;
  FaasPlatform& operator=(const FaasPlatform&) = delete;

  /// Registers a function. AlreadyExists if the name is taken.
  Status RegisterFunction(FunctionSpec spec);

  /// Looks up a registered spec.
  Result<FunctionSpec> GetFunction(const std::string& name) const;

  /// Asynchronously invokes `function` with `payload`; `cb` fires (in
  /// simulated time) when the invocation reaches a terminal state.
  /// Returns the invocation id.
  ///
  /// When observability is attached, the invocation emits a span tree
  /// rooted at "invoke:<function>" — parented under `parent` when one is
  /// passed — with per-attempt queue/cold/exec child spans and retry-wait
  /// spans, all categorized for the critical-path analyzer.
  Result<uint64_t> Invoke(const std::string& function, std::string payload,
                          InvokeCallback cb, obs::TraceContext parent = {},
                          guard::Deadline deadline = {});

  /// Invoke with a deterministic hedge (taureau::guard, "The Tail at
  /// Scale"): if the primary attempt is still running after the tracked
  /// hedge delay (~p95 of observed latencies), a duplicate launches; the
  /// first terminal result wins, the loser is cancelled (its burned
  /// execution is billed as duplicate-work cost, never to the caller), and
  /// late duplicate completions are absorbed by the guard's idempotency
  /// cache so the callback fires exactly once. Requires an attached Guard
  /// (falls back to a plain Invoke otherwise). `hedge_key` deduplicates
  /// side-effect application; empty derives one from the invocation id.
  Result<uint64_t> InvokeHedged(const std::string& function,
                                std::string payload, InvokeCallback cb,
                                obs::TraceContext parent = {},
                                guard::Deadline deadline = {},
                                std::string hedge_key = "");

  /// Cancels a pending or in-flight invocation: it completes Cancelled,
  /// any running attempt stops (billed for the execution burned so far)
  /// and its container returns to the warm pool. False when the
  /// invocation is unknown or already terminal.
  bool CancelInvocation(uint64_t id);

  /// Convenience: invoke and run the simulation until this invocation
  /// completes. Intended for tests/examples, not concurrent workloads.
  Result<InvocationResult> InvokeSync(const std::string& function,
                                      std::string payload);

  /// Snapshot of the platform metrics, materialized from the registry.
  const PlatformMetrics& metrics() const;
  BillingLedger& ledger() { return ledger_; }
  const BillingLedger& ledger() const { return ledger_; }
  const FaasConfig& config() const { return config_; }

  /// Live container counts (for elasticity plots).
  size_t active_containers() const { return containers_.size(); }
  size_t warm_container_count(const std::string& function) const;
  size_t pending_queue_depth() const { return pending_.size(); }

  /// Provisioned concurrency: directly cold-starts up to `count` extra
  /// containers for `function`; each parks in the warm pool once its
  /// runtime initializes. Unlike invocations, provisioning is not billed
  /// per-request — its cost is the idle memory-time the metrics track.
  /// Returns the number of containers actually started (capacity may cap
  /// it).
  Result<size_t> Prewarm(const std::string& function, size_t count);

  /// Tears down all idle warm containers immediately (test hook).
  void FlushWarmPool();

  // ----------------------------------------------------------- obs
  /// Re-homes the platform's metrics onto `o->registry` (folding in any
  /// values recorded so far) and enables span emission via `o->tracer`.
  void AttachObservability(obs::Observability* o);

  // ------------------------------------------------------------- guard
  /// Wires in the shared overload-protection bundle: admission control
  /// (when `enable_admission`), deadline enforcement, retry-budget gating
  /// and hedging all activate. Attach observability to the same Guard to
  /// get "cat=guard" spans itemized on the critical path.
  void AttachGuard(guard::Guard* g) { guard_ = g; }
  guard::Guard* guard() { return guard_; }
  const guard::AdmissionController& admission() const { return admission_; }

  // ------------------------------------------------------------- reuse
  /// Wires in the computation-reuse layer (E29). Invocations of functions
  /// registered `idempotent` consult it before dispatch, in order: result
  /// cache (memoized answer, zero cost), approximation (degraded-mode
  /// answer while the SLO burn gate fires), singleflight (attach to an
  /// identical in-flight execution — single-billed). Completed idempotent
  /// executions are offered to the cache under cost-aware admission and
  /// fanned out to any coalesced followers. Attach observability to get
  /// "cat=reuse" spans itemized on the critical path.
  void AttachReuse(reuse::ReuseLayer* r);
  reuse::ReuseLayer* reuse() { return reuse_; }

  // ------------------------------------------------------------- ctrl
  /// Wires keep-alive to live config: defines "faas.keep_alive_us"
  /// (default = the constructed config) and subscribes a setter that
  /// applies at the service's push safe points. Containers that go idle
  /// after the push are retained for the new duration; a container that
  /// was already idle keeps its scheduled teardown.
  void AttachControl(ctrl::ConfigService* service);

  // ------------------------------------------------------------- chaos
  /// Registers container-kill, machine-crash and network-delay hooks under
  /// the "faas" module. Invocations whose container is killed mid-flight
  /// fail the attempt immediately and re-enter the retry path; an
  /// invocation that was chaos-killed and later completes OK is logged as
  /// a recovery.
  void AttachChaos(chaos::InjectorRegistry* registry);

  /// Kills one container (busy or warm). The running attempt, if any,
  /// fails Unavailable and is billed for its elapsed execution time.
  /// Returns false when the container does not exist.
  bool KillContainer(uint64_t container_id, const std::string& reason);

  /// Kills every container placed on `machine` (machine crash). Returns
  /// the number killed.
  size_t KillContainersOnMachine(cluster::MachineId machine,
                                 const std::string& reason);

  /// Extra dispatch latency currently injected (network-delay spikes).
  SimDuration injected_dispatch_delay_us() const {
    return extra_dispatch_delay_us_;
  }

 private:
  struct Function;
  struct Invocation;

  struct Container {
    uint64_t id = 0;
    Function* fn = nullptr;  ///< The function it runs.
    cluster::UnitId unit = 0;
    cluster::MachineId machine = 0;
    SimTime created_us = 0;
    int64_t memory_mb = 0;
    bool busy = false;
    /// ExecutionUnit::owner of the backing cluster unit (the function's
    /// tenant, or the function name when untagged) — read back from the
    /// cluster so exec spans report the owner the scheduler actually used.
    std::string owner;
    sim::EventId keep_alive_event = 0;
    std::unordered_map<std::string, std::string> cache;
    /// In-flight attempt state, so a chaos kill can cancel and fail it and
    /// the completion event needs to capture only the container id.
    sim::EventId inflight_event = 0;
    Invocation* inflight = nullptr;
    bool inflight_cold = false;
    SimDuration inflight_startup_us = 0;
    SimTime exec_began_us = 0;
    /// The attempt's pre-decided execution time and outcome.
    SimDuration inflight_exec_us = 0;
    Status inflight_status;
  };

  /// Pre-resolved tenant-labeled series ("faas.*{tenant=...}"), resolved
  /// once per tenant at function registration and reached from each
  /// Invocation through its Function, so the per-tenant record path costs
  /// the same pointer deref as the aggregate one. Map storage: pointers
  /// stay stable, and BindMetrics rebinds the handles in place.
  struct TenantHandles {
    obs::CounterHandle invocations;
    obs::CounterHandle completions;
    obs::CounterHandle errors;
    obs::HistogramHandle e2e_latency_us;
  };

  /// A registered function: its spec, what the invoke path needs of it
  /// resolved once, and its containers' bookkeeping.
  struct Function {
    FunctionSpec spec;
    TenantHandles* tenant_metrics = nullptr;  ///< nullptr when untenanted.
    /// Its id and tenant series in the attached reuse layer, resolved on
    /// its first reuse lookup after each AttachReuse.
    bool reuse_resolved = false;
    uint32_t reuse_id = 0;
    reuse::ReuseLayer::TenantHandles* reuse_tenant = nullptr;
    /// Live containers (for the per-function concurrency cap).
    size_t containers = 0;
    /// Idle warm container ids (most recently used at the back).
    std::deque<uint64_t> warm;
  };

  struct Invocation {
    uint64_t id = 0;
    /// The registered function (`functions_` nodes never move or go away).
    Function* fn = nullptr;
    /// Read in place by every attempt and the reuse layer.
    std::string payload;
    InvokeCallback cb;
    int attempt = 0;
    SimTime submit_us = 0;
    SimTime attempt_start_us = 0;  ///< When dispatch for this attempt began.
    Money cost_so_far;
    bool chaos_killed = false;  ///< Some attempt died to fault injection.
    obs::TraceContext root_ctx;  ///< "invoke:<fn>" span (invalid: untraced).
    guard::Deadline deadline;    ///< Client deadline (absolute; may be none).
    bool abandoned = false;      ///< Cancelled while between events.
    /// Content-addressed reuse key, set (`has_reuse_key`) only for
    /// idempotent invocations tracked by an attached reuse layer. An
    /// invocation with a key and served_via == kExecution is a singleflight
    /// *leader*: its completion offers the result to the cache and fans out
    /// to followers.
    reuse::ContentKey reuse_key;
    bool has_reuse_key = false;
    ServedVia served_via = ServedVia::kExecution;
    double approx_error_bound = 0.0;
    /// The answer a reuse path serves (cache hit, approximation or a
    /// coalesced leader's result), held here until CompleteFromReuse.
    Status reuse_status;
    std::string reuse_output;
  };

  /// Shared state of one hedged request (primary + optional duplicate).
  struct HedgeState {
    /// What the duplicate is launched with.
    std::string function;
    std::string payload;
    guard::Deadline deadline;
    bool done = false;
    uint64_t primary_id = 0;
    uint64_t hedge_id = 0;
    sim::EventId hedge_timer = 0;
    InvokeCallback cb;
    std::string key;
    obs::TraceContext root_ctx;  ///< "hedged:<fn>" span.
    SimTime submit_us = 0;
  };

  /// Cached registry handles — the record path is a pointer deref, no map
  /// lookups. Rebound by BindMetrics() when the registry changes.
  struct MetricHandles {
    obs::CounterHandle invocations;
    obs::CounterHandle completions;
    obs::CounterHandle cold_starts;
    obs::CounterHandle warm_starts;
    obs::CounterHandle throttled;
    obs::CounterHandle timeouts;
    obs::CounterHandle failures;
    obs::CounterHandle exhausted;
    obs::CounterHandle killed_containers;
    obs::CounterHandle chaos_recoveries;
    obs::GaugeHandle peak_containers;
    obs::GaugeHandle container_mb_us;
    obs::HistogramHandle e2e_latency_us;
    obs::HistogramHandle queue_latency_us;
    obs::HistogramHandle startup_latency_us;
    obs::HistogramHandle exec_latency_us;
  };

  /// Consults the reuse layer for an idempotent invocation. True when the
  /// request was fully handled (cache hit / approximation scheduled, or
  /// attached as a singleflight follower) — the caller must not dispatch.
  /// False proceeds to dispatch; when reuse is active the invocation has
  /// become its key's singleflight leader.
  bool TryServeReuse(Invocation* inv);
  /// Terminal delivery of the reuse-served answer held on the invocation
  /// (hit / coalesced / approximation) through the normal Complete path.
  void CompleteFromReuse(Invocation* inv);

  void Dispatch(Invocation* inv);
  /// Attempts to start the invocation now; false means no capacity and the
  /// caller should queue it.
  bool TryPlace(Invocation* inv);
  /// A new container, busy until its first attempt ends (or, prewarmed,
  /// until `startup_us` of runtime and function init has passed).
  struct ColdStart {
    Container* container;
    SimDuration startup_us;
  };
  /// Cold-starts a container for `fn` within the account and per-function
  /// concurrency caps: allocates its cluster unit, records it and samples
  /// its start-up time. ResourceExhausted when a cap or the cluster has no
  /// room; any other error comes from the cluster.
  Result<ColdStart> LaunchContainer(Function* fn);
  /// Cancels the container's pending keep-alive teardown, if any.
  void CancelKeepAlive(Container* c);
  void StartOnContainer(Invocation* inv, Container* container, bool cold,
                        SimDuration startup_us);
  void FinishAttempt(Invocation* inv, Container* container, bool cold,
                     SimDuration startup_us, SimDuration exec_us,
                     Status attempt_status, std::string output);
  /// Retries the failed attempt (with the policy's backoff) when budget
  /// remains, else completes the invocation.
  void RetryOrComplete(Invocation* inv, bool cold, SimDuration startup_us,
                       SimDuration exec_us, Status attempt_status,
                       std::string output);
  /// Delivers the terminal result and takes the invocation out of `live_`;
  /// it is destroyed when Complete returns.
  void Complete(Invocation* inv, bool cold, SimDuration startup_us,
                SimDuration exec_us, Status status, std::string output);
  void ReleaseToWarmPool(Container* container);
  void DestroyContainer(uint64_t container_id);
  /// DestroyContainer that also works on busy containers (chaos kill).
  void ForceDestroyContainer(uint64_t container_id);
  /// The attempt StopAttempt took off its container.
  struct StoppedAttempt {
    Invocation* inv = nullptr;
    bool cold = false;
    SimDuration startup_us = 0;  ///< Start-up elapsed before the stop.
    SimDuration exec_us = 0;     ///< Execution burned (and billed).
  };
  /// Stops the attempt in flight on `c` (chaos kill or cancel): cancels its
  /// completion event, bills and records the execution burned so far, and
  /// emits its spans with `status`. A kill also counts an attempt failure
  /// and marks the invocation chaos-killed. The container is the caller's.
  StoppedAttempt StopAttempt(Container* c, const Status& status, bool killed);
  void DrainPending();
  SimDuration SampleDispatchDelay();
  /// Cancel + Complete(Cancelled); returns the execution time billed to
  /// the cancelled attempt (the hedge's duplicate-work cost).
  SimDuration CancelInvocationInternal(uint64_t id, const std::string& why);
  /// One hedged attempt finished; first terminal result wins.
  void OnHedgeResult(std::shared_ptr<HedgeState> hs,
                     const InvocationResult& res, bool from_hedge);
  /// Structural drain parallelism the admission controller assumes.
  size_t AdmissionParallelism() const {
    return std::max<size_t>(1, config_.max_concurrency);
  }
  /// True when guard admission/deadline enforcement is active.
  bool GuardActive() const {
    return guard_ != nullptr && config_.enable_admission;
  }

  void BindMetrics();
  /// Resolves (or returns the cached) labeled handles for `tenant`.
  TenantHandles* TenantMetrics(const std::string& tenant);
  /// Adds memory-time to the native integral and mirrors it to the gauge.
  void AccumulateMemoryTime(const Container& c);
  /// Emits the queue/cold/exec spans of one finished (or killed) attempt
  /// on container `c`, all parented under the invocation's root span.
  void EmitAttemptSpans(const Invocation& inv, const Container& c,
                        SimTime attempt_end_us, SimDuration startup_us,
                        SimDuration exec_us, bool cold,
                        const Status& attempt_status, bool killed);

  sim::Simulation* sim_;
  cluster::Cluster* cluster_;
  FaasConfig config_;
  Rng rng_;
  BillingLedger ledger_;
  /// Canonical metric store: the platform's own registry until
  /// AttachObservability() re-homes it onto a shared one.
  obs::Registry own_registry_;
  obs::Registry* registry_ = &own_registry_;
  MetricHandles h_;
  std::map<std::string, TenantHandles> tenant_handles_;
  obs::Observability* obs_ = nullptr;
  long double container_mb_us_ = 0;
  mutable PlatformMetrics metrics_view_;

  std::unordered_map<std::string, Function> functions_;
  std::unordered_map<uint64_t, Container> containers_;
  /// Invocations waiting for capacity.
  std::deque<Invocation*> pending_;
  /// Every non-terminal invocation by id, and its only owner: map nodes
  /// never move, so everything else holds a plain Invocation*. At any
  /// moment exactly one continuation refers to a live invocation — one
  /// scheduled event (dispatch, retry, shed or reuse answer), a pending_
  /// slot, a busy container's `inflight` or a singleflight follower — and
  /// that continuation is what completes it. Cancelling between events
  /// only sets `abandoned`; the next continuation then completes it.
  /// Complete() extracts the node, so terminal means gone from here, and
  /// the invocation outlives its callback and fan-out. A re-entrant Invoke
  /// from a callback inserts other nodes, which never moves existing ones.
  std::unordered_map<uint64_t, Invocation> live_;
  guard::Guard* guard_ = nullptr;
  guard::AdmissionController admission_;
  reuse::ReuseLayer* reuse_ = nullptr;
  uint64_t next_invocation_id_ = 1;
  uint64_t next_container_id_ = 1;
  chaos::InjectorRegistry* chaos_ = nullptr;
  SimDuration extra_dispatch_delay_us_ = 0;
};

}  // namespace taureau::faas
