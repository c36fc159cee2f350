// taureau::guard — overload protection, bundled.
//
// E20 showed retries close the availability gap; this module keeps the
// same retries from amplifying an overload into a metastable storm. One
// Guard instance is shared by every request path of a deployment and
// carries the cross-cutting state:
//
//   - a RetryBudget gating all retry decisions (platform retries,
//     orchestrator Retry nodes, client resubmits),
//   - a HedgeDelayTracker feeding the p95-tracked hedge delay,
//   - a bounded IdempotencyCache deduplicating hedged duplicates,
//   - obs metrics + span emission for every guard decision, so the E21
//     critical path itemizes shed / deadline / hedge time ("cat=guard").
//
// AdmissionControllers stay with the queues they front (server pool,
// platform, broker, Jiffy controller) — each module owns its controller
// and reports its decisions here for uniform accounting.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "chaos/idempotency.h"
#include "common/time_types.h"
#include "ctrl/config.h"
#include "guard/admission.h"
#include "guard/hedging.h"
#include "guard/retry_budget.h"
#include "obs/metrics.h"
#include "obs/observability.h"
#include "obs/trace.h"

namespace taureau::guard {

struct GuardConfig {
  RetryBudgetConfig retry_budget;
  HedgeConfig hedge;
};

/// Aggregate counters, materialized from the metric registry on demand.
struct GuardStats {
  uint64_t shed_queue_full = 0;
  uint64_t shed_deadline = 0;
  uint64_t deadline_exceeded = 0;
  uint64_t retries_granted = 0;
  uint64_t retries_denied = 0;
  uint64_t hedges_launched = 0;
  uint64_t hedge_wins = 0;
  uint64_t hedge_cancelled = 0;
  uint64_t hedge_deduped = 0;
};

class Guard {
 public:
  /// Capacity of the hedge-deduplication idempotency cache.
  static constexpr size_t kDedupeCapacity = 4096;

  Guard() : Guard(GuardConfig{}) {}
  explicit Guard(GuardConfig config);

  const GuardConfig& config() const { return config_; }
  RetryBudget& retry_budget() { return retry_budget_; }
  HedgeDelayTracker& hedge() { return hedge_; }
  chaos::IdempotencyCache& dedupe() { return dedupe_; }

  /// Re-homes guard metrics into the shared registry (same contract as
  /// every other module's AttachObservability) and enables span emission.
  void AttachObservability(obs::Observability* o);
  obs::Observability* observability() const { return obs_; }
  obs::Registry& registry() { return *registry_; }

  /// Wires the retry budget (refill ratio, capacity) and hedge delay
  /// quantile to live config: defines "guard.retry.refill_ratio",
  /// "guard.retry.max_tokens" and "guard.hedge.delay_quantile" (defaults =
  /// the constructed config) and subscribes setters that apply at the
  /// service's push safe points.
  void AttachControl(ctrl::ConfigService* service);

  /// Tags retry-budget state with the cluster's membership epoch (E25):
  /// every retry decision samples the provider into "guard.epoch" and adds
  /// an "epoch" attr to denial spans, so budget exhaustion can be
  /// correlated with membership churn.
  void SetEpochProvider(std::function<uint64_t()> provider);

  // ---- decision recording -------------------------------------------------
  // Each Record* bumps the matching counter and, when tracing is attached
  // and `parent` is valid, emits a "cat=guard" span under the request so
  // the critical path itemizes the decision.

  /// A shed decision from any module's AdmissionController ("faas",
  /// "pubsub", "jiffy", "pool"). Admits are not recorded here — the
  /// controller counts them. A non-empty `tenant` additionally bumps the
  /// tenant-labeled series (guard.sheds{tenant=...}) and tags the span,
  /// so storms are attributable to who caused them.
  void RecordShed(const std::string& module, AdmissionDecision d,
                  obs::TraceContext parent, SimTime now,
                  const std::string& tenant = std::string());

  /// In-flight work cancelled because its deadline expired. The span
  /// covers [start_us, now] — the time the doomed work held resources —
  /// charged to the guard category.
  void RecordDeadlineExceeded(const std::string& module,
                              obs::TraceContext parent, SimTime start_us,
                              SimTime now,
                              const std::string& tenant = std::string());

  /// A retry-budget decision (granted or denied).
  void RecordRetryDecision(const std::string& module, bool granted,
                           obs::TraceContext parent, SimTime now,
                           const std::string& tenant = std::string());

  void RecordHedgeLaunched();
  void RecordHedgeWin();
  /// `wasted_us` = execution time billed to the cancelled duplicate.
  void RecordHedgeCancelled(SimDuration wasted_us);
  void RecordHedgeDeduped();

  /// Emits a finished guard-category span (e.g. the hedge wait window).
  /// No-op without tracing or a valid parent.
  obs::TraceContext EmitGuardSpan(std::string_view name,
                                  std::string_view module,
                                  obs::TraceContext parent, SimTime start_us,
                                  SimTime end_us,
                                  obs::SpanAttrList extra_attrs = {});

  GuardStats stats() const;
  /// Total duplicate execution time billed to cancelled hedges.
  SimDuration hedge_wasted_us() const { return hedge_wasted_us_; }

 private:
  /// Pre-resolved per-tenant labeled series, materialized on the first
  /// decision a tenant triggers and re-resolved on re-homing. Bounded by
  /// the tenants the workload actually names — resolution is off the hot
  /// path, the per-decision cost is one map lookup.
  struct TenantHandles {
    obs::CounterHandle sheds;
    obs::CounterHandle deadline_exceeded;
    obs::CounterHandle retries_granted;
    obs::CounterHandle retries_denied;
  };

  void BindMetrics();
  TenantHandles& TenantMetrics(const std::string& tenant);

  GuardConfig config_;
  RetryBudget retry_budget_;
  HedgeDelayTracker hedge_;
  chaos::IdempotencyCache dedupe_;

  obs::Registry own_registry_;
  obs::Registry* registry_ = &own_registry_;
  obs::Observability* obs_ = nullptr;

  SimDuration hedge_wasted_us_ = 0;

  struct MetricHandles {
    obs::CounterHandle shed_queue_full;
    obs::CounterHandle shed_deadline;
    obs::CounterHandle deadline_exceeded;
    obs::CounterHandle retries_granted;
    obs::CounterHandle retries_denied;
    obs::CounterHandle hedges_launched;
    obs::CounterHandle hedge_wins;
    obs::CounterHandle hedge_cancelled;
    obs::CounterHandle hedge_deduped;
    obs::GaugeHandle retry_tokens;
    obs::GaugeHandle epoch;
    obs::HistogramHandle hedge_wasted;
  };
  MetricHandles h_;
  std::map<std::string, TenantHandles> tenant_handles_;
  std::function<uint64_t()> epoch_provider_;
};

}  // namespace taureau::guard
