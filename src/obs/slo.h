// SLO engine: per-module latency/availability objectives, error budgets,
// and multi-window burn-rate alerting, all evaluated in simulated time.
//
// Each finalized trace becomes one good/bad event against every objective
// whose module matches the trace's root span. Burn rate over a window W is
// bad_fraction(W) / (1 - target): burn 1.0 consumes the error budget
// exactly at the rate that exhausts it at the end of the (implied) budget
// period; the classic multi-window rule fires only when BOTH a long and a
// short window burn above the threshold — the long window gives
// significance, the short one confirms the problem is still happening
// (and clears the alert quickly once it stops).
//
// Tenant scoping: an objective with `per_tenant = true` additionally keeps
// one burn-rate track per tenant, lazily materialized and bounded by a
// cardinality guard. At most `max_tenant_series` tenants hold exact
// windowed state at a time; a SpaceSaving sketch over tenant popularity
// decides who deserves a slot (top-K by estimated frequency), everyone
// else aggregates into the kOtherTenant track. When a sketch-tracked
// newcomer overtakes the weakest materialized tenant, the weakest is
// demoted (its lifetime totals fold into kOtherTenant, its firing alerts
// clear) — so the exact set converges to the true heavy hitters under any
// popularity drift, and per-tenant counts are exact up to an exported
// attribution bound (events the tenant contributed to kOtherTenant before
// it was materialized; never more than its sketch estimate at promotion).
//
// Everything is driven by event timestamps the caller passes in, so two
// same-seed simulations produce byte-identical alert logs. Record()
// requires non-decreasing timestamps: a regression trips an assert in
// debug builds (unless AllowClockRegression(true)) and is clamped to the
// previous timestamp — and counted — in release builds.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/time_types.h"
#include "sketch/spacesaving.h"

namespace taureau::obs {

/// The aggregation track long-tail tenants share under the cardinality
/// guard. Also where events with an empty tenant land on per-tenant
/// objectives.
inline constexpr const char kOtherTenant[] = "__other__";

/// One alerting rule attached to an objective.
struct BurnRatePolicy {
  std::string name;             ///< "page", "ticket", ...
  SimDuration long_window_us = 0;
  SimDuration short_window_us = 0;
  double burn_threshold = 1.0;  ///< Fire when both windows burn >= this.
};

/// One objective. `latency_budget_us >= 0` makes it a latency objective
/// (good = ok AND within budget); negative makes it availability-only
/// (good = ok).
struct SloObjective {
  std::string name;    ///< Unique key, e.g. "faas-latency".
  std::string module;  ///< Root-span module this objective scores.
  double target = 0.999;  ///< Required good fraction.
  SimDuration latency_budget_us = -1;
  std::vector<BurnRatePolicy> policies;

  /// Keep per-tenant burn-rate tracks in addition to the module aggregate.
  bool per_tenant = false;
  /// Cardinality guard: at most this many tenants with exact windowed
  /// state (kOtherTenant excluded); also the SpaceSaving sketch capacity.
  size_t max_tenant_series = 64;
};

/// One rising or falling edge of an alert. `tenant` is empty for the
/// module-level aggregate track.
struct AlertEvent {
  SimTime at_us = 0;
  std::string objective;
  std::string policy;
  std::string tenant;
  bool firing = false;
  double burn_long = 0;
  double burn_short = 0;
};

class SloEngine {
 public:
  SloEngine() = default;
  SloEngine(const SloEngine&) = delete;
  SloEngine& operator=(const SloEngine&) = delete;

  void AddObjective(SloObjective objective);

  /// Scores one finished request against every objective matching
  /// `module`, then re-evaluates that objective's alert rules at `at_us`.
  /// Events must arrive in non-decreasing time order (simulation order);
  /// see the regression policy in the header comment.
  void Record(const std::string& module, SimTime at_us,
              SimDuration latency_us, bool ok) {
    Record(module, std::string_view(), at_us, latency_us, ok);
  }

  /// Tenant-attributed variant: additionally scores the tenant's track on
  /// every matching per-tenant objective. An empty tenant (or a tenant the
  /// cardinality guard declines to materialize) lands on kOtherTenant.
  void Record(const std::string& module, std::string_view tenant,
              SimTime at_us, SimDuration latency_us, bool ok);

  /// Smallest latency budget among latency objectives for `module`
  /// (the "p99 budget" tail sampling treats as the slow threshold);
  /// -1 when none is configured.
  SimDuration SlowBudgetFor(const std::string& module) const;

  /// Burn rate of `objective` over the trailing window ending at `now`:
  /// the kept events newer than now - window, i.e. (now - window, now]
  /// when `now` is at or after the last Record. Events that fell out of
  /// the longest policy window at an earlier Record are no longer kept.
  /// 0 when no events or unknown name.
  double BurnRate(const std::string& objective, SimDuration window_us,
                  SimTime now_us) const;

  /// Fraction of the total error budget still unspent, assuming the
  /// events seen so far are the whole budget period: 1 - bad/(total*(1 -
  /// target)). Clamped at 0; 1.0 when no events. Budget exhaustion is
  /// BudgetRemaining() == 0.
  double BudgetRemaining(const std::string& objective) const;

  uint64_t TotalEvents(const std::string& objective) const;
  uint64_t BadEvents(const std::string& objective) const;
  bool IsFiring(const std::string& objective, const std::string& policy) const;

  // -- Per-tenant reads (objectives with per_tenant = true). Unknown
  //    objective/tenant reads as zero/false, mirroring the aggregate API.

  /// Burn rate of one tenant's track (kOtherTenant reads the long tail).
  double TenantBurnRate(const std::string& objective, const std::string& tenant,
                        SimDuration window_us, SimTime now_us) const;
  uint64_t TenantTotalEvents(const std::string& objective,
                             const std::string& tenant) const;
  uint64_t TenantBadEvents(const std::string& objective,
                           const std::string& tenant) const;
  bool IsTenantFiring(const std::string& objective, const std::string& tenant,
                      const std::string& policy) const;
  /// Materialized tenants (sorted, kOtherTenant included once present).
  std::vector<std::string> MaterializedTenants(
      const std::string& objective) const;
  /// Upper bound on events this tenant contributed to kOtherTenant before
  /// materialization: exact_count(tenant) - TenantTotalEvents(tenant) is
  /// always within [0, this]. 0 for tenants materialized on first sight.
  uint64_t TenantAttributionBound(const std::string& objective,
                                  const std::string& tenant) const;
  /// Cardinality-guard demotions performed for `objective`.
  uint64_t TenantDemotions(const std::string& objective) const;
  /// The popularity sketch backing the guard (nullptr when the objective is
  /// unknown or not per-tenant). Error bounds: every entry's error, and the
  /// sketch minimum, are <= total()/capacity (SpaceSaving guarantee).
  const sketch::SpaceSaving* TenantSketch(const std::string& objective) const;

  /// Every alert edge so far, in the order they happened.
  const std::vector<AlertEvent>& alerts() const { return alerts_; }

  /// Events whose timestamp regressed and was clamped (release-mode
  /// fallback for the non-decreasing-time precondition).
  uint64_t clamped_events() const { return clamped_events_; }
  /// Debug builds assert on a clock regression unless this is set (tests
  /// exercising the clamp path set it; release builds always clamp+count).
  void AllowClockRegression(bool allow) { allow_clock_regression_ = allow; }

  /// Deterministic objective summaries (+ per-tenant lines and guard
  /// stats for per-tenant objectives) + the alert edge log.
  std::string ExportText() const;

 private:
  /// One windowed event. `bad_before` is the track's window_bad when the
  /// event was pushed, so the bad count of any suffix of the window is
  /// window_bad minus the suffix's first bad_before.
  struct Event {
    SimTime at_us;
    uint64_t bad_before;
  };
  /// One policy's evaluation state in one track. The cursors are the first
  /// window index inside the policy's long and short window at the last
  /// Evaluate; timestamps never decrease, so they only move forward.
  struct PolicyState {
    size_t long_first = 0;
    size_t short_first = 0;
    /// Alert state of the policy *name*: policies sharing a name share the
    /// flag of the first of them (State::flag_of).
    bool firing = false;
  };
  /// One burn-rate accounting unit: the module aggregate, or one tenant.
  struct Track {
    uint64_t total = 0;
    uint64_t bad = 0;              ///< Lifetime; Demote folds victims in.
    uint64_t window_bad = 0;       ///< Bad events ever pushed to `window`.
    /// window[head, end) are the events within the longest window, in time
    /// order; the aged-out prefix is erased once it passes half the vector,
    /// so the live events stay contiguous and the capacity is reused.
    std::vector<Event> window;
    size_t head = 0;
    /// By policy index; sized when the track is created.
    std::vector<PolicyState> policies;
    uint64_t attribution_bound = 0;      ///< See TenantAttributionBound.
  };
  /// Transparent, so a tenant resolves from a string_view without a copy.
  using TenantMap = std::map<std::string, Track, std::less<>>;
  struct State {
    SloObjective spec;
    SimDuration max_window_us = 0;
    /// By policy index: the index of the first policy with the same name,
    /// whose PolicyState holds the alert flag.
    std::vector<size_t> flag_of;
    /// The distinct flags (first policy of each name) in name order, the
    /// order Demote clears them in.
    std::vector<size_t> flags_by_name;
    Track agg;
    TenantMap tenants;  ///< Materialized + kOtherTenant.
    std::unique_ptr<sketch::SpaceSaving> popularity;  ///< per_tenant only.
    uint64_t demotions = 0;
  };

  using TenantIter = TenantMap::iterator;

  /// Burn of the window suffix window[first, end).
  static double BurnFrom(const Track& tr, double target, size_t first);
  /// Burn over (now - W, now] at any `now`, by binary search (the readers).
  static double WindowBurn(const Track& tr, double target,
                           SimDuration window_us, SimTime now_us);
  /// The alert flag of policy name `policy` in `tr` (false if unknown).
  static bool Firing(const State& st, const Track& tr,
                     std::string_view policy);
  /// `tenant`'s track, created with one PolicyState per policy if absent.
  static TenantIter TenantTrack(State* st, std::string_view tenant);
  /// Pushes the event into `tr`, ages the window, evaluates policies.
  void Score(State* st, Track* tr, const std::string& tenant, SimTime at_us,
             bool good);
  void Evaluate(State* st, Track* tr, const std::string& tenant,
                SimTime now_us);
  /// The track `tenant` scores into under the cardinality guard; may
  /// demote the weakest materialized tenant to make room.
  TenantIter ResolveTenant(State* st, std::string_view tenant, SimTime at_us);
  void Demote(State* st, const std::string& tenant, SimTime at_us);
  const Track* FindTenant(const std::string& objective,
                          const std::string& tenant) const;

  std::map<std::string, State> objectives_;
  std::vector<AlertEvent> alerts_;
  SimTime last_at_us_ = 0;
  uint64_t clamped_events_ = 0;
  bool allow_clock_regression_ = false;
};

}  // namespace taureau::obs
