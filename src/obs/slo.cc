#include "obs/slo.h"

#include <algorithm>
#include <cassert>
#include <cstdio>

namespace taureau::obs {

void SloEngine::AddObjective(SloObjective objective) {
  State st;
  st.max_window_us = 0;
  const std::vector<BurnRatePolicy>& policies = objective.policies;
  for (size_t i = 0; i < policies.size(); ++i) {
    const BurnRatePolicy& p = policies[i];
    st.max_window_us = std::max(
        st.max_window_us, std::max(p.long_window_us, p.short_window_us));
    size_t first = 0;
    while (policies[first].name != p.name) ++first;
    st.flag_of.push_back(first);
    if (first == i) st.flags_by_name.push_back(i);
  }
  std::sort(st.flags_by_name.begin(), st.flags_by_name.end(),
            [&policies](size_t a, size_t b) {
              return policies[a].name < policies[b].name;
            });
  st.agg.policies.resize(policies.size());
  if (objective.per_tenant) {
    objective.max_tenant_series = std::max<size_t>(objective.max_tenant_series, 1);
    st.popularity =
        std::make_unique<sketch::SpaceSaving>(objective.max_tenant_series);
  }
  st.spec = std::move(objective);
  objectives_.insert_or_assign(st.spec.name, std::move(st));
}

void SloEngine::Record(const std::string& module, std::string_view tenant,
                       SimTime at_us, SimDuration latency_us, bool ok) {
  if (at_us < last_at_us_) {
    // Documented precondition: events arrive in simulation order. Loud in
    // debug; clamp to the last timestamp (and count) in release so window
    // aging never walks backwards.
    assert(allow_clock_regression_ &&
           "SloEngine::Record: timestamps must be non-decreasing");
    ++clamped_events_;
    at_us = last_at_us_;
  } else {
    last_at_us_ = at_us;
  }
  for (auto& [name, st] : objectives_) {
    if (st.spec.module != module) continue;
    const bool good =
        ok && (st.spec.latency_budget_us < 0 ||
               latency_us <= st.spec.latency_budget_us);
    Score(&st, &st.agg, std::string(), at_us, good);
    if (st.spec.per_tenant) {
      auto it = ResolveTenant(&st, tenant, at_us);
      Score(&st, &it->second, it->first, at_us, good);
    }
  }
}

SloEngine::TenantIter SloEngine::TenantTrack(State* st,
                                             std::string_view tenant) {
  auto it = st->tenants.lower_bound(tenant);
  if (it != st->tenants.end() && it->first == tenant) return it;
  it = st->tenants.emplace_hint(it, std::string(tenant), Track());
  it->second.policies.resize(st->spec.policies.size());
  return it;
}

SloEngine::TenantIter SloEngine::ResolveTenant(State* st,
                                               std::string_view tenant,
                                               SimTime at_us) {
  if (tenant.empty() || tenant == kOtherTenant) {
    return TenantTrack(st, kOtherTenant);
  }
  st->popularity->Add(tenant);
  auto it = st->tenants.find(tenant);
  if (it != st->tenants.end()) return it;

  const size_t exact =
      st->tenants.size() - st->tenants.count(kOtherTenant);
  const uint64_t estimate = st->popularity->EstimateCount(tenant);
  auto materialize = [&] {
    auto ins = TenantTrack(st, tenant);
    // Events this tenant may already have pushed into kOtherTenant (only
    // possible after demotions emptied a slot): never more than its sketch
    // estimate minus the event being recorded now.
    ins->second.attribution_bound = estimate > 0 ? estimate - 1 : 0;
    return ins;
  };
  if (exact < st->spec.max_tenant_series) return materialize();
  // Guard full: materialize only if the sketch says this tenant has
  // overtaken the weakest materialized one; otherwise it stays long-tail.
  bool found = false;
  std::string weakest_name;
  uint64_t weakest_estimate = 0;
  for (const auto& [name, track] : st->tenants) {
    if (name == kOtherTenant) continue;
    const uint64_t est = st->popularity->EstimateCount(name);
    if (!found || est < weakest_estimate) {
      found = true;
      weakest_name = name;
      weakest_estimate = est;
    }
  }
  if (found && estimate > weakest_estimate) {
    Demote(st, weakest_name, at_us);
    return materialize();
  }
  return TenantTrack(st, kOtherTenant);
}

void SloEngine::Demote(State* st, const std::string& tenant, SimTime at_us) {
  auto it = st->tenants.find(tenant);
  if (it == st->tenants.end()) return;
  Track& victim = it->second;
  // Clear any firing alerts so IsTenantFiring never reports a ghost.
  for (size_t flag : st->flags_by_name) {
    bool& firing = victim.policies[flag].firing;
    if (!firing) continue;
    firing = false;
    alerts_.push_back({at_us, st->spec.name, st->spec.policies[flag].name,
                       tenant, false, 0.0, 0.0});
  }
  Track& other = TenantTrack(st, kOtherTenant)->second;
  other.total += victim.total;
  other.bad += victim.bad;
  // The folded lifetime counts are no longer tenant-exact; widen the
  // long-tail bound by what was folded in.
  other.attribution_bound += victim.total;
  ++st->demotions;
  st->tenants.erase(st->tenants.find(tenant));
}

void SloEngine::Score(State* st, Track* tr, const std::string& tenant,
                      SimTime at_us, bool good) {
  ++tr->total;
  if (!good) ++tr->bad;
  if (st->max_window_us > 0) {
    tr->window.push_back({at_us, tr->window_bad});
    if (!good) ++tr->window_bad;
    // Window semantics are (now - W, now]: an event exactly W old has
    // aged out. The event just pushed never has, so head stays in range.
    while (tr->window[tr->head].at_us <= at_us - st->max_window_us) {
      ++tr->head;
    }
    if (tr->head > tr->window.size() / 2) {
      tr->window.erase(tr->window.begin(),
                       tr->window.begin() + std::ptrdiff_t(tr->head));
      // A cursor still in the erased prefix restarts at the new head.
      for (PolicyState& ps : tr->policies) {
        ps.long_first = std::max(ps.long_first, tr->head) - tr->head;
        ps.short_first = std::max(ps.short_first, tr->head) - tr->head;
      }
      tr->head = 0;
    }
  }
  Evaluate(st, tr, tenant, at_us);
}

SimDuration SloEngine::SlowBudgetFor(const std::string& module) const {
  SimDuration best = -1;
  for (const auto& [name, st] : objectives_) {
    if (st.spec.module != module || st.spec.latency_budget_us < 0) continue;
    if (best < 0 || st.spec.latency_budget_us < best) {
      best = st.spec.latency_budget_us;
    }
  }
  return best;
}

double SloEngine::BurnFrom(const Track& tr, double target, size_t first) {
  if (first == tr.window.size()) return 0.0;
  const uint64_t total = uint64_t(tr.window.size() - first);
  const uint64_t bad = tr.window_bad - tr.window[first].bad_before;
  const double bad_fraction = double(bad) / double(total);
  const double budget = 1.0 - target;
  return budget > 0 ? bad_fraction / budget : (bad > 0 ? 1e18 : 0.0);
}

double SloEngine::WindowBurn(const Track& tr, double target,
                             SimDuration window_us, SimTime now_us) {
  // Timestamps in the window never decrease, so the events newer than
  // now - W are a suffix: binary-search its start, then total and bad are
  // differences of counts instead of a walk over the window.
  const SimTime cutoff = now_us - window_us;
  const auto first = std::partition_point(
      tr.window.begin() + std::ptrdiff_t(tr.head), tr.window.end(),
      [cutoff](const Event& e) { return e.at_us <= cutoff; });
  return BurnFrom(tr, target, size_t(first - tr.window.begin()));
}

void SloEngine::Evaluate(State* st, Track* tr, const std::string& tenant,
                         SimTime now_us) {
  // Record clamps timestamps to be non-decreasing, so each window's cutoff
  // only moves forward and its start is its cursor advanced past the
  // events that aged out since the last Evaluate: amortized O(1).
  auto advance = [tr](size_t first, SimTime cutoff) {
    first = std::max(first, tr->head);
    while (first < tr->window.size() && tr->window[first].at_us <= cutoff) {
      ++first;
    }
    return first;
  };
  const std::vector<BurnRatePolicy>& policies = st->spec.policies;
  for (size_t i = 0; i < policies.size(); ++i) {
    const BurnRatePolicy& p = policies[i];
    PolicyState& ps = tr->policies[i];
    ps.long_first = advance(ps.long_first, now_us - p.long_window_us);
    ps.short_first = advance(ps.short_first, now_us - p.short_window_us);
    const double burn_long = BurnFrom(*tr, st->spec.target, ps.long_first);
    const double burn_short = BurnFrom(*tr, st->spec.target, ps.short_first);
    const bool fire =
        burn_long >= p.burn_threshold && burn_short >= p.burn_threshold;
    bool& firing = tr->policies[st->flag_of[i]].firing;
    if (fire == firing) continue;
    firing = fire;
    alerts_.push_back(
        {now_us, st->spec.name, p.name, tenant, fire, burn_long, burn_short});
  }
}

double SloEngine::BurnRate(const std::string& objective,
                           SimDuration window_us, SimTime now_us) const {
  const auto it = objectives_.find(objective);
  return it != objectives_.end()
             ? WindowBurn(it->second.agg, it->second.spec.target, window_us,
                          now_us)
             : 0.0;
}

double SloEngine::BudgetRemaining(const std::string& objective) const {
  const auto it = objectives_.find(objective);
  if (it == objectives_.end() || it->second.agg.total == 0) return 1.0;
  const State& st = it->second;
  const double allowed = double(st.agg.total) * (1.0 - st.spec.target);
  if (allowed <= 0) return st.agg.bad == 0 ? 1.0 : 0.0;
  return std::max(0.0, 1.0 - double(st.agg.bad) / allowed);
}

uint64_t SloEngine::TotalEvents(const std::string& objective) const {
  const auto it = objectives_.find(objective);
  return it != objectives_.end() ? it->second.agg.total : 0;
}

uint64_t SloEngine::BadEvents(const std::string& objective) const {
  const auto it = objectives_.find(objective);
  return it != objectives_.end() ? it->second.agg.bad : 0;
}

bool SloEngine::Firing(const State& st, const Track& tr,
                       std::string_view policy) {
  for (size_t flag : st.flags_by_name) {
    if (st.spec.policies[flag].name == policy) return tr.policies[flag].firing;
  }
  return false;
}

bool SloEngine::IsFiring(const std::string& objective,
                         const std::string& policy) const {
  const auto it = objectives_.find(objective);
  return it != objectives_.end() && Firing(it->second, it->second.agg, policy);
}

const SloEngine::Track* SloEngine::FindTenant(const std::string& objective,
                                              const std::string& tenant) const {
  const auto it = objectives_.find(objective);
  if (it == objectives_.end()) return nullptr;
  const auto tit = it->second.tenants.find(tenant);
  return tit != it->second.tenants.end() ? &tit->second : nullptr;
}

double SloEngine::TenantBurnRate(const std::string& objective,
                                 const std::string& tenant,
                                 SimDuration window_us, SimTime now_us) const {
  const Track* tr = FindTenant(objective, tenant);
  if (tr == nullptr) return 0.0;
  return WindowBurn(*tr, objectives_.at(objective).spec.target, window_us,
                    now_us);
}

uint64_t SloEngine::TenantTotalEvents(const std::string& objective,
                                      const std::string& tenant) const {
  const Track* tr = FindTenant(objective, tenant);
  return tr != nullptr ? tr->total : 0;
}

uint64_t SloEngine::TenantBadEvents(const std::string& objective,
                                    const std::string& tenant) const {
  const Track* tr = FindTenant(objective, tenant);
  return tr != nullptr ? tr->bad : 0;
}

bool SloEngine::IsTenantFiring(const std::string& objective,
                               const std::string& tenant,
                               const std::string& policy) const {
  const Track* tr = FindTenant(objective, tenant);
  return tr != nullptr && Firing(objectives_.at(objective), *tr, policy);
}

std::vector<std::string> SloEngine::MaterializedTenants(
    const std::string& objective) const {
  std::vector<std::string> out;
  const auto it = objectives_.find(objective);
  if (it == objectives_.end()) return out;
  for (const auto& [tenant, track] : it->second.tenants) out.push_back(tenant);
  return out;
}

uint64_t SloEngine::TenantAttributionBound(const std::string& objective,
                                           const std::string& tenant) const {
  const Track* tr = FindTenant(objective, tenant);
  return tr != nullptr ? tr->attribution_bound : 0;
}

uint64_t SloEngine::TenantDemotions(const std::string& objective) const {
  const auto it = objectives_.find(objective);
  return it != objectives_.end() ? it->second.demotions : 0;
}

const sketch::SpaceSaving* SloEngine::TenantSketch(
    const std::string& objective) const {
  const auto it = objectives_.find(objective);
  return it != objectives_.end() ? it->second.popularity.get() : nullptr;
}

std::string SloEngine::ExportText() const {
  std::string out;
  char buf[256];
  for (const auto& [name, st] : objectives_) {
    std::snprintf(
        buf, sizeof(buf),
        "%s module=%s target=%.6g total=%llu bad=%llu budget_remaining=%.6g\n",
        name.c_str(), st.spec.module.c_str(), st.spec.target,
        static_cast<unsigned long long>(st.agg.total),
        static_cast<unsigned long long>(st.agg.bad), BudgetRemaining(name));
    out += buf;
    if (!st.spec.per_tenant) continue;
    for (const auto& [tenant, tr] : st.tenants) {
      std::snprintf(buf, sizeof(buf),
                    "  tenant=%s total=%llu bad=%llu attribution_bound=%llu\n",
                    tenant.c_str(), static_cast<unsigned long long>(tr.total),
                    static_cast<unsigned long long>(tr.bad),
                    static_cast<unsigned long long>(tr.attribution_bound));
      out += buf;
    }
    const uint64_t sketch_total =
        st.popularity != nullptr ? st.popularity->total() : 0;
    std::snprintf(
        buf, sizeof(buf),
        "  tenant_guard k=%llu materialized=%llu demotions=%llu "
        "sketch_total=%llu sketch_error_bound=%llu\n",
        static_cast<unsigned long long>(st.spec.max_tenant_series),
        static_cast<unsigned long long>(st.tenants.size()),
        static_cast<unsigned long long>(st.demotions),
        static_cast<unsigned long long>(sketch_total),
        static_cast<unsigned long long>(sketch_total /
                                        st.spec.max_tenant_series));
    out += buf;
  }
  for (const AlertEvent& a : alerts_) {
    if (a.tenant.empty()) {
      std::snprintf(buf, sizeof(buf),
                    "alert %s/%s %s at=%lld burn_long=%.6g burn_short=%.6g\n",
                    a.objective.c_str(), a.policy.c_str(),
                    a.firing ? "FIRING" : "clear",
                    static_cast<long long>(a.at_us), a.burn_long, a.burn_short);
    } else {
      std::snprintf(
          buf, sizeof(buf),
          "alert %s/%s tenant=%s %s at=%lld burn_long=%.6g burn_short=%.6g\n",
          a.objective.c_str(), a.policy.c_str(), a.tenant.c_str(),
          a.firing ? "FIRING" : "clear", static_cast<long long>(a.at_us),
          a.burn_long, a.burn_short);
    }
    out += buf;
  }
  if (clamped_events_ > 0) {
    std::snprintf(buf, sizeof(buf), "clock_regressions %llu\n",
                  static_cast<unsigned long long>(clamped_events_));
    out += buf;
  }
  return out;
}

}  // namespace taureau::obs
