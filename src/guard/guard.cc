#include "guard/guard.h"

namespace taureau::guard {

Guard::Guard(GuardConfig config)
    : config_(config),
      retry_budget_(config.retry_budget),
      hedge_(config.hedge),
      dedupe_(kDedupeCapacity) {
  BindMetrics();
}

void Guard::BindMetrics() {
  h_.shed_queue_full = registry_->ResolveCounter("guard.shed_queue_full");
  h_.shed_deadline = registry_->ResolveCounter("guard.shed_deadline");
  h_.deadline_exceeded = registry_->ResolveCounter("guard.deadline_exceeded");
  h_.retries_granted = registry_->ResolveCounter("guard.retries_granted");
  h_.retries_denied = registry_->ResolveCounter("guard.retries_denied");
  h_.hedges_launched = registry_->ResolveCounter("guard.hedges_launched");
  h_.hedge_wins = registry_->ResolveCounter("guard.hedge_wins");
  h_.hedge_cancelled = registry_->ResolveCounter("guard.hedge_cancelled");
  h_.hedge_deduped = registry_->ResolveCounter("guard.hedge_deduped");
  h_.retry_tokens = registry_->ResolveGauge("guard.retry_tokens");
  h_.epoch = registry_->ResolveGauge("guard.epoch");
  h_.hedge_wasted = registry_->ResolveHistogram("guard.hedge_wasted_us");
  h_.retry_tokens.Set(retry_budget_.tokens());
  if (epoch_provider_) h_.epoch.Set(double(epoch_provider_()));
  // Re-resolve known tenants into the (possibly re-homed) registry.
  for (auto& [tenant, th] : tenant_handles_) {
    const obs::LabelSet labels{.tenant = tenant};
    th.sheds = registry_->ResolveCounter("guard.sheds", labels);
    th.deadline_exceeded =
        registry_->ResolveCounter("guard.deadline_exceeded", labels);
    th.retries_granted =
        registry_->ResolveCounter("guard.retries_granted", labels);
    th.retries_denied =
        registry_->ResolveCounter("guard.retries_denied", labels);
  }
}

Guard::TenantHandles& Guard::TenantMetrics(const std::string& tenant) {
  auto [it, inserted] = tenant_handles_.try_emplace(tenant);
  if (inserted) {
    const obs::LabelSet labels{.tenant = tenant};
    it->second.sheds = registry_->ResolveCounter("guard.sheds", labels);
    it->second.deadline_exceeded =
        registry_->ResolveCounter("guard.deadline_exceeded", labels);
    it->second.retries_granted =
        registry_->ResolveCounter("guard.retries_granted", labels);
    it->second.retries_denied =
        registry_->ResolveCounter("guard.retries_denied", labels);
  }
  return it->second;
}

void Guard::AttachControl(ctrl::ConfigService* service) {
  (void)service->EnsureDefined(
      {.key = "guard.retry.refill_ratio",
       .default_value = ctrl::ConfigValue::Double(config_.retry_budget.refill_ratio),
       .min_value = 0.0,
       .max_value = 10.0,
       .description = "retry-budget tokens refilled per success"});
  (void)service->EnsureDefined(
      {.key = "guard.retry.max_tokens",
       .default_value = ctrl::ConfigValue::Double(config_.retry_budget.max_tokens),
       .min_value = 0.0,
       .max_value = 1e6,
       .description = "retry-budget bucket capacity, whole tokens"});
  (void)service->EnsureDefined(
      {.key = "guard.hedge.delay_quantile",
       .default_value = ctrl::ConfigValue::Double(config_.hedge.delay_quantile),
       .min_value = 0.5,
       .max_value = 0.9999,
       .description = "latency quantile after which a hedge launches"});
  service->Subscribe("guard.retry.refill_ratio",
                     [this](const ctrl::ConfigUpdate& u) {
                       retry_budget_.SetRefillRatio(u.value.as_double());
                     });
  service->Subscribe("guard.retry.max_tokens",
                     [this](const ctrl::ConfigUpdate& u) {
                       retry_budget_.SetMaxTokens(u.value.as_double());
                     });
  service->Subscribe("guard.hedge.delay_quantile",
                     [this](const ctrl::ConfigUpdate& u) {
                       hedge_.SetDelayQuantile(u.value.as_double());
                     });
}

void Guard::SetEpochProvider(std::function<uint64_t()> provider) {
  epoch_provider_ = std::move(provider);
  if (epoch_provider_) h_.epoch.Set(double(epoch_provider_()));
}

void Guard::AttachObservability(obs::Observability* o) {
  if (o == nullptr || registry_ == &o->registry) return;
  o->registry.MergeFrom(*registry_);
  if (registry_ == &own_registry_) own_registry_.Reset();
  registry_ = &o->registry;
  obs_ = o;
  BindMetrics();
}

void Guard::RecordShed(const std::string& module, AdmissionDecision d,
                       obs::TraceContext parent, SimTime now,
                       const std::string& tenant) {
  if (d == AdmissionDecision::kAdmit) return;
  if (d == AdmissionDecision::kShedQueueFull) {
    h_.shed_queue_full.Inc();
  } else {
    h_.shed_deadline.Inc();
  }
  obs::SpanAttrList attrs = {{"reason", AdmissionDecisionName(d)}};
  if (!tenant.empty()) {
    TenantMetrics(tenant).sheds.Inc();
    attrs.Add(obs::kTenantAttr, tenant);
  }
  EmitGuardSpan("shed", module, parent, now, now, attrs);
}

void Guard::RecordDeadlineExceeded(const std::string& module,
                                   obs::TraceContext parent, SimTime start_us,
                                   SimTime now, const std::string& tenant) {
  h_.deadline_exceeded.Inc();
  obs::SpanAttrList attrs;
  if (!tenant.empty()) {
    TenantMetrics(tenant).deadline_exceeded.Inc();
    attrs.Add(obs::kTenantAttr, tenant);
  }
  EmitGuardSpan("deadline-exceeded", module, parent, start_us, now, attrs);
}

void Guard::RecordRetryDecision(const std::string& module, bool granted,
                                obs::TraceContext parent, SimTime now,
                                const std::string& tenant) {
  const uint64_t epoch = epoch_provider_ ? epoch_provider_() : 0;
  if (granted) {
    h_.retries_granted.Inc();
    if (!tenant.empty()) TenantMetrics(tenant).retries_granted.Inc();
  } else {
    h_.retries_denied.Inc();
    obs::SpanAttrList attrs;
    std::string epoch_text;
    if (epoch_provider_) {
      epoch_text = std::to_string(epoch);
      attrs.Add("epoch", epoch_text);
    }
    if (!tenant.empty()) {
      TenantMetrics(tenant).retries_denied.Inc();
      attrs.Add(obs::kTenantAttr, tenant);
    }
    EmitGuardSpan("retry-budget-exhausted", module, parent, now, now, attrs);
  }
  h_.retry_tokens.Set(retry_budget_.tokens());
  if (epoch_provider_) h_.epoch.Set(double(epoch));
}

void Guard::RecordHedgeLaunched() { h_.hedges_launched.Inc(); }

void Guard::RecordHedgeWin() { h_.hedge_wins.Inc(); }

void Guard::RecordHedgeCancelled(SimDuration wasted_us) {
  h_.hedge_cancelled.Inc();
  h_.hedge_wasted.Add(double(wasted_us));
  hedge_wasted_us_ += wasted_us;
}

void Guard::RecordHedgeDeduped() { h_.hedge_deduped.Inc(); }

obs::TraceContext Guard::EmitGuardSpan(std::string_view name,
                                       std::string_view module,
                                       obs::TraceContext parent,
                                       SimTime start_us, SimTime end_us,
                                       obs::SpanAttrList extra_attrs) {
  if (obs_ == nullptr || !parent.valid()) return {};
  extra_attrs.Add(obs::kCategoryAttr, "guard");
  return obs_->tracer.EmitSpan(name, module, parent, start_us, end_us,
                               extra_attrs);
}

GuardStats Guard::stats() const {
  GuardStats s;
  s.shed_queue_full = h_.shed_queue_full.value();
  s.shed_deadline = h_.shed_deadline.value();
  s.deadline_exceeded = h_.deadline_exceeded.value();
  s.retries_granted = h_.retries_granted.value();
  s.retries_denied = h_.retries_denied.value();
  s.hedges_launched = h_.hedges_launched.value();
  s.hedge_wins = h_.hedge_wins.value();
  s.hedge_cancelled = h_.hedge_cancelled.value();
  s.hedge_deduped = h_.hedge_deduped.value();
  return s;
}

}  // namespace taureau::guard
