#include "reuse/reuse.h"

#include <algorithm>

#include "common/hash.h"

namespace taureau::reuse {

namespace {
constexpr char kKeySeparator = '\x1f';  // ASCII unit separator.
/// Separator plus 16 hex digits of the payload hash.
constexpr uint32_t kKeySuffixBytes = 17;
}  // namespace

ReuseLayer::ReuseLayer(ReuseConfig config)
    : config_(config),
      enabled_(config.enabled),
      approx_burn_threshold_(config.approx_burn_threshold),
      cache_(config.cache),
      sketch_memo_(kSketchMemoSlots) {
  BindMetrics();
}

uint32_t ReuseLayer::FunctionId(const std::string& function) {
  auto [it, inserted] =
      function_ids_.try_emplace(function, uint32_t(functions_.size()));
  if (inserted) functions_.push_back({function, nullptr});
  return it->second;
}

ContentKey ReuseLayer::Key(uint32_t function_id,
                           std::string_view payload) const {
  return {Fnv1a64(payload), function_id,
          uint32_t(functions_[function_id].name.size()) + kKeySuffixBytes};
}

std::string_view ReuseLayer::SketchItem(const ContentKey& key) const {
  static constexpr char kDigits[] = "0123456789abcdef";
  sketch_item_ = functions_[key.function].name;
  sketch_item_ += kKeySeparator;
  for (int shift = 60; shift >= 0; shift -= 4) {
    sketch_item_ += kDigits[(key.payload_hash >> shift) & 0xF];
  }
  return sketch_item_;
}

std::span<const uint32_t> ReuseLayer::SketchColumns(
    const ContentKey& key) const {
  SketchSlot& slot = sketch_memo_[SketchMemoSlot(key)];
  if (slot.key != key) {
    slot.key = key;
    popularity_.Columns(SketchItem(key), slot.cols);
  }
  return slot.cols;
}

PutOutcome ReuseLayer::Offer(const ContentKey& key,
                             const CachedResult& result, SimTime now_us) {
  offer_ = result;
  offer_.recurrence = std::max<uint64_t>(1, Recurrence(key));
  const PutOutcome outcome = cache_.Put(key, offer_, now_us);
  switch (outcome) {
    case PutOutcome::kInserted:
      h_.cache_admitted.Inc();
      break;
    case PutOutcome::kRejected:
      h_.cache_rejected.Inc();
      break;
    case PutOutcome::kDuplicate:
      break;
  }
  SyncCacheGauges();
  return outcome;
}

void ReuseLayer::RegisterApprox(const std::string& function,
                                ApproxProvider provider) {
  functions_[FunctionId(function)].approx = std::move(provider);
}

ReuseLayer::ApproxAnswer ReuseLayer::Approximate(
    uint32_t function_id, const std::string& payload) const {
  if (!HasApprox(function_id)) return {};
  return functions_[function_id].approx(payload);
}

void ReuseLayer::SetSloSource(const obs::SloEngine* slo,
                              std::string objective) {
  slo_ = slo;
  objective_ = std::move(objective);
}

bool ReuseLayer::ShouldApproximate(const std::string& tenant,
                                   SimTime now_us) const {
  if (!enabled_ || approx_burn_threshold_ <= 0.0 || slo_ == nullptr ||
      objective_.empty()) {
    return false;
  }
  double burn =
      slo_->BurnRate(objective_, config_.approx_burn_window_us, now_us);
  if (!tenant.empty()) {
    burn = std::max(burn, slo_->TenantBurnRate(objective_, tenant,
                                               config_.approx_burn_window_us,
                                               now_us));
  }
  return burn >= approx_burn_threshold_;
}

void ReuseLayer::RecordHit(TenantHandles* tenant,
                           SimDuration saved_exec_us) {
  h_.hits.Inc();
  h_.saved_exec_us.Inc(uint64_t(std::max<SimDuration>(0, saved_exec_us)));
  if (tenant != nullptr) tenant->hits.Inc();
  // Expirations are discovered lazily inside Lookup; fold them in here so
  // the counter tracks the cache without a sweeper.
  SyncCacheGauges();
}

void ReuseLayer::RecordMiss(TenantHandles* tenant) {
  h_.misses.Inc();
  if (tenant != nullptr) tenant->misses.Inc();
  SyncCacheGauges();
}

void ReuseLayer::RecordCoalesce(TenantHandles* tenant,
                                SimDuration saved_exec_us) {
  h_.coalesced.Inc();
  h_.saved_exec_us.Inc(uint64_t(std::max<SimDuration>(0, saved_exec_us)));
  if (tenant != nullptr) tenant->coalesced.Inc();
}

void ReuseLayer::RecordApprox(TenantHandles* tenant) {
  h_.approx_served.Inc();
  if (tenant != nullptr) tenant->approx_served.Inc();
}

void ReuseLayer::AttachObservability(obs::Observability* o) {
  if (o == nullptr || registry_ == &o->registry) return;
  o->registry.MergeFrom(*registry_);
  if (registry_ == &own_registry_) own_registry_.Reset();
  registry_ = &o->registry;
  BindMetrics();
}

void ReuseLayer::AttachControl(ctrl::ConfigService* service) {
  if (service == nullptr) return;
  service->EnsureDefined(
      {.key = "reuse.enabled",
       .default_value = ctrl::ConfigValue::Bool(config_.enabled),
       .description = "master switch for the computation-reuse layer"});
  service->EnsureDefined(
      {.key = "reuse.approx.burn_threshold",
       .default_value = ctrl::ConfigValue::Double(config_.approx_burn_threshold),
       .min_value = 0.0,
       .max_value = 1e6,
       .description =
           "serve sketch-backed approximations while the SLO burn rate is "
           ">= this (0 disables degraded mode)"});
  service->EnsureDefined(
      {.key = "reuse.cache.max_bytes",
       .default_value =
           ctrl::ConfigValue::Int(int64_t(config_.cache.max_bytes)),
       .min_value = 0,
       .max_value = 1e15,
       .description = "result-cache byte budget (0 = unbounded)"});

  service->Subscribe(
      "reuse.enabled",
      [this](const ctrl::ConfigUpdate& u) { enabled_ = u.value.as_bool(); });
  service->Subscribe(
      "reuse.approx.burn_threshold",
      [this](const ctrl::ConfigUpdate& u) {
        approx_burn_threshold_ = u.value.AsNumber();
      });
  service->Subscribe(
      "reuse.cache.max_bytes",
      [this](const ctrl::ConfigUpdate& u) {
        cache_.SetLimits(size_t(std::max<int64_t>(0, u.value.as_int())),
                         cache_.config().max_entries);
        SyncCacheGauges();
      });
}

ReuseStats ReuseLayer::stats() const {
  ReuseStats s;
  s.hits = h_.hits.value();
  s.misses = h_.misses.value();
  s.coalesced = h_.coalesced.value();
  s.approx_served = h_.approx_served.value();
  s.cache_admitted = h_.cache_admitted.value();
  s.cache_rejected = h_.cache_rejected.value();
  s.cache_evictions = cache_.evictions();
  s.cache_expired = cache_.expirations();
  s.saved_exec_us = SimDuration(h_.saved_exec_us.value());
  return s;
}

void ReuseLayer::BindMetrics() {
  h_.hits = registry_->ResolveCounter("reuse.hits");
  h_.misses = registry_->ResolveCounter("reuse.misses");
  h_.coalesced = registry_->ResolveCounter("reuse.coalesced");
  h_.approx_served = registry_->ResolveCounter("reuse.approx_served");
  h_.cache_admitted = registry_->ResolveCounter("reuse.cache_admitted");
  h_.cache_rejected = registry_->ResolveCounter("reuse.cache_rejected");
  h_.cache_evictions = registry_->ResolveCounter("reuse.cache_evictions");
  h_.cache_expired = registry_->ResolveCounter("reuse.cache_expired");
  h_.saved_exec_us = registry_->ResolveCounter("reuse.saved_exec_us");
  h_.cache_bytes = registry_->ResolveGauge("reuse.cache_bytes");
  h_.cache_entries = registry_->ResolveGauge("reuse.cache_entries");
  for (auto& [tenant, th] : tenant_handles_) {
    const obs::LabelSet labels{.tenant = tenant};
    th.hits = registry_->ResolveCounter("reuse.hits", labels);
    th.misses = registry_->ResolveCounter("reuse.misses", labels);
    th.coalesced = registry_->ResolveCounter("reuse.coalesced", labels);
    th.approx_served =
        registry_->ResolveCounter("reuse.approx_served", labels);
  }
  SyncCacheGauges();
}

ReuseLayer::TenantHandles* ReuseLayer::TenantMetrics(
    const std::string& tenant) {
  if (tenant.empty()) return nullptr;
  auto [it, inserted] = tenant_handles_.try_emplace(tenant);
  if (inserted) {
    const obs::LabelSet labels{.tenant = tenant};
    it->second.hits = registry_->ResolveCounter("reuse.hits", labels);
    it->second.misses = registry_->ResolveCounter("reuse.misses", labels);
    it->second.coalesced =
        registry_->ResolveCounter("reuse.coalesced", labels);
    it->second.approx_served =
        registry_->ResolveCounter("reuse.approx_served", labels);
  }
  return &it->second;
}

void ReuseLayer::SyncCacheGauges() {
  h_.cache_bytes.Set(double(cache_.bytes()));
  h_.cache_entries.Set(double(cache_.size()));
  // Evictions/expirations are counted inside ResultCache; mirror them so
  // the registry export carries them (Set, not Inc — idempotent).
  const uint64_t ev = cache_.evictions();
  const uint64_t ex = cache_.expirations();
  if (ev > h_.cache_evictions.value())
    h_.cache_evictions.Inc(ev - h_.cache_evictions.value());
  if (ex > h_.cache_expired.value())
    h_.cache_expired.Inc(ex - h_.cache_expired.value());
}

}  // namespace taureau::reuse
