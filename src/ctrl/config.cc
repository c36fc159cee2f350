#include "ctrl/config.h"

#include <algorithm>
#include <cassert>
#include <cinttypes>
#include <cstdio>

namespace taureau::ctrl {

std::string_view ValueTypeName(ValueType t) {
  switch (t) {
    case ValueType::kBool:
      return "bool";
    case ValueType::kInt:
      return "int";
    case ValueType::kDouble:
      return "double";
    case ValueType::kString:
      return "string";
  }
  return "unknown";
}

bool ConfigValue::as_bool() const {
  const bool* b = std::get_if<bool>(&v_);
  assert(b != nullptr && "ConfigValue type mismatch: expected bool");
  return b != nullptr ? *b : false;
}

int64_t ConfigValue::as_int() const {
  const int64_t* i = std::get_if<int64_t>(&v_);
  assert(i != nullptr && "ConfigValue type mismatch: expected int");
  return i != nullptr ? *i : 0;
}

double ConfigValue::as_double() const {
  const double* d = std::get_if<double>(&v_);
  assert(d != nullptr && "ConfigValue type mismatch: expected double");
  return d != nullptr ? *d : 0.0;
}

const std::string& ConfigValue::as_string() const {
  static const std::string kEmpty;
  const std::string* s = std::get_if<std::string>(&v_);
  assert(s != nullptr && "ConfigValue type mismatch: expected string");
  return s != nullptr ? *s : kEmpty;
}

double ConfigValue::AsNumber() const {
  if (const int64_t* i = std::get_if<int64_t>(&v_)) return double(*i);
  if (const double* d = std::get_if<double>(&v_)) return *d;
  return 0.0;
}

std::string ConfigValue::ToString() const {
  char buf[64];
  switch (type()) {
    case ValueType::kBool:
      return as_bool() ? "true" : "false";
    case ValueType::kInt:
      std::snprintf(buf, sizeof(buf), "%" PRId64, as_int());
      return buf;
    case ValueType::kDouble:
      std::snprintf(buf, sizeof(buf), "%g", as_double());
      return buf;
    case ValueType::kString:
      return as_string();
  }
  return "";
}

// ---------------------------------------------------------------------------
// ConfigStore

Status ConfigStore::Define(ConfigSpec spec) {
  if (spec.key.empty()) return Status::InvalidArgument("empty config key");
  auto [it, inserted] = entries_.try_emplace(spec.key);
  if (!inserted) {
    return Status::AlreadyExists("config key already defined: " + spec.key);
  }
  it->second.value = spec.default_value;
  it->second.spec = std::move(spec);
  return Status::OK();
}

bool ConfigStore::Has(const std::string& key) const {
  return entries_.count(key) > 0;
}

const ConfigEntry* ConfigStore::Find(const std::string& key) const {
  auto it = entries_.find(key);
  return it != entries_.end() ? &it->second : nullptr;
}

Status ConfigStore::Validate(const std::string& key,
                             const ConfigValue& value) const {
  const ConfigEntry* e = Find(key);
  if (e == nullptr) return Status::NotFound("unknown config key: " + key);
  if (value.type() != e->spec.default_value.type()) {
    return Status::InvalidArgument(
        "config type mismatch for " + key + ": expected " +
        std::string(ValueTypeName(e->spec.default_value.type())) + ", got " +
        std::string(ValueTypeName(value.type())));
  }
  if (value.IsNumeric()) {
    const double v = value.AsNumber();
    if (v < e->spec.min_value || v > e->spec.max_value) {
      return Status::OutOfRange("config value out of range for " + key + ": " +
                                value.ToString());
    }
  }
  return Status::OK();
}

Status ConfigStore::Apply(const std::string& key, const ConfigValue& value,
                          uint64_t version, SimTime now) {
  Status valid = Validate(key, value);
  if (!valid.ok()) return valid;
  ConfigEntry& e = entries_.find(key)->second;
  if (version <= e.version) {
    return Status::Aborted("stale config push for " + key);
  }
  e.value = value;
  e.version = version;
  e.updated_at_us = now;
  auto wit = watchers_.find(key);
  if (wit != watchers_.end()) {
    ConfigUpdate update{&e, e.value, version, now};
    for (const Watcher& w : wit->second) w(update);
  }
  return Status::OK();
}

Status ConfigStore::Watch(const std::string& key, Watcher watcher) {
  if (!Has(key)) return Status::NotFound("unknown config key: " + key);
  watchers_[key].push_back(std::move(watcher));
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Subscription

int64_t Subscription::AsInt() const {
  if (!valid()) return 0;
  auto v = service_->ValueFor(key_, target_);
  return v.ok() ? v.value().as_int() : 0;
}

// ---------------------------------------------------------------------------
// ConfigService

ConfigService::ConfigService(sim::Simulation* sim, Options options)
    : sim_(sim), options_(options) {
  BindMetrics();
}

void ConfigService::BindMetrics() {
  h_.pushes = registry_->ResolveCounter("ctrl.pushes");
  h_.applied = registry_->ResolveCounter("ctrl.applied");
  h_.stale_dropped = registry_->ResolveCounter("ctrl.stale_dropped");
  h_.rejected = registry_->ResolveCounter("ctrl.rejected");
  h_.corrupted = registry_->ResolveCounter("ctrl.corrupted");
  h_.delayed = registry_->ResolveCounter("ctrl.delayed");
  h_.version = registry_->ResolveGauge("ctrl.version");
}

Status ConfigService::EnsureDefined(ConfigSpec spec) {
  const ConfigEntry* existing = store_.Find(spec.key);
  if (existing != nullptr) {
    if (existing->spec.default_value.type() != spec.default_value.type()) {
      return Status::InvalidArgument("config key redefined with new type: " +
                                     spec.key);
    }
    return Status::OK();
  }
  return store_.Define(std::move(spec));
}

uint64_t ConfigService::Publish(Pending p) {
  p.version = ++publish_seq_;
  h_.pushes.Inc();
  SimDuration delay = options_.push_delay_us;
  if (!armed_delays_.empty()) {
    delay += armed_delays_.front();
    armed_delays_.pop_front();
    h_.delayed.Inc();
  }
  if (armed_corrupts_ > 0) {
    --armed_corrupts_;
    // Mangle the payload so the typed store's validation must catch it:
    // non-string entries get a string, string entries get an int.
    p.value = p.value.type() == ValueType::kString
                  ? ConfigValue::Int(-1)
                  : ConfigValue::Str("__corrupt__");
    p.corrupted = true;
    h_.corrupted.Inc();
  }
  const uint64_t version = p.version;
  sim_->Schedule(delay, [this, p = std::move(p)]() mutable {
    ApplyPending(std::move(p));
  });
  return version;
}

uint64_t ConfigService::Push(const std::string& key, ConfigValue value) {
  Pending p;
  p.key = key;
  p.value = std::move(value);
  p.kind = Pending::Kind::kBase;
  return Publish(std::move(p));
}

uint64_t ConfigService::PushScoped(const std::string& key,
                                   std::vector<std::string> targets,
                                   ConfigValue value) {
  Pending p;
  p.key = key;
  p.value = std::move(value);
  p.kind = Pending::Kind::kOverride;
  p.targets = std::move(targets);
  return Publish(std::move(p));
}

uint64_t ConfigService::RetractScoped(const std::string& key,
                                      std::vector<std::string> targets) {
  Pending p;
  p.key = key;
  const ConfigEntry* e = store_.Find(key);
  // Retracts deliver the base value to scoped watchers; a retract of an
  // unknown key is rejected at apply time like any other bad push.
  if (e != nullptr) p.value = e->value;
  p.kind = Pending::Kind::kRetract;
  p.targets = std::move(targets);
  return Publish(std::move(p));
}

void ConfigService::ApplyPending(Pending p) {
  const SimTime now = sim_->Now();
  switch (p.kind) {
    case Pending::Kind::kBase: {
      Status s = store_.Apply(p.key, p.value, p.version, now);
      if (s.ok()) {
        h_.applied.Inc();
        h_.version.SetMax(double(p.version));
        // Base applies are visible to every scoped watcher whose target
        // holds no override of this key.
        const ConfigEntry* e = store_.Find(p.key);
        ConfigUpdate update{e, e->value, p.version, now};
        auto sit = scoped_watchers_.find(p.key);
        if (sit != scoped_watchers_.end()) {
          const auto& overridden = overrides_[p.key];
          for (const ScopedWatch& w : sit->second) {
            if (overridden.count(w.target) == 0) w.fn(update);
          }
        }
        EmitSpan("push:" + p.key, p, "applied");
      } else if (s.code() == StatusCode::kAborted) {
        h_.stale_dropped.Inc();
        EmitSpan("push:" + p.key, p, "stale-dropped");
      } else {
        h_.rejected.Inc();
        EmitSpan("push:" + p.key, p,
                 p.corrupted ? "rejected-corrupt" : "rejected");
        if (p.corrupted && chaos_ != nullptr) {
          chaos_->RecordRecovery("ctrl", chaos::FaultKind::kConfigCorrupt, 0,
                                 "rejected corrupt push key=" + p.key);
        }
      }
      break;
    }
    case Pending::Kind::kOverride: {
      Status valid = store_.Validate(p.key, p.value);
      if (!valid.ok()) {
        h_.rejected.Inc();
        EmitSpan("push-scoped:" + p.key, p,
                 p.corrupted ? "rejected-corrupt" : "rejected");
        if (p.corrupted && chaos_ != nullptr) {
          chaos_->RecordRecovery("ctrl", chaos::FaultKind::kConfigCorrupt, 0,
                                 "rejected corrupt push key=" + p.key);
        }
        break;
      }
      const ConfigEntry* e = store_.Find(p.key);
      bool any_applied = false;
      for (const std::string& target : p.targets) {
        uint64_t& applied_version = scoped_version_[p.key][target];
        if (p.version <= applied_version) {
          h_.stale_dropped.Inc();
          continue;
        }
        applied_version = p.version;
        overrides_[p.key][target] = OverrideState{p.value, p.version};
        any_applied = true;
        ConfigUpdate update{e, p.value, p.version, now};
        NotifyScoped(p.key, target, update);
      }
      if (any_applied) {
        h_.applied.Inc();
        h_.version.SetMax(double(p.version));
        EmitSpan("push-scoped:" + p.key, p, "applied");
      } else {
        EmitSpan("push-scoped:" + p.key, p, "stale-dropped");
      }
      break;
    }
    case Pending::Kind::kRetract: {
      const ConfigEntry* e = store_.Find(p.key);
      if (e == nullptr) {
        h_.rejected.Inc();
        EmitSpan("retract:" + p.key, p, "rejected");
        break;
      }
      bool any_applied = false;
      for (const std::string& target : p.targets) {
        uint64_t& applied_version = scoped_version_[p.key][target];
        if (p.version <= applied_version) {
          h_.stale_dropped.Inc();
          continue;
        }
        applied_version = p.version;
        auto oit = overrides_.find(p.key);
        if (oit != overrides_.end()) oit->second.erase(target);
        any_applied = true;
        // The target falls back to the *current* base value.
        ConfigUpdate update{e, e->value, p.version, now};
        NotifyScoped(p.key, target, update);
      }
      if (any_applied) {
        h_.applied.Inc();
        h_.version.SetMax(double(p.version));
        EmitSpan("retract:" + p.key, p, "applied");
      } else {
        EmitSpan("retract:" + p.key, p, "stale-dropped");
      }
      break;
    }
  }
}

void ConfigService::NotifyScoped(const std::string& key,
                                 const std::string& target,
                                 const ConfigUpdate& update) {
  auto it = scoped_watchers_.find(key);
  if (it == scoped_watchers_.end()) return;
  for (const ScopedWatch& w : it->second) {
    if (w.target == target) w.fn(update);
  }
}

Result<ConfigValue> ConfigService::ValueFor(const std::string& key,
                                            const std::string& target) const {
  const ConfigEntry* e = store_.Find(key);
  if (e == nullptr) return Status::NotFound("unknown config key: " + key);
  if (!target.empty()) {
    auto oit = overrides_.find(key);
    if (oit != overrides_.end()) {
      auto tit = oit->second.find(target);
      if (tit != oit->second.end()) return tit->second.value;
    }
  }
  return e->value;
}

bool ConfigService::HasOverride(const std::string& key,
                                const std::string& target) const {
  auto oit = overrides_.find(key);
  if (oit == overrides_.end()) return false;
  return oit->second.count(target) > 0;
}

std::vector<std::string> ConfigService::OverrideTargets(
    const std::string& key) const {
  std::vector<std::string> out;
  auto oit = overrides_.find(key);
  if (oit == overrides_.end()) return out;
  out.reserve(oit->second.size());
  for (const auto& [target, state] : oit->second) out.push_back(target);
  return out;
}

Subscription ConfigService::Subscribe(const std::string& key,
                                      Watcher on_change,
                                      const std::string& target) {
  if (!store_.Has(key)) return Subscription();
  if (on_change && target.empty()) {
    (void)store_.Watch(key, std::move(on_change));
  } else if (on_change) {
    scoped_watchers_[key].push_back(ScopedWatch{target, std::move(on_change)});
  }
  return Subscription(this, key, target);
}

void ConfigService::AttachChaos(chaos::InjectorRegistry* registry) {
  chaos_ = registry;
  registry->RegisterHook("ctrl", chaos::FaultKind::kConfigPushDelay,
                         [this](const chaos::FaultEvent& ev) {
                           armed_delays_.push_back(
                               static_cast<SimDuration>(ev.param));
                         });
  registry->RegisterHook("ctrl", chaos::FaultKind::kConfigCorrupt,
                         [this](const chaos::FaultEvent&) {
                           ++armed_corrupts_;
                         });
}

void ConfigService::AttachObservability(obs::Observability* o) {
  obs_ = o;
  o->registry.MergeFrom(own_registry_);
  own_registry_.Reset();
  registry_ = &o->registry;
  BindMetrics();
}

void ConfigService::EmitSpan(const std::string& name, const Pending& p,
                             std::string_view outcome) {
  if (obs_ == nullptr) return;
  const SimTime now = sim_->Now();
  obs_->tracer.EmitSpan(
      name, "ctrl", obs::TraceContext{}, now, now,
      {{obs::kCategoryAttr, "ctrl"},
       {"outcome", std::string(outcome)},
       {"version", std::to_string(p.version)},
       {"value", p.value.ToString()}});
}

ConfigServiceStats ConfigService::stats() const {
  ConfigServiceStats s;
  s.pushes = h_.pushes.value();
  s.applied = h_.applied.value();
  s.stale_dropped = h_.stale_dropped.value();
  s.rejected = h_.rejected.value();
  s.corrupted = h_.corrupted.value();
  s.delayed = h_.delayed.value();
  return s;
}

}  // namespace taureau::ctrl
