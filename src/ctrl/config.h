// taureau::ctrl — the live control plane (E28): a deterministic, versioned
// dynamic-config service in the LaunchDarkly client/server-store shape.
//
// Policy knobs (keep-alive, retry budgets, hedge delay, reuse and prewarm
// targets) would otherwise be frozen at construction, so the platform could
// neither adapt mid-run nor reproduce the classic config-change-induced
// outage. This module makes those knobs *live*:
//
//   - ConfigStore: typed, versioned entries. Every applied change bumps a
//     store-wide monotonic version; watchers fire in registration order,
//     so notification is deterministic.
//   - ConfigService: the sim-aware push path. Push() assigns the next
//     publish version immediately and applies it after a propagation
//     delay as a simulation event — the *safe point*: subscriber
//     callbacks run between module events, never inside one, so a config
//     change can't observe (or corrupt) a half-made decision. Stale
//     pushes (a delayed publish overtaken by a newer one) are dropped,
//     never applied out of version order. Scoped overrides layer
//     per-target (per-machine) values on top of the base entry — the
//     substrate staged rollouts (rollout.h) stand on.
//   - chaos integration: kConfigPushDelay / kConfigCorrupt fault kinds
//     target the control plane itself — delayed propagation exercises the
//     version-order guarantee, corrupted payloads are rejected by the
//     typed store's validation and counted as masked faults.
//
// Modules wire in via AttachControl(ConfigService*): they define their keys
// (defaults = their constructed config) and subscribe setters; see guard,
// faas (keep-alive and the prewarmer) and reuse. All single-threaded per
// simulation, like every other module; under psim each shard owns its own
// service and cross-shard pushes travel as psim::Post events.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <map>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "chaos/injector.h"
#include "common/status.h"
#include "common/time_types.h"
#include "obs/metrics.h"
#include "obs/observability.h"
#include "sim/simulation.h"

namespace taureau::ctrl {

enum class ValueType { kBool, kInt, kDouble, kString };

std::string_view ValueTypeName(ValueType t);

/// One typed config value. Reads of the wrong type return a zero value in
/// release builds (and assert in debug) — config consumers should know
/// their key's type from the spec they defined.
class ConfigValue {
 public:
  ConfigValue() : v_(false) {}

  static ConfigValue Bool(bool b) { return ConfigValue(b); }
  static ConfigValue Int(int64_t i) { return ConfigValue(i); }
  static ConfigValue Double(double d) { return ConfigValue(d); }
  static ConfigValue Str(std::string s) { return ConfigValue(std::move(s)); }

  ValueType type() const { return static_cast<ValueType>(v_.index()); }

  bool as_bool() const;
  int64_t as_int() const;
  double as_double() const;
  const std::string& as_string() const;

  bool IsNumeric() const {
    return type() == ValueType::kInt || type() == ValueType::kDouble;
  }
  /// Numeric view for bounds checks (int widened to double). 0 otherwise.
  double AsNumber() const;

  /// Deterministic rendering ("true", "42", "0.95", raw string).
  std::string ToString() const;

  bool operator==(const ConfigValue&) const = default;

 private:
  explicit ConfigValue(bool b) : v_(b) {}
  explicit ConfigValue(int64_t i) : v_(i) {}
  explicit ConfigValue(double d) : v_(d) {}
  explicit ConfigValue(std::string s) : v_(std::move(s)) {}

  std::variant<bool, int64_t, double, std::string> v_;
};

/// Declaration of one knob: key, typed default, and (for numeric entries)
/// the validation range a corrupted or fat-fingered push must pass before
/// it can reach a live module.
struct ConfigSpec {
  std::string key;
  ConfigValue default_value;
  double min_value = -std::numeric_limits<double>::infinity();
  double max_value = std::numeric_limits<double>::infinity();
  std::string description;
};

/// One live entry. `version` is the store-wide publish version of the last
/// applied change (0 = still at the defined default).
struct ConfigEntry {
  ConfigSpec spec;
  ConfigValue value;
  uint64_t version = 0;
  SimTime updated_at_us = 0;
};

/// Change notification: the entry after the change was applied. For scoped
/// watchers, `value` is the effective value *as seen by the watcher's
/// target* (override when present, base otherwise).
struct ConfigUpdate {
  const ConfigEntry* entry = nullptr;
  ConfigValue value;
  uint64_t version = 0;
  SimTime at_us = 0;
};

using Watcher = std::function<void(const ConfigUpdate&)>;

/// The versioned typed store. Deterministic: entries iterate in key order,
/// watchers fire in registration order, and Apply() enforces monotonic
/// versions per entry.
class ConfigStore {
 public:
  ConfigStore() = default;
  ConfigStore(const ConfigStore&) = delete;
  ConfigStore& operator=(const ConfigStore&) = delete;

  /// Registers a knob. AlreadyExists when the key is taken (callers that
  /// share keys treat that as success after a type check).
  Status Define(ConfigSpec spec);

  bool Has(const std::string& key) const;
  const ConfigEntry* Find(const std::string& key) const;

  /// Type/range validation without applying (the service pre-checks every
  /// push payload here; kConfigCorrupt payloads die on this).
  Status Validate(const std::string& key, const ConfigValue& value) const;

  /// Applies `value` as publish `version` at `now`. Errors: NotFound
  /// (unknown key), InvalidArgument (type mismatch), OutOfRange (numeric
  /// bounds), Aborted (stale: version <= the entry's applied version — the
  /// delayed-push ordering guarantee). On success, watchers fire in
  /// registration order.
  Status Apply(const std::string& key, const ConfigValue& value,
               uint64_t version, SimTime now);

  /// Registers a change watcher for `key` (which must exist). Watchers are
  /// immortal for the store's lifetime, matching module lifetimes.
  Status Watch(const std::string& key, Watcher watcher);

  size_t size() const { return entries_.size(); }

 private:
  std::map<std::string, ConfigEntry> entries_;
  std::map<std::string, std::vector<Watcher>> watchers_;
};

/// Live typed read handle for one (key, target) pair — the cheap way for a
/// module to consult a knob at its own safe points instead of (or in
/// addition to) a push callback. Reads resolve scoped overrides.
class ConfigService;
class Subscription {
 public:
  Subscription() = default;

  bool valid() const { return service_ != nullptr; }
  const std::string& key() const { return key_; }
  const std::string& target() const { return target_; }

  int64_t AsInt() const;

 private:
  friend class ConfigService;
  Subscription(const ConfigService* service, std::string key,
               std::string target)
      : service_(service), key_(std::move(key)), target_(std::move(target)) {}

  const ConfigService* service_ = nullptr;
  std::string key_;
  std::string target_;
};

/// Counters the service exports (also mirrored as "ctrl.*" metrics).
struct ConfigServiceStats {
  uint64_t pushes = 0;           ///< Push/PushScoped/RetractScoped calls.
  uint64_t applied = 0;          ///< Applies that changed live state.
  uint64_t stale_dropped = 0;    ///< Delayed pushes overtaken by newer ones.
  uint64_t rejected = 0;         ///< Type/range rejections (incl. corrupt).
  uint64_t corrupted = 0;        ///< Payloads mangled by kConfigCorrupt.
  uint64_t delayed = 0;          ///< Pushes hit by kConfigPushDelay.
};

/// ConfigService knobs (top-level so the default argument below works).
struct ConfigServiceOptions {
  /// Base propagation delay from Push() to the apply safe point. 0 still
  /// applies via a zero-delay event (never inside the caller's event).
  SimDuration push_delay_us = 0;
};

/// The sim-aware publish path: versioning, propagation delay, scoped
/// overrides, chaos hooks, obs. One per simulated control plane.
class ConfigService {
 public:
  using Options = ConfigServiceOptions;

  explicit ConfigService(sim::Simulation* sim, Options options = {});
  ConfigService(const ConfigService&) = delete;
  ConfigService& operator=(const ConfigService&) = delete;

  ConfigStore& store() { return store_; }
  const ConfigStore& store() const { return store_; }
  sim::Simulation* sim() const { return sim_; }

  /// Define, tolerating an identical re-definition (modules sharing a
  /// service may race to define common keys; first definition wins, a
  /// second with a different value type is InvalidArgument).
  Status EnsureDefined(ConfigSpec spec);

  /// Publishes a new base value: assigns the next monotonic publish
  /// version *now*, applies it after the propagation delay (+ any armed
  /// chaos delay; a kConfigCorrupt arm mangles the payload so the typed
  /// store rejects it). Returns the assigned version.
  uint64_t Push(const std::string& key, ConfigValue value);

  /// Publishes a scoped override of `key` for each target in `targets`:
  /// those targets see `value`, everyone else keeps the base entry. Same
  /// versioning/delay/chaos path as Push.
  uint64_t PushScoped(const std::string& key, std::vector<std::string> targets,
                      ConfigValue value);

  /// Removes the scoped overrides of `key` for `targets` (rollback path):
  /// the targets fall back to the base value. Versioned like a push, so a
  /// delayed retract cannot undo a newer override.
  uint64_t RetractScoped(const std::string& key,
                         std::vector<std::string> targets);

  /// Effective value for `target` ("" = base): override when present.
  Result<ConfigValue> ValueFor(const std::string& key,
                               const std::string& target) const;
  /// Whether `target` currently holds a scoped override of `key`.
  bool HasOverride(const std::string& key, const std::string& target) const;
  /// Targets currently overriding `key`, sorted (deterministic).
  std::vector<std::string> OverrideTargets(const std::string& key) const;

  /// Subscribes to `key` as seen by `target`; the returned handle reads
  /// live values. With the empty (base) target, `on_change` (optional)
  /// fires at every base apply, in registration order. Any other target
  /// subscribes target-scoped: `on_change` fires whenever the value *as
  /// seen by target* changes — scoped overrides covering it, base applies
  /// while it holds no override, and retracts (which deliver the base
  /// value).
  Subscription Subscribe(const std::string& key, Watcher on_change = nullptr,
                         const std::string& target = "");

  /// Registers kConfigPushDelay / kConfigPushCorrupt hooks under "ctrl".
  void AttachChaos(chaos::InjectorRegistry* registry);

  /// Re-homes "ctrl.*" metrics and enables "cat=ctrl" span emission for
  /// every push/apply/reject decision.
  void AttachObservability(obs::Observability* o);

  ConfigServiceStats stats() const;
  uint64_t last_published_version() const { return publish_seq_; }

 private:
  struct Pending {
    std::string key;
    ConfigValue value;
    uint64_t version = 0;
    /// kBase applies the base entry; kOverride / kRetract touch targets.
    enum class Kind { kBase, kOverride, kRetract } kind = Kind::kBase;
    std::vector<std::string> targets;
    bool corrupted = false;
  };
  struct OverrideState {
    ConfigValue value;
    uint64_t version = 0;  ///< Publish version that set/cleared it last.
  };
  struct ScopedWatch {
    std::string target;
    Watcher fn;
  };

  uint64_t Publish(Pending p);
  void ApplyPending(Pending p);
  void NotifyScoped(const std::string& key, const std::string& target,
                    const ConfigUpdate& update);
  void BindMetrics();
  void EmitSpan(const std::string& name, const Pending& p,
                std::string_view outcome);

  sim::Simulation* sim_;
  Options options_;
  ConfigStore store_;
  uint64_t publish_seq_ = 0;

  /// overrides_[key][target]; last_scoped_version_[key][target] keeps the
  /// monotonic guard for scoped applies and retracts.
  std::map<std::string, std::map<std::string, OverrideState>> overrides_;
  std::map<std::string, std::map<std::string, uint64_t>> scoped_version_;
  std::map<std::string, std::vector<ScopedWatch>> scoped_watchers_;

  /// Armed chaos effects, consumed in push order (FIFO).
  std::deque<SimDuration> armed_delays_;
  uint64_t armed_corrupts_ = 0;
  chaos::InjectorRegistry* chaos_ = nullptr;

  obs::Registry own_registry_;
  obs::Registry* registry_ = &own_registry_;
  obs::Observability* obs_ = nullptr;
  struct MetricHandles {
    obs::CounterHandle pushes;
    obs::CounterHandle applied;
    obs::CounterHandle stale_dropped;
    obs::CounterHandle rejected;
    obs::CounterHandle corrupted;
    obs::CounterHandle delayed;
    obs::GaugeHandle version;
  };
  MetricHandles h_;
};

}  // namespace taureau::ctrl
