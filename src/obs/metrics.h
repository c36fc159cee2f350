// Metrics registry: named counters, gauges and log-bucketed histograms with
// a zero-lookup record path and a deterministic snapshot/export API.
//
// Fast path: modules resolve a CounterHandle / GaugeHandle / HistogramHandle
// once at construction (Resolve*()); hot-path Inc/Observe then goes straight
// to the metric's slab slot — no string hash, no map walk, no indirection
// through the name table. Handles stay valid for the registry's lifetime
// and across Registry::Reset() (slots are zeroed in place, never moved).
//
// Slow path: the string-keyed Get*() accessors remain for tests, views and
// one-off reads; ExportText()/ExportJson() are unchanged byte-for-byte.
//
// This is the canonical store replacing the ad-hoc per-module stat structs:
// FaasPlatform, PulsarCluster, MemoryPool and InjectorRegistry register
// their metrics here and materialize their legacy metric structs from the
// registry on demand, so one `Registry::ExportText()` covers the whole
// simulated landscape.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "common/stats.h"
#include "obs/interned.h"

namespace taureau::obs {

/// Dimensional labels for a metric series. Every field is optional; an empty
/// field is simply absent from the series key. The fixed vocabulary keeps
/// the fast path trivial (no generic key/value vectors to sort or hash) and
/// matches what the simulated landscape actually varies over: which tenant,
/// which psim shard.
///
/// A labeled series is resolved once (slow path: builds the canonical key,
/// interns the label values) into the same pre-resolved handles as unlabeled
/// metrics, so recording into `faas.invocations{tenant="acme"}` costs exactly
/// what recording into `faas.invocations` costs — the E24 hot-path contract.
struct LabelSet {
  std::string_view tenant = {};
  std::string_view shard = {};

  bool empty() const { return tenant.empty() && shard.empty(); }
};

/// Monotonic event count.
class Counter {
 public:
  void Inc(uint64_t n = 1) { value_ += n; }
  uint64_t value() const { return value_; }
  void Reset() { value_ = 0; }

 private:
  uint64_t value_ = 0;
};

/// Point-in-time level (queue depth, live containers, memory-time).
class Gauge {
 public:
  void Set(double v) { value_ = v; }
  void Add(double d) { value_ += d; }
  /// Keeps the running maximum (peak tracking).
  void SetMax(double v) {
    if (v > value_) value_ = v;
  }
  double value() const { return value_; }
  void Reset() { value_ = 0.0; }

 private:
  double value_ = 0.0;
};

/// Pre-resolved slab handles. A default-constructed handle is a safe no-op
/// (records vanish, reads return zero), so modules whose observability is
/// optional need no null checks on the hot path. Copyable; valid as long as
/// the resolving Registry, including across Registry::Reset().
class CounterHandle {
 public:
  CounterHandle() = default;
  /// Record methods are const: they mutate the registry's slot, not the
  /// handle — mirroring the `Counter* const` semantics they replaced.
  void Inc(uint64_t n = 1) const {
    if (c_ != nullptr) c_->Inc(n);
  }
  uint64_t value() const { return c_ != nullptr ? c_->value() : 0; }
  bool valid() const { return c_ != nullptr; }

 private:
  friend class Registry;
  explicit CounterHandle(Counter* c) : c_(c) {}
  Counter* c_ = nullptr;
};

class GaugeHandle {
 public:
  GaugeHandle() = default;
  void Set(double v) const {
    if (g_ != nullptr) g_->Set(v);
  }
  void Add(double d) const {
    if (g_ != nullptr) g_->Add(d);
  }
  void SetMax(double v) const {
    if (g_ != nullptr) g_->SetMax(v);
  }
  double value() const { return g_ != nullptr ? g_->value() : 0.0; }
  bool valid() const { return g_ != nullptr; }

 private:
  friend class Registry;
  explicit GaugeHandle(Gauge* g) : g_(g) {}
  Gauge* g_ = nullptr;
};

class HistogramHandle {
 public:
  HistogramHandle() = default;
  void Observe(double v) const {
    if (h_ != nullptr) h_->Add(v);
  }
  /// Alias matching Histogram's API, so handle-migrated call sites keep
  /// reading naturally.
  void Add(double v) const { Observe(v); }
  void AddN(double v, uint64_t count) const {
    if (h_ != nullptr) h_->AddN(v, count);
  }
  uint64_t count() const { return h_ != nullptr ? h_->count() : 0; }
  double mean() const { return h_ != nullptr ? h_->mean() : 0.0; }
  double max() const { return h_ != nullptr ? h_->max() : 0.0; }
  double Quantile(double q) const {
    return h_ != nullptr ? h_->Quantile(q) : 0.0;
  }
  double P50() const { return Quantile(0.50); }
  double P90() const { return Quantile(0.90); }
  double P99() const { return Quantile(0.99); }
  bool valid() const { return h_ != nullptr; }
  /// Slow-path escape hatch (views that Merge whole histograms).
  const Histogram* raw() const { return h_; }

 private:
  friend class Registry;
  explicit HistogramHandle(Histogram* h) : h_(h) {}
  Histogram* h_ = nullptr;
};

/// The registry. Metrics live in per-kind slabs (deques — slots never move);
/// the name table maps each name to its slot once at resolution time. The
/// same name always maps to the same slot. Names are "<module>.<metric>" by
/// convention and exports are sorted by name, so serialization order is
/// independent of registration order.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Fast-path resolution: one name lookup now, zero lookups per record.
  CounterHandle ResolveCounter(const std::string& name) {
    return CounterHandle(GetCounter(name));
  }
  GaugeHandle ResolveGauge(const std::string& name) {
    return GaugeHandle(GetGauge(name));
  }
  HistogramHandle ResolveHistogram(const std::string& name,
                                   double max_value = 1e12) {
    return HistogramHandle(GetHistogram(name, max_value));
  }

  /// Labeled-series resolution. The series key is the canonical rendering
  /// `name{shard="..",tenant=".."}` (label keys in fixed alphabetical
  /// order, empty labels omitted), stored in the same name tables as
  /// unlabeled metrics — so ExportText/MergeFrom/Reset and the shard merge
  /// rule apply to labeled series with zero special cases, and the record
  /// path through the returned handle is identical.
  CounterHandle ResolveCounter(const std::string& name, const LabelSet& labels) {
    return CounterHandle(GetCounter(name, labels));
  }
  GaugeHandle ResolveGauge(const std::string& name, const LabelSet& labels) {
    return GaugeHandle(GetGauge(name, labels));
  }
  HistogramHandle ResolveHistogram(const std::string& name,
                                   const LabelSet& labels,
                                   double max_value = 1e12) {
    return HistogramHandle(GetHistogram(name, labels, max_value));
  }

  /// Canonical series key for `base` under `labels` (what the labeled
  /// Resolve*/Get* overloads register). Stable across processes and PRs:
  /// the digest of a labeled export depends on it.
  static std::string SeriesName(std::string_view base, const LabelSet& labels);

  /// Slow path: string-keyed access. Returns a stable pointer (slab slots
  /// live as long as the registry); the same name always maps to the same
  /// slot.
  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  /// `max_value` bounds the log-bucketed range; only the first Get for a
  /// name applies it.
  Histogram* GetHistogram(const std::string& name, double max_value = 1e12);

  /// Labeled slow-path accessors: register the canonical series key and the
  /// label metadata (interned values) on first touch.
  Counter* GetCounter(const std::string& name, const LabelSet& labels);
  Gauge* GetGauge(const std::string& name, const LabelSet& labels);
  Histogram* GetHistogram(const std::string& name, const LabelSet& labels,
                          double max_value = 1e12);

  size_t size() const {
    return counters_.size() + gauges_.size() + histograms_.size();
  }
  bool Has(const std::string& name) const;

  /// Distinct values ever registered for one label key ("tenant" or
  /// "shard"), sorted. Views into the registry's intern table —
  /// valid for the registry's lifetime. The cardinality a guard inspects.
  std::vector<std::string_view> LabelValues(std::string_view label) const;

  /// Number of labeled series registered (series carrying at least one
  /// label), and distinct interned label values across all keys.
  size_t labeled_series() const { return series_meta_.size(); }
  size_t interned_label_values() const { return label_values_.size(); }

  /// Per-tenant rollup of labeled *counter* series:
  /// tenant -> (base name -> sum over all series of that base labeled with
  /// the tenant, regardless of the other labels). Deterministic (sorted
  /// maps); the heavy-hitter attribution table MergeShardExports renders.
  std::map<std::string, std::map<std::string, uint64_t>> TenantCounterRollup()
      const;

  /// Folds another registry's current values into this one (used when a
  /// module's private registry is re-homed onto a shared one).
  void MergeFrom(const Registry& other);

  /// Deterministic "name value" / "name <histogram summary>" lines, sorted
  /// by metric name. Same seed => byte-identical export.
  std::string ExportText() const;

  /// Deterministic JSON object keyed by metric name.
  std::string ExportJson() const;

  /// Zeroes every metric *in place*: the slab slots (and therefore every
  /// resolved handle and cached pointer) stay valid, names stay registered,
  /// values reset.
  void Reset();

 private:
  /// Interned label metadata for one labeled series, keyed by the canonical
  /// series name. Pointers are into `label_values_` (stable).
  struct SeriesMeta {
    const std::string* base = nullptr;
    const std::string* tenant = nullptr;
    const std::string* shard = nullptr;
  };

  /// Interns the labels of `key` (the canonical series name) and records
  /// the per-label value index. Idempotent per key.
  void RegisterSeries(const std::string& key, std::string_view base,
                      const LabelSet& labels);

  // Name tables point into the slabs; deques never relocate elements, so
  // handles and Get*() pointers are stable for the registry's lifetime.
  std::map<std::string, Counter*> counters_;
  std::map<std::string, Gauge*> gauges_;
  std::map<std::string, Histogram*> histograms_;
  std::deque<Counter> counter_slab_;
  std::deque<Gauge> gauge_slab_;
  std::deque<Histogram> histogram_slab_;

  // Dimensional metadata. Label values (and base names) are interned once
  // per registry; series_meta_ carries enough structure to roll labeled
  // series up by tenant without re-parsing keys; label_index_ answers
  // "which tenants exist" for cardinality accounting.
  SymbolTable label_values_;
  std::map<std::string, SeriesMeta> series_meta_;
  std::map<std::string, std::set<std::string_view>, std::less<>> label_index_;
};

}  // namespace taureau::obs
