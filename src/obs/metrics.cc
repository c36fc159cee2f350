#include "obs/metrics.h"

#include <cstdio>

namespace taureau::obs {

Counter* Registry::GetCounter(const std::string& name) {
  auto& slot = counters_[name];
  if (slot == nullptr) slot = &counter_slab_.emplace_back();
  return slot;
}

Gauge* Registry::GetGauge(const std::string& name) {
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = &gauge_slab_.emplace_back();
  return slot;
}

Histogram* Registry::GetHistogram(const std::string& name, double max_value) {
  auto& slot = histograms_[name];
  if (slot == nullptr) slot = &histogram_slab_.emplace_back(max_value);
  return slot;
}

std::string Registry::SeriesName(std::string_view base, const LabelSet& labels) {
  if (labels.empty()) return std::string(base);
  std::string out(base);
  out += '{';
  bool first = true;
  auto add = [&](const char* key, std::string_view value) {
    if (value.empty()) return;
    if (!first) out += ',';
    first = false;
    out += key;
    out += "=\"";
    out += value;
    out += '"';
  };
  // Fixed alphabetical key order: the canonical rendering is independent of
  // how the caller filled the LabelSet.
  add("shard", labels.shard);
  add("tenant", labels.tenant);
  out += '}';
  return out;
}

void Registry::RegisterSeries(const std::string& key, std::string_view base,
                              const LabelSet& labels) {
  auto [it, inserted] = series_meta_.try_emplace(key);
  if (!inserted) return;
  SeriesMeta& meta = it->second;
  meta.base = label_values_.Intern(base);
  auto record = [&](const char* label, std::string_view value,
                    const std::string** slot) {
    if (value.empty()) return;
    *slot = label_values_.Intern(value);
    label_index_[label].insert(std::string_view(**slot));
  };
  record("shard", labels.shard, &meta.shard);
  record("tenant", labels.tenant, &meta.tenant);
}

Counter* Registry::GetCounter(const std::string& name, const LabelSet& labels) {
  const std::string key = SeriesName(name, labels);
  Counter* c = GetCounter(key);
  if (!labels.empty()) RegisterSeries(key, name, labels);
  return c;
}

Gauge* Registry::GetGauge(const std::string& name, const LabelSet& labels) {
  const std::string key = SeriesName(name, labels);
  Gauge* g = GetGauge(key);
  if (!labels.empty()) RegisterSeries(key, name, labels);
  return g;
}

Histogram* Registry::GetHistogram(const std::string& name,
                                  const LabelSet& labels, double max_value) {
  const std::string key = SeriesName(name, labels);
  Histogram* h = GetHistogram(key, max_value);
  if (!labels.empty()) RegisterSeries(key, name, labels);
  return h;
}

std::vector<std::string_view> Registry::LabelValues(
    std::string_view label) const {
  const auto it = label_index_.find(label);
  if (it == label_index_.end()) return {};
  return {it->second.begin(), it->second.end()};
}

std::map<std::string, std::map<std::string, uint64_t>>
Registry::TenantCounterRollup() const {
  std::map<std::string, std::map<std::string, uint64_t>> rollup;
  for (const auto& [key, meta] : series_meta_) {
    if (meta.tenant == nullptr) continue;
    const auto cit = counters_.find(key);
    if (cit == counters_.end()) continue;
    rollup[*meta.tenant][*meta.base] += cit->second->value();
  }
  return rollup;
}

bool Registry::Has(const std::string& name) const {
  return counters_.count(name) > 0 || gauges_.count(name) > 0 ||
         histograms_.count(name) > 0;
}

void Registry::MergeFrom(const Registry& other) {
  for (const auto& [name, c] : other.counters_) {
    GetCounter(name)->Inc(c->value());
  }
  for (const auto& [name, g] : other.gauges_) {
    GetGauge(name)->Add(g->value());
  }
  for (const auto& [name, h] : other.histograms_) {
    GetHistogram(name)->Merge(*h);
  }
  // Labeled series arrive through the name tables above (their canonical
  // keys collide exactly when the labels match); re-intern the metadata so
  // rollups over the merged registry see every tenant.
  for (const auto& [key, meta] : other.series_meta_) {
    LabelSet labels;
    if (meta.tenant != nullptr) labels.tenant = *meta.tenant;
    if (meta.shard != nullptr) labels.shard = *meta.shard;
    RegisterSeries(key, *meta.base, labels);
  }
}

std::string Registry::ExportText() const {
  // The three maps are each name-sorted; a three-way merge keeps the whole
  // export in one global name order.
  std::string out;
  char buf[64];
  auto c = counters_.begin();
  auto g = gauges_.begin();
  auto h = histograms_.begin();
  while (c != counters_.end() || g != gauges_.end() || h != histograms_.end()) {
    const std::string* cn = c != counters_.end() ? &c->first : nullptr;
    const std::string* gn = g != gauges_.end() ? &g->first : nullptr;
    const std::string* hn = h != histograms_.end() ? &h->first : nullptr;
    const std::string* next = cn;
    if (next == nullptr || (gn != nullptr && *gn < *next)) next = gn;
    if (next == nullptr || (hn != nullptr && *hn < *next)) next = hn;
    if (next == cn && cn != nullptr) {
      std::snprintf(buf, sizeof(buf), " %llu",
                    static_cast<unsigned long long>(c->second->value()));
      out += c->first + buf + "\n";
      ++c;
    } else if (next == gn && gn != nullptr) {
      std::snprintf(buf, sizeof(buf), " %.6g", g->second->value());
      out += g->first + buf + "\n";
      ++g;
    } else {
      out += h->first + " " + h->second->ToString() + "\n";
      ++h;
    }
  }
  return out;
}

std::string Registry::ExportJson() const {
  std::string out = "{";
  char buf[256];
  bool first = true;
  auto sep = [&] {
    if (!first) out += ',';
    first = false;
  };
  for (const auto& [name, c] : counters_) {
    sep();
    std::snprintf(buf, sizeof(buf), "\"%s\":%llu", name.c_str(),
                  static_cast<unsigned long long>(c->value()));
    out += buf;
  }
  for (const auto& [name, g] : gauges_) {
    sep();
    std::snprintf(buf, sizeof(buf), "\"%s\":%.6g", name.c_str(), g->value());
    out += buf;
  }
  for (const auto& [name, h] : histograms_) {
    sep();
    std::snprintf(
        buf, sizeof(buf),
        "\"%s\":{\"n\":%llu,\"mean\":%.6g,\"p50\":%.6g,\"p90\":%.6g,"
        "\"p99\":%.6g,\"max\":%.6g}",
        name.c_str(), static_cast<unsigned long long>(h->count()), h->mean(),
        h->P50(), h->P90(), h->P99(), h->max());
    out += buf;
  }
  out += "}";
  return out;
}

void Registry::Reset() {
  for (auto& [name, c] : counters_) c->Reset();
  for (auto& [name, g] : gauges_) g->Reset();
  for (auto& [name, h] : histograms_) h->Reset();
}

}  // namespace taureau::obs
