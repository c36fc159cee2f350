#include "obs/flame.h"

#include <algorithm>
#include <cstddef>

namespace taureau::obs {

void FlameProfile::FoldTrace(const std::vector<Span>& spans) {
  if (spans.empty()) return;
  ++folded_traces_;

  // Path of each span: parent path + ";" + name; spans whose parent is not
  // in the group start fresh as subtree roots. Parents precede children in
  // the id-sorted group, so the parent is a binary search of the prefix.
  // The path strings keep their capacity across traces, so building a path
  // that is already known allocates nothing.
  const size_t n = spans.size();
  if (path_scratch_.size() < n) path_scratch_.resize(n);
  root_scratch_.clear();
  for (size_t i = 0; i < n; ++i) {
    const Span& s = spans[i];
    std::string& path = path_scratch_[i];
    const auto prefix_end = spans.begin() + std::ptrdiff_t(i);
    const auto parent = std::lower_bound(
        spans.begin(), prefix_end, s.parent,
        [](const Span& a, uint64_t id) { return a.id < id; });
    if (s.parent == 0 || parent == prefix_end || parent->id != s.parent) {
      path.assign(s.name.str());
      root_scratch_.push_back(i);
    } else {
      path.assign(path_scratch_[size_t(parent - spans.begin())]);
      path += ';';
      path += s.name.str();
    }
  }

  // One attribution pass per subtree root charges every span's self time
  // and the root's category breakdown. Each span belongs to exactly one
  // subtree, so accumulating self_us across the passes never double-counts.
  self_scratch_.assign(n, 0);
  for (size_t r : root_scratch_) {
    const Span& root = spans[r];
    auto attributed = AttributeTrace(spans, root.id);
    if (!attributed.ok()) continue;  // unfinished root: skip its subtree
    for (size_t i = 0; i < n; ++i) {
      self_scratch_[i] += attributed->self_us[i];
    }
    RootAggregate& agg = by_root_[root.name];
    ++agg.count;
    agg.breakdown.Accumulate(attributed->breakdown);
    const auto tenant = root.attrs.find(kTenantAttr);
    if (tenant != root.attrs.end()) {
      RootAggregate& tagg = by_tenant_[tenant->second];
      ++tagg.count;
      tagg.breakdown.Accumulate(attributed->breakdown);
    }
  }

  for (size_t i = 0; i < n; ++i) {
    const Span& s = spans[i];
    if (!s.ended()) continue;
    PathStat& stat = paths_[path_scratch_[i]];
    ++stat.count;
    stat.total_us += s.duration_us();
    stat.self_us += self_scratch_[i];
    ++folded_spans_;
  }
}

std::vector<std::pair<std::string, PathStat>> FlameProfile::TopKBySelf(
    size_t k) const {
  std::vector<std::pair<std::string, PathStat>> out(paths_.begin(),
                                                    paths_.end());
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    if (a.second.self_us != b.second.self_us) {
      return a.second.self_us > b.second.self_us;
    }
    return a.first < b.first;
  });
  if (out.size() > k) out.resize(k);
  return out;
}

std::string FlameProfile::ExportText() const {
  std::string out;
  char buf[96];
  for (const auto& [path, stat] : paths_) {
    std::snprintf(buf, sizeof(buf), " count=%llu total=%lld self=%lld\n",
                  static_cast<unsigned long long>(stat.count),
                  static_cast<long long>(stat.total_us),
                  static_cast<long long>(stat.self_us));
    out += path + buf;
  }
  return out;
}

std::string FlameProfile::ExportTenantsText() const {
  return FormatRootAggregates(by_tenant_);
}

void FlameProfile::Clear() {
  paths_.clear();
  by_root_.clear();
  by_tenant_.clear();
  folded_spans_ = 0;
  folded_traces_ = 0;
}

std::string FormatRootAggregates(
    const std::map<std::string, RootAggregate>& by_root) {
  std::string out;
  char buf[64];
  for (const auto& [name, agg] : by_root) {
    std::snprintf(buf, sizeof(buf), " count=%llu ",
                  static_cast<unsigned long long>(agg.count));
    out += name + buf + agg.breakdown.ToString() + "\n";
  }
  return out;
}

}  // namespace taureau::obs
