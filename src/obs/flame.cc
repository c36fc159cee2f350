#include "obs/flame.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "common/hash.h"

namespace taureau::obs {

void FlameProfile::FoldTrace(std::span<const Span> spans) {
  if (spans.empty()) return;
  ++folded_traces_;

  // Path of each span: parent path + ";" + name; spans whose parent is not
  // in the group start fresh as subtree roots. Parents precede children in
  // the id-sorted group, so the parent is a binary search of the prefix.
  const size_t n = spans.size();
  if (path_scratch_.size() < n) path_scratch_.resize(n);
  root_scratch_.clear();
  for (size_t i = 0; i < n; ++i) {
    const Span& s = spans[i];
    const auto prefix_end = spans.begin() + std::ptrdiff_t(i);
    const auto parent = std::lower_bound(
        spans.begin(), prefix_end, s.parent,
        [](const Span& a, uint64_t id) { return a.id < id; });
    uint32_t parent_path = kNoPath;
    if (s.parent == 0 || parent == prefix_end || parent->id != s.parent) {
      root_scratch_.push_back(i);
    } else {
      parent_path = path_scratch_[size_t(parent - spans.begin())];
    }
    path_scratch_[i] = ResolvePath(parent_path, &s.name.str());
  }

  // One attribution pass per subtree root charges every span's self time
  // and the root's category breakdown. Each span belongs to exactly one
  // subtree, so accumulating self_us across the passes never double-counts.
  self_scratch_.assign(n, 0);
  Breakdown breakdown;
  for (size_t r : root_scratch_) {
    const Span& root = spans[r];
    if (!attributor_.Attribute(spans, root.id, &breakdown, self_scratch_)
             .ok()) {
      continue;  // unfinished root: skip its subtree
    }
    PathNode& root_node = path_nodes_[path_scratch_[r]];
    if (root_node.root == nullptr) root_node.root = &by_root_[root_node.path];
    RootAggregate& agg = *root_node.root;
    ++agg.count;
    agg.breakdown.Accumulate(breakdown);
    const auto tenant = root.attrs.find(kTenantAttr);
    if (tenant != root.attrs.end()) {
      RootAggregate& tagg =
          ResolveAggregate(&by_tenant_, &tenant_index_, tenant->second);
      ++tagg.count;
      tagg.breakdown.Accumulate(breakdown);
    }
  }

  for (size_t i = 0; i < n; ++i) {
    const Span& s = spans[i];
    if (!s.ended()) continue;
    PathNode& node = path_nodes_[path_scratch_[i]];
    if (node.stat == nullptr) node.stat = &paths_[node.path];
    ++node.stat->count;
    node.stat->total_us += s.duration_us();
    node.stat->self_us += self_scratch_[i];
    ++folded_spans_;
  }
}

uint32_t FlameProfile::ResolvePath(uint32_t parent,
                                   const std::string* symbol) {
  const uint64_t tag =
      MixU64(uint64_t(reinterpret_cast<uintptr_t>(symbol)) ^ parent);
  PathEntry* entry = path_index_.Find(tag, [&](const PathEntry& e) {
    return e.parent == parent && e.symbol == symbol;
  });
  if (entry != nullptr && path_nodes_[entry->id].name == *symbol) {
    return entry->id;
  }
  // A new (parent, name) pair, or an address that now holds another name:
  // start a node; its paths_ entry is shared with any node of equal path.
  const uint32_t id = uint32_t(path_nodes_.size());
  PathNode& node = path_nodes_.emplace_back();
  if (parent != kNoPath) {
    node.path = path_nodes_[parent].path;
    node.path += ';';
  }
  node.path += *symbol;
  node.name =
      std::string_view(node.path).substr(node.path.size() - symbol->size());
  if (entry == nullptr) {
    entry = &path_index_.Insert(tag);
    entry->parent = parent;
    entry->symbol = symbol;
  }
  entry->id = id;
  return id;
}

RootAggregate& FlameProfile::ResolveAggregate(RootMap* map, RootIndex* index,
                                              std::string_view key) {
  const auto it = index->find(key);
  if (it != index->end()) return *it->second;
  auto& entry = *map->try_emplace(std::string(key)).first;
  index->emplace(entry.first, &entry.second);
  return entry.second;
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
