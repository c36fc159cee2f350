// Flame-profile aggregator: folds complete trace groups into path-keyed
// self-time/count aggregates plus per-root-name critical-path breakdowns.
//
// This is the "exact" half of the sampled-observability split: the sampling
// pipeline feeds *every* finalized trace through FoldTrace before deciding
// retention, so hot-path top-k and per-category attribution are identical
// whether 100% or 1% of raw spans are kept. Aggregate memory is
// O(distinct paths), independent of traffic.
//
// Path keys are semicolon-joined span names from the group root down
// (folded-flame-graph convention): "invoke:serve;exec". Each distinct path
// string is built once; afterwards a span's path resolves through an index
// keyed by (parent path, interned name address), so folding a known shape
// neither allocates nor hashes a string. Self time uses the critical-path
// partition — each instant of the root window is charged to the deepest
// covering span — so per-trace self times sum exactly to the root span's
// wall time (the invariant the obs_scale tests pin).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/flat_table.h"
#include "common/time_types.h"
#include "obs/critical_path.h"
#include "obs/trace.h"

namespace taureau::obs {

/// Aggregate for one call path.
struct PathStat {
  uint64_t count = 0;        ///< Spans folded under this path.
  SimDuration total_us = 0;  ///< Sum of full (unclipped) span durations.
  SimDuration self_us = 0;   ///< Sum of root-window self time.
};

/// Aggregate for one root-span name: how many requests and where their
/// end-to-end latency went (exact, matches AnalyzeCriticalPath per trace).
struct RootAggregate {
  uint64_t count = 0;
  Breakdown breakdown;
};

class FlameProfile {
 public:
  /// Folds one complete trace group. `spans` must be sorted by id
  /// (creation order — parents precede children); spans whose parent is
  /// absent from the group act as subtree roots (late/async groups, chaos
  /// markers). Unfinished spans are skipped.
  void FoldTrace(std::span<const Span> spans);

  const std::map<std::string, PathStat>& paths() const { return paths_; }
  const std::map<std::string, RootAggregate>& by_root() const {
    return by_root_;
  }
  /// Per-tenant request/latency breakdown, keyed by the kTenantAttr of
  /// each subtree root (roots without the attribute are not counted here).
  /// Exact under any sampling rate, like by_root().
  const std::map<std::string, RootAggregate>& by_tenant() const {
    return by_tenant_;
  }
  uint64_t folded_spans() const { return folded_spans_; }
  uint64_t folded_traces() const { return folded_traces_; }

  /// Top-k paths by self time (ties toward the lexicographically smaller
  /// path, so the ranking is deterministic).
  std::vector<std::pair<std::string, PathStat>> TopKBySelf(size_t k) const;

  /// Deterministic one-line-per-path rendering, sorted by path.
  std::string ExportText() const;

  /// Deterministic per-tenant breakdown lines (FormatRootAggregates over
  /// by_tenant()); empty when no root carried a tenant attribute.
  std::string ExportTenantsText() const;

 private:
  using RootMap = std::map<std::string, RootAggregate>;
  using RootIndex = std::unordered_map<std::string_view, RootAggregate*>;

  /// A path seen by the fold. Nodes never move (deque), so `name` can view
  /// the tail of `path`.
  struct PathNode {
    std::string path;
    std::string_view name;     ///< The last span name of `path`.
    PathStat* stat = nullptr;  ///< Its paths_ entry, once a finished span
                               ///< folds there.
    RootAggregate* root = nullptr;  ///< Its by_root_ entry, once a subtree
                                    ///< root folds there (`path` is then
                                    ///< the root's name).
  };
  /// path_index_'s entry: (parent path id, span name address) -> path id.
  /// The address is the name's interned string. A hit confirms the name's
  /// bytes, so names from different symbol tables, or an address reused
  /// for another name after its table was freed, still fold exactly.
  struct PathEntry {
    uint64_t tag = 0;  ///< Mix of symbol and parent; 0 marks an empty slot.
    uint32_t parent = 0;
    uint32_t id = 0;
    const std::string* symbol = nullptr;
  };
  static constexpr uint32_t kNoPath = UINT32_MAX;  ///< Subtree roots' parent.

  uint32_t ResolvePath(uint32_t parent, const std::string* symbol);
  /// `map`'s entry for `key`, found through `index` (which views the map's
  /// keys) or inserted into both.
  static RootAggregate& ResolveAggregate(RootMap* map, RootIndex* index,
                                         std::string_view key);

  std::map<std::string, PathStat> paths_;
  RootMap by_root_;
  RootMap by_tenant_;
  uint64_t folded_spans_ = 0;
  uint64_t folded_traces_ = 0;
  std::deque<PathNode> path_nodes_;  ///< By path id.
  FlatTable<PathEntry> path_index_;
  /// Tenant aggregates by attribute value (values are not interned).
  RootIndex tenant_index_;
  // Per-trace working storage, reused by every FoldTrace call (each
  // profile belongs to one simulation, so one shard under psim).
  std::vector<uint32_t> path_scratch_;     ///< Path id of each span.
  std::vector<size_t> root_scratch_;       ///< Subtree-root span indices.
  std::vector<SimDuration> self_scratch_;  ///< Self time of each span.
  TraceAttributor attributor_;
};

/// Deterministic "name count=N total=... queue=... ..." lines for a
/// per-root aggregate map; shared by FlameProfile and Observability's
/// critical-path export section so retain-mode and stream-mode exports are
/// byte-comparable.
std::string FormatRootAggregates(
    const std::map<std::string, RootAggregate>& by_root);

}  // namespace taureau::obs
