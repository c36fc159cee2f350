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
// (folded-flame-graph convention): "invoke:serve;exec". Self time uses the
// critical-path partition — each instant of the root window is charged to
// the deepest covering span — so per-trace self times sum exactly to the
// root span's wall time (the invariant the obs_scale tests pin).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

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
  void FoldTrace(const std::vector<Span>& spans);

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

  void Clear();

 private:
  std::map<std::string, PathStat> paths_;
  std::map<std::string, RootAggregate> by_root_;
  std::map<std::string, RootAggregate> by_tenant_;
  uint64_t folded_spans_ = 0;
  uint64_t folded_traces_ = 0;
  // Per-trace working storage, reused by every FoldTrace call (each
  // profile belongs to one simulation, so one shard under psim).
  std::vector<std::string> path_scratch_;  ///< Path key of each span.
  std::vector<size_t> root_scratch_;       ///< Subtree-root span indices.
  std::vector<SimDuration> self_scratch_;  ///< Self time of each span.
};

/// Deterministic "name count=N total=... queue=... ..." lines for a
/// per-root aggregate map; shared by FlameProfile and Observability's
/// critical-path export section so retain-mode and stream-mode exports are
/// byte-comparable.
std::string FormatRootAggregates(
    const std::map<std::string, RootAggregate>& by_root);

}  // namespace taureau::obs
