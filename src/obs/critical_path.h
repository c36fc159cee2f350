// Critical-path analysis: walks a finished trace tree and attributes the
// root span's end-to-end latency to queueing vs cold-start vs execution vs
// shuffle vs retry (paper §6: double billing, cold starts and failure
// masking must be visible per request, not just in aggregate).
//
// Attribution is exact by construction: every instant of the root interval
// is charged to exactly one category — the deepest descendant span covering
// it that carries a category attribute, or kOther when none does — so the
// per-category durations always sum to the end-to-end latency.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "common/time_types.h"
#include "obs/trace.h"

namespace taureau::obs {

/// Where a slice of end-to-end latency went.
enum class Category {
  kQueue = 0,   ///< Dispatch + throttle queueing ("cat=queue").
  kColdStart,   ///< Container + runtime init ("cat=cold").
  kExec,        ///< Function execution ("cat=exec").
  kShuffle,     ///< Ephemeral-state / shuffle I/O ("cat=shuffle").
  kRetry,       ///< Retry backoff + re-dispatch after failures ("cat=retry").
  kGuard,       ///< Overload-protection decisions: admission shed, deadline
                ///< cancellation, hedge wait ("cat=guard").
  kReuse,       ///< Served by the computation-reuse layer: cache hit,
                ///< singleflight coalescing, approximation ("cat=reuse").
  kOther,       ///< Root time covered by no categorized span.
};
inline constexpr size_t kCategoryCount = 8;

std::string_view CategoryName(Category c);
std::optional<Category> ParseCategory(std::string_view name);

/// Per-request latency attribution. Invariant (asserted by the tests):
/// Sum() == total_us exactly.
struct Breakdown {
  SimDuration total_us = 0;
  std::array<SimDuration, kCategoryCount> by_category{};

  SimDuration Get(Category c) const {
    return by_category[static_cast<size_t>(c)];
  }
  SimDuration Sum() const;
  double Fraction(Category c) const {
    return total_us > 0 ? double(Get(c)) / double(total_us) : 0.0;
  }

  /// Accumulates another request's breakdown (aggregate reporting).
  void Accumulate(const Breakdown& other);

  std::string ToString() const;
};

/// Attributes the latency of the trace tree rooted at `root_span_id`.
/// Fails NotFound for unknown ids, FailedPrecondition for non-root or
/// unfinished roots.
Result<Breakdown> AnalyzeCriticalPath(const Tracer& tracer,
                                      uint64_t root_span_id);

/// Full attribution of one span subtree: the category breakdown plus a
/// per-span *self time* — the portion of the root window each span is the
/// deepest cover of. Both partitions are exact: the breakdown categories
/// and the self times each sum to the root window independently.
struct TraceAttribution {
  Breakdown breakdown;
  /// Parallel to the input span vector; 0 for spans outside the subtree.
  std::vector<SimDuration> self_us;
};

/// The attribution core shared by AnalyzeCriticalPath, AttributeTrace and
/// the flame aggregator. Its member and boundary vectors are working
/// storage that keeps its capacity across calls, so an owner attributing
/// trace after trace (FlameProfile holds one) allocates nothing once warm.
class TraceAttributor {
 public:
  /// Attributes the subtree of `root_span_id` within `spans`, as
  /// AttributeTrace does: writes the breakdown to `*breakdown` and *adds*
  /// each member's self time to `self_us[i]`, which runs parallel to
  /// `spans` (pass an empty span to skip self times). On failure nothing
  /// is written.
  Status Attribute(std::span<const Span> spans, uint64_t root_span_id,
                   Breakdown* breakdown, std::span<SimDuration> self_us);

 private:
  struct Member {
    uint64_t id;
    int depth;
    size_t index;  ///< Position in `spans` (for self-time charging).
    SimTime start = 0;
    SimTime end = 0;
    bool has_cat = false;
    Category cat = Category::kOther;
  };
  std::vector<Member> members_;
  std::vector<SimTime> bounds_;
};

/// Storage-agnostic attribution of the subtree of `root_span_id` within
/// `spans` (any id-ascending slice of one or more traces — parents must
/// precede children, as the tracer guarantees). Unlike AnalyzeCriticalPath
/// the root may itself have a parent outside `spans` (late/async span
/// groups). NotFound for an absent root, FailedPrecondition for an
/// unfinished one. A wrapper over a temporary TraceAttributor.
Result<TraceAttribution> AttributeTrace(std::span<const Span> spans,
                                        uint64_t root_span_id);

}  // namespace taureau::obs
