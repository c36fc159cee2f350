// SpanSink sampling pipeline: the always-on layer that makes tracing
// affordable under heavy traffic.
//
// Retention combines two rules, decided per trace when its span group
// completes (root closed, no spans in flight):
//
//  - head sampling: a deterministic hash of the trace id keeps a
//    configurable fraction of *healthy* traces — same seed, same traffic
//    => the same traces retained, byte for byte;
//  - tail retention: any trace carrying an error/fault outcome marker
//    (kOutcomeAttr, set by the owning module at root-span close) or whose
//    root ran past its latency budget (the module's SLO budget, else the
//    global slow threshold) is kept unconditionally — sampling never
//    hides an incident.
//
// Before the decision, every finalized group is folded into the
// FlameProfile and scored against the SloEngine, so per-category
// critical-path attribution, hot-path top-k and burn-rate alerting are
// exact regardless of the drop rate. The retained store is bounded:
// when it overflows, head-sampled healthy traces are evicted before
// important (error/fault/slow) ones. A retained trace is kept as the span
// lines its export prints, rendered once when it is retained, in one
// recycled byte arena. Memory is O(retained + in-flight), plus one byte
// per trace for the decision ledger.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/time_types.h"
#include "obs/flame.h"
#include "obs/id_slab.h"
#include "obs/slo.h"
#include "obs/trace.h"

namespace taureau::obs {

struct SamplerConfig {
  /// Fraction of healthy traces kept by head sampling ([0,1]).
  double head_rate = 1.0;
  /// Decision-hash seed; decouples the retained set from workload seeds.
  uint64_t seed = 0;
  /// Global slow threshold for tail retention; a module's SLO latency
  /// budget takes precedence. Negative disables the global rule.
  SimDuration slow_threshold_us = -1;
  /// Bound on spans held in the retained store.
  size_t max_retained_spans = size_t(1) << 20;
};

/// Why a trace was (or wasn't) kept. Tail rules outrank head sampling;
/// error outranks fault outranks slow.
enum class RetainReason : uint8_t {
  kPending = 0,  ///< Not finalized yet / never seen.
  kDropped,
  kHead,
  kSlow,
  kFault,
  kError,
};
std::string_view RetainReasonName(RetainReason r);

class SamplingPipeline : public SpanSink {
 public:
  /// `flame` and `slo` may be nullptr to disable that consumer.
  SamplingPipeline(SamplerConfig config, FlameProfile* flame, SloEngine* slo);

  // SpanSink:
  void OnSpanStart(const Span& span) override;
  void OnSpanEnd(const Span& span) override;

  /// Finalizes every pending group from its closed spans (groups whose
  /// root never closed count as incomplete and skip SLO scoring). Call
  /// once at end of run; incremental finalization handles the rest.
  void Flush();

  /// The deterministic head-sampling decision for a trace id.
  bool HeadKeeps(uint64_t trace_id) const;
  /// kPending when the trace has not finalized.
  RetainReason DecisionFor(uint64_t trace_id) const;

  struct Stats {
    uint64_t spans_seen = 0;
    uint64_t traces_finalized = 0;
    uint64_t traces_retained = 0;
    uint64_t traces_dropped = 0;
    uint64_t spans_retained = 0;   ///< Cumulative, before eviction.
    uint64_t important_seen = 0;   ///< Error/fault/slow traces finalized.
    uint64_t important_retained = 0;
    uint64_t late_groups = 0;      ///< Span groups after their trace decided.
    uint64_t incomplete_traces = 0;
    uint64_t evicted_traces = 0;
    uint64_t evicted_important = 0;
  };
  const Stats& stats() const { return stats_; }

  /// Spans / approximate heap bytes currently in the retained store.
  size_t retained_span_count() const { return retained_span_count_; }
  size_t retained_bytes() const { return retained_bytes_; }
  size_t pending_span_count() const;

  /// Retained traces in id order: "trace=<id> reason=<reason>" header then
  /// the canonical span lines. Same seed => byte-identical.
  std::string ExportText() const;
  /// Appends ExportText's bytes to `*out`.
  void AppendExportText(std::string* out) const;
  /// An upper bound on ExportText's length, for a caller that reserves.
  size_t ExportTextBound() const;
  /// Heap bytes the retained store holds: its text arena and its trace
  /// queues, at capacity.
  size_t retained_store_bytes() const;
  /// Deterministic counters block for the "== sampler ==" export section.
  std::string ExportSummaryText() const;

 private:
  /// One in-flight trace's closed spans. Groups are recycled: a finalized
  /// group's IdSlab slot serves a later trace with its span slots, and
  /// copy-assigning a span into a kept slot copies its inline attributes,
  /// so steady-state streaming allocates nothing here.
  struct Pending {
    /// A platform invocation's trace has two to four spans (a root with
    /// its queue, cold-start and exec spans, or a root and a reuse span),
    /// so a group's first span makes room for four and a fresh group grows
    /// once rather than three times.
    static constexpr size_t kFirstSlots = 4;

    /// slots[0, size) hold this trace's closed spans in close order; slots
    /// past `size` are left from earlier traces.
    std::vector<Span> slots;
    size_t size = 0;
    size_t open = 0;
    uint64_t root_id = 0;
    bool root_ended = false;
    bool saw_error = false;
    bool saw_fault = false;
    bool late = false;  ///< Group arrived after the trace's decision.

    /// Empties the group for its next trace; the slots stay.
    void Reset() {
      size = 0;
      open = 0;
      root_id = 0;
      root_ended = saw_error = saw_fault = late = false;
    }
  };
  /// One retained trace: its span lines are text_[offset, offset + length).
  /// `spans` and `approx_bytes` are what eviction takes off the store's
  /// counts.
  struct RetainedTrace {
    uint64_t id = 0;
    size_t offset = 0;
    size_t length = 0;
    size_t approx_bytes = 0;
    uint32_t spans = 0;
    RetainReason reason = RetainReason::kDropped;
  };
  /// Retained traces of one eviction class in id order, live from `head`
  /// on. Traces finalize nearly in id order, so an insert lands near the
  /// back; eviction takes the front by advancing `head`, and the evicted
  /// prefix is erased once it is as long as the live part, so the vector's
  /// capacity is reused rather than refilled.
  struct RetainedQueue {
    std::vector<RetainedTrace> traces;
    size_t head = 0;

    bool empty() const { return head == traces.size(); }
    std::span<RetainedTrace> live() {
      return std::span(traces).subspan(head);
    }
    std::span<const RetainedTrace> live() const {
      return std::span(traces).subspan(head);
    }
    void Insert(const RetainedTrace& trace);
    /// The live trace `id`, or nullptr (never retained, or evicted).
    RetainedTrace* Find(uint64_t id);
    RetainedTrace PopFront();
  };

  Pending& GroupFor(uint64_t trace_id);
  void NoteMarkers(const Span& span, Pending* group);
  /// Folds, scores and decides a finished group, then frees its slot.
  void Finalize(uint64_t trace_id, Pending* group, bool complete);
  void Decide(uint64_t trace_id, const Pending& group, bool complete,
              std::span<const Span> spans);
  void Retain(uint64_t trace_id, RetainReason reason,
              std::span<const Span> spans);
  /// Renders `spans` at the end of text_ and adds them to `trace` and to
  /// the store's counts.
  void AppendSpans(std::span<const Span> spans, RetainedTrace* trace);
  /// Evicts until the store fits max_retained_spans, then compacts text_
  /// once its dead bytes outnumber its live ones.
  void EvictIfOver();
  /// Moves every live trace's lines to the front of text_, in text_ order.
  void CompactText();
  RetainedQueue& QueueFor(RetainReason reason) {
    return reason == RetainReason::kHead ? head_sampled_ : important_;
  }
  static size_t ApproxSpanBytes(const Span& span);

  SamplerConfig config_;
  FlameProfile* flame_;
  SloEngine* slo_;
  IdSlab<Pending> pending_;  ///< In-flight span groups by trace id.
  RetainedQueue head_sampled_;  ///< Evicted first.
  RetainedQueue important_;     ///< Error, fault and slow traces.
  /// Every retained trace's span lines, one run per trace, plus the dead
  /// bytes of evicted traces and of runs moved to the end.
  std::string text_;
  size_t dead_bytes_ = 0;
  std::vector<RetainedTrace*> by_offset_;  ///< CompactText's scratch.
  /// Decision per finalized trace id (ids are sequential from 1).
  std::vector<RetainReason> decisions_;
  size_t retained_span_count_ = 0;
  size_t retained_bytes_ = 0;
  Stats stats_;
};

}  // namespace taureau::obs
