// Host-time spans recorded from outside the simulator: the benchmark opens a
// span around each call it makes into a layer (and around the Run call
// itself), so per-layer host cost is measured without touching src/.
//
// Spans nest on a stack. When a span closes, its duration is added to its
// parent's child time, so a span's self time is its duration minus the part
// its direct children cover. Closed spans go into a buffer preallocated at
// construction (it grows only if a run emits more than expected) and are
// written out after the run (WriteTsv).
//
// obs sink calls are too frequent to keep one by one: AddSinkCall folds each
// into the enclosing span's child time and into a per-request sum.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "alloc_probe.h"

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

enum class SpanKind : uint8_t {
  kRun,       ///< sim.run: the Run call of the timed phase.
  kArrival,   ///< bench.arrival: the generator's arrival callback.
  kInvoke,    ///< faas.invoke: one FaasPlatform::Invoke call.
  kHandler,   ///< fn.handler: the registered function body.
  kCallback,  ///< bench.callback: an invocation's completion callback.
  kExport,    ///< obs.export: end-of-run Flush + ExportAll.
};
const char* SpanName(SpanKind kind);

struct SpanRecord {
  uint32_t id = 0;
  uint32_t parent = 0;  ///< 0 for a root span.
  SpanKind kind = SpanKind::kRun;
  uint64_t request = 0;  ///< Offered request the span serves (0: none).
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t child_ns = 0;  ///< Covered by direct children and sink calls.
  uint64_t allocs = 0;   ///< Heap allocations inside the span (inclusive).

  int64_t duration_ns() const { return end_ns - start_ns; }
  int64_t self_ns() const { return duration_ns() - child_ns; }
};

class SpanTrace {
 public:
  /// Preallocates room for `capacity` closed spans; `max_request` sizes the
  /// per-request sink sums.
  SpanTrace(size_t capacity, size_t max_request);

  SpanTrace(const SpanTrace&) = delete;
  SpanTrace& operator=(const SpanTrace&) = delete;

  void Begin(SpanKind kind, uint64_t request);
  void End();

  /// Forgets every span and sink call recorded so far. Called when set-up
  /// ends, with no span open, so that only the timed phase is counted.
  void Clear();

  /// One obs SpanSink call of `ns` host time and `allocs` allocations made
  /// on behalf of `request` (0 when it belongs to no request).
  void AddSinkCall(uint64_t request, int64_t ns, uint64_t allocs);

  /// The request whose Invoke call is executing (0 outside one); the obs
  /// forwarding sink maps a new trace's root span to it.
  uint64_t current_request() const { return current_request_; }
  void set_current_request(uint64_t r) { current_request_ = r; }

  const std::vector<SpanRecord>& spans() const { return spans_; }
  const std::vector<int64_t>& sink_ns_by_request() const { return sink_ns_; }
  const std::vector<uint64_t>& sink_allocs_by_request() const {
    return sink_allocs_;
  }
  int64_t sink_ns_total() const { return sink_ns_total_; }
  uint64_t sink_calls() const { return sink_calls_; }

  /// One line per span: id, parent, name, request, start (ns from the first
  /// span), duration, self time, allocations.
  bool WriteTsv(const std::string& path) const;

 private:
  struct Open {
    SpanRecord rec;
    uint64_t allocs_at_start = 0;
  };

  std::vector<SpanRecord> spans_;
  std::vector<Open> stack_;
  std::vector<int64_t> sink_ns_;
  std::vector<uint64_t> sink_allocs_;
  int64_t sink_ns_total_ = 0;
  uint64_t sink_calls_ = 0;
  uint32_t next_id_ = 1;
  uint64_t current_request_ = 0;
};

/// RAII span; a null trace makes it a no-op (the untraced runs).
class ScopedSpan {
 public:
  ScopedSpan(SpanTrace* trace, SpanKind kind, uint64_t request)
      : trace_(trace) {
    if (trace_ != nullptr) trace_->Begin(kind, request);
  }
  ~ScopedSpan() {
    if (trace_ != nullptr) trace_->End();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanTrace* trace_;
};

/// Summary of one span kind over a buffer.
struct KindSummary {
  uint64_t n = 0;
  int64_t total_ns = 0;
  int64_t self_ns = 0;
  uint64_t allocs = 0;
  double p50_ns = 0;
  double p99_ns = 0;
};
KindSummary Summarize(const std::vector<SpanRecord>& spans, SpanKind kind);

}  // namespace perfbench
