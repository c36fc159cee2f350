// Causal tracing for the simulated serverless landscape (paper §6: the
// platform must make behaviour *legible* — cold starts, stragglers, retries
// and failure masking are invisible without per-invocation accounting).
//
// A TraceContext names one span; spans form parent-linked trees rooted at a
// request (an invocation, an orchestration run, a publish). All timestamps
// are simulated time, so two runs with the same seed serialize to
// byte-identical traces — the determinism contract the obs test suite pins.
#pragma once

#include <algorithm>
#include <array>
#include <cassert>
#include <cstdint>
#include <initializer_list>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/time_types.h"
#include "obs/interned.h"
#include "sim/simulation.h"

namespace taureau::obs {

/// Propagated through module boundaries to parent-link child spans.
/// A default-constructed context is "not traced" — every emission API
/// accepts one and degrades to a root span / no-op accordingly.
struct TraceContext {
  uint64_t trace_id = 0;
  uint64_t span_id = 0;

  bool valid() const { return span_id != 0; }
  bool operator==(const TraceContext&) const = default;
};

/// A span's attributes as one key-sorted vector: all of a span's attributes
/// live in one heap block instead of one std::map node each, and a Span that
/// is reused (the tracer's stream mode, the sampler's group slots) keeps that
/// block. It offers the std::map operations its readers use — find, count,
/// at, operator[] and iteration in key order — so every export renders the
/// same bytes as the map it replaced.
class SpanAttrs {
 public:
  using value_type = std::pair<std::string, std::string>;
  using const_iterator = std::vector<value_type>::const_iterator;

  const_iterator begin() const { return items_.begin(); }
  const_iterator end() const { return items_.end(); }
  size_t size() const { return items_.size(); }
  bool empty() const { return items_.empty(); }

  const_iterator find(std::string_view key) const {
    const auto it = LowerBound(items_, key);
    return it != items_.end() && it->first == key ? it : items_.end();
  }
  size_t count(std::string_view key) const { return find(key) != end(); }
  /// Throws std::out_of_range for an absent key, like std::map::at.
  const std::string& at(std::string_view key) const {
    const auto it = find(key);
    if (it == end()) throw std::out_of_range("SpanAttrs::at");
    return it->second;
  }
  /// The value under `key`, inserted empty at its sorted place if absent.
  std::string& operator[](std::string_view key) {
    const auto it = LowerBound(items_, key);
    if (it != items_.end() && it->first == key) return it->second;
    return items_.emplace(it, std::string(key), std::string())->second;
  }

  /// Drops every attribute; the block stays for the next span.
  void clear() { items_.clear(); }
  void reserve(size_t n) { items_.reserve(n); }

 private:
  template <typename Items>
  static auto LowerBound(Items& items, std::string_view key)
      -> decltype(items.begin()) {
    return std::lower_bound(
        items.begin(), items.end(), key,
        [](const value_type& a, std::string_view k) { return a.first < k; });
  }

  std::vector<value_type> items_;
};

/// One timed, attributed node of a trace tree. Name and module are interned
/// (see obs/interned.h): 8-byte references into the tracer's symbol table,
/// reading exactly like the std::string fields they replaced.
struct Span {
  uint64_t id = 0;      ///< Sequential from 1; index into Tracer::spans().
  uint64_t parent = 0;  ///< 0 for roots.
  uint64_t trace = 0;   ///< Shared by every span of one request tree.
  Interned name;
  Interned module;  ///< Emitting layer ("faas", "pubsub", "jiffy", ...).
  SimTime start_us = 0;
  SimTime end_us = -1;  ///< < start_us means still open.
  /// Key-sorted so serialization is deterministic. The "cat" attribute
  /// feeds the critical-path analyzer (see critical_path.h).
  SpanAttrs attrs;

  bool ended() const { return end_us >= start_us; }
  SimDuration duration_us() const { return ended() ? end_us - start_us : 0; }
};

/// Span attribute key whose value assigns the span to a critical-path
/// category ("queue", "cold", "exec", "shuffle", "retry").
inline constexpr const char* kCategoryAttr = "cat";

/// Appends the canonical one-line text rendering of `s` (the format
/// Tracer::ExportText and the sampling pipeline's retained-store export
/// share) to `*out`.
void AppendSpanLine(const Span& s, std::string* out);

/// Marks a span as causally *following from* its parent rather than nested
/// inside it (e.g. a pubsub delivery follows the publish that produced it).
/// Async spans may end after their parent; Validate() exempts them from the
/// interval-containment check but still requires same-trace linkage and
/// start >= parent start.
inline constexpr const char* kAsyncAttr = "async";

/// Trace outcome, set by the owning module when it closes a root span so
/// tail sampling can decide retention: "ok", "error" (terminal failure) or
/// "fault" (a chaos fault touched the request — even when retries masked
/// it). Any span of a trace may carry it; one error/fault marker anywhere
/// makes the whole trace important.
inline constexpr const char* kOutcomeAttr = "outcome";
inline constexpr const char* kOutcomeOk = "ok";
inline constexpr const char* kOutcomeError = "error";
inline constexpr const char* kOutcomeFault = "fault";

/// Severity companion to the outcome ("info", "warn", "error"); "warn"
/// marks masked trouble such as a chaos kill retried to success.
inline constexpr const char* kSeverityAttr = "sev";

/// Which tenant the request belongs to, set on the root span by the owning
/// module (FunctionSpec::tenant, TopicConfig::tenant, a Jiffy path's owner
/// segment, or the cluster allocation's ExecutionUnit::owner tag). Drives
/// tenant-scoped SLO scoring (obs/slo.h) and the flame profile's per-tenant
/// breakdowns; absent spans score the module aggregate only.
inline constexpr const char* kTenantAttr = "tenant";

/// Attributes for Tracer::EmitSpan: up to kMaxAttrs (key, value) views held
/// inline, so building the list costs no heap allocation. It owns nothing:
/// the viewed strings must outlive the EmitSpan call, so build computed
/// values (std::to_string, concatenations) in locals, or as temporaries of
/// the call expression itself. A repeated key keeps its last value.
class SpanAttrList {
 public:
  using Attr = std::pair<std::string_view, std::string_view>;
  /// The most attributes any emit site passes is 7 (a membership
  /// transition to dead).
  static constexpr size_t kMaxAttrs = 8;

  SpanAttrList() = default;
  SpanAttrList(std::initializer_list<Attr> attrs) {
    for (const Attr& a : attrs) Add(a.first, a.second);
  }

  void Add(std::string_view key, std::string_view value) {
    assert(size_ < kMaxAttrs && "SpanAttrList: raise kMaxAttrs");
    if (size_ < kMaxAttrs) items_[size_++] = {key, value};
  }

  const Attr* begin() const { return items_.data(); }
  const Attr* end() const { return items_.data() + size_; }
  size_t size() const { return size_; }

 private:
  std::array<Attr, kMaxAttrs> items_;
  size_t size_ = 0;
};

/// Receives every span as it is emitted; the hook the sampling pipeline
/// (obs/sampler.h) attaches to make tracing stream instead of accumulate.
/// OnSpanStart fires before any attributes exist; OnSpanEnd fires exactly
/// once per span with the final attribute set (modules set attrs before
/// closing). Attributes set on an already-closed span are not re-delivered.
/// The Span& handed to either call is valid only during that call: in
/// stream mode the tracer reuses a closed span's storage for the next span
/// it opens, so a sink that keeps a span must copy it.
class SpanSink {
 public:
  virtual ~SpanSink() = default;
  virtual void OnSpanStart(const Span& span) = 0;
  virtual void OnSpanEnd(const Span& span) = 0;
};

/// Collects spans for one experiment. Span ids and trace ids are handed out
/// sequentially, so creation order (and therefore the serialized trace) is
/// a pure function of the simulation schedule.
///
/// Two storage modes:
///  - kRetainAll (default): append-only vector, every span kept — the
///    post-hoc analysis mode the original obs layer shipped with.
///  - kStream: only *open* spans are stored; a closed span is handed to the
///    attached SpanSink and released, so tracer memory is O(in-flight) and
///    retention policy lives entirely in the sink (see SamplingPipeline).
///    Released storage (hash node and attribute block) is reused by the
///    next span opened, so steady-state streaming allocates nothing.
///    Read APIs (spans()/Find/Roots/Validate/Export*) only see what is
///    still stored; serve reads from the sink's retained store instead.
class Tracer {
 public:
  enum class StoreMode { kRetainAll, kStream };

  explicit Tracer(sim::Simulation* sim) : sim_(sim) {}

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Opens a root span of a fresh trace at Now().
  TraceContext StartTrace(std::string_view name, std::string_view module);

  /// Opens a span at Now(). An invalid `parent` starts a fresh trace.
  /// Name/module are interned: repeated names cost one hash lookup and no
  /// string copy or allocation.
  TraceContext StartSpan(std::string_view name, std::string_view module,
                         TraceContext parent);

  /// StartSpan with an explicit start time (retrospective emission).
  TraceContext StartSpanAt(std::string_view name, std::string_view module,
                           TraceContext parent, SimTime start_us);

  /// Sets one attribute (overwriting) on an open or closed span.
  void SetAttr(TraceContext ctx, std::string_view key, std::string value);

  /// Closes the span at Now() / at `end_us`. Closing twice keeps the first
  /// end time; invalid contexts are ignored.
  void EndSpan(TraceContext ctx);
  void EndSpanAt(TraceContext ctx, SimTime end_us);

  /// Emits a fully-formed span in one call (retrospective instrumentation:
  /// the platform knows an attempt's queue/startup/exec intervals only once
  /// the attempt finishes).
  TraceContext EmitSpan(std::string_view name, std::string_view module,
                        TraceContext parent, SimTime start_us, SimTime end_us,
                        const SpanAttrList& attrs = {});

  /// Streams every span through `sink` as it opens/closes (nullptr
  /// detaches). Works in both store modes; in kStream the sink is the only
  /// place closed spans survive.
  void SetSink(SpanSink* sink) { sink_ = sink; }

  /// Must be chosen before the first span is emitted; switching a tracer
  /// that already holds spans is refused (returns false).
  bool SetStoreMode(StoreMode mode);
  StoreMode store_mode() const { return mode_; }

  /// Spans currently stored (all of them in kRetainAll; open only in
  /// kStream).
  const std::vector<Span>& spans() const { return spans_; }
  /// Total spans ever emitted, independent of storage mode.
  size_t span_count() const { return emitted_; }
  /// Spans currently held by the tracer itself.
  size_t stored_span_count() const {
    return mode_ == StoreMode::kStream ? open_.size() : spans_.size();
  }

  /// The clock this tracer stamps spans with (for modules that compute
  /// retrospective intervals relative to Now()).
  sim::Simulation* sim() const { return sim_; }

  /// nullptr when the id was never issued.
  const Span* Find(uint64_t span_id) const;

  /// Ids of root spans / of `span_id`'s direct children, in id order.
  std::vector<uint64_t> Roots() const;
  std::vector<uint64_t> ChildrenOf(uint64_t span_id) const;

  /// Structural well-formedness: every parent exists and precedes its
  /// child, traces are consistent along edges, every span is closed with
  /// start <= end, and every child interval lies within its parent's.
  Status Validate() const;

  /// Deterministic one-span-per-line rendering; the determinism regression
  /// tests compare two same-seed runs of this byte-for-byte.
  std::string ExportText() const;

  /// Deterministic JSON array of span objects.
  std::string ExportJson() const;

  void Clear();

 private:
  using OpenMap = std::unordered_map<uint64_t, Span>;

  Span* FindMutable(TraceContext ctx);
  /// kStream: the stored span for a new id, in a released node when one is
  /// free (its attributes cleared); every other field is the caller's.
  Span& OpenSlot(uint64_t id);

  sim::Simulation* sim_;
  StoreMode mode_ = StoreMode::kRetainAll;
  SpanSink* sink_ = nullptr;
  SymbolTable symbols_;  ///< Canonical span name/module strings.
  std::vector<Span> spans_;  ///< kRetainAll: spans_[id - 1] holds span `id`.
  OpenMap open_;  ///< kStream: open spans by id.
  std::vector<OpenMap::node_type> released_;  ///< kStream: closed spans' nodes.
  uint64_t next_trace_ = 1;
  uint64_t next_span_ = 1;
  uint64_t emitted_ = 0;
};

}  // namespace taureau::obs
