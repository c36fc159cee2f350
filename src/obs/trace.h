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
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <iterator>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/time_types.h"
#include "obs/id_slab.h"
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

/// A span's attributes, held inline in the Span: a key-sorted array of
/// 16-byte entries and one byte buffer holding each key followed by its
/// value, in entry order. An entry packs the key's first 8 bytes
/// big-endian (zero-padded) beside the key's offset and length; the value
/// starts where the key ends and ends where the next entry's key starts, so
/// the entry's offset and length can be 32-bit: keys and values past 64 KiB
/// round-trip, up to 4 GiB in all. Past kInlineEntries entries or
/// kInlineBytes bytes, both parts move to one heap block, which the span
/// keeps when it is cleared and reused. Copying is two memcpys.
///
/// Order and equality are std::map<std::string, std::string>'s: bytes
/// compare unsigned and a key sorts before every key it prefixes. The
/// prefix decides only the comparisons where two prefixes differ. Readers
/// get string_views into the span, valid until its next Set, clear or
/// assignment, so every export renders the bytes the map did.
class SpanAttrs {
 public:
  /// The largest hot span (the faas root closed by Complete) carries 7
  /// attributes in under 90 bytes; SpanAttrList::kMaxAttrs is 8.
  static constexpr uint32_t kInlineEntries = 8;
  static constexpr uint32_t kInlineBytes = 96;

  using value_type = std::pair<std::string_view, std::string_view>;

  class const_iterator {
   public:
    using iterator_category = std::input_iterator_tag;
    using value_type = SpanAttrs::value_type;
    using difference_type = std::ptrdiff_t;
    using reference = value_type;
    /// operator-> yields the (key, value) pair by value.
    struct pointer {
      value_type kv;
      const value_type* operator->() const { return &kv; }
    };

    const_iterator() = default;
    value_type operator*() const { return attrs_->At(i_); }
    pointer operator->() const { return {attrs_->At(i_)}; }
    const_iterator& operator++() {
      ++i_;
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator was = *this;
      ++i_;
      return was;
    }
    bool operator==(const const_iterator&) const = default;

   private:
    friend class SpanAttrs;
    const_iterator(const SpanAttrs* attrs, uint32_t i) : attrs_(attrs), i_(i) {}

    const SpanAttrs* attrs_ = nullptr;
    uint32_t i_ = 0;
  };

  SpanAttrs() = default;
  SpanAttrs(const SpanAttrs& other) { CopyFrom(other); }
  SpanAttrs(SpanAttrs&& other) noexcept { MoveFrom(other); }
  SpanAttrs& operator=(const SpanAttrs& other) {
    if (this != &other) CopyFrom(other);
    return *this;
  }
  SpanAttrs& operator=(SpanAttrs&& other) noexcept {
    if (this != &other) MoveFrom(other);
    return *this;
  }

  const_iterator begin() const { return {this, 0}; }
  const_iterator end() const { return {this, size_}; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  const_iterator find(std::string_view key) const {
    const uint64_t prefix = Prefix(key);
    const uint32_t i = LowerBound(prefix, key);
    return i < size_ && entries()[i].prefix == prefix && KeyAt(i) == key
               ? const_iterator(this, i)
               : end();
  }
  size_t count(std::string_view key) const { return find(key) != end(); }
  /// Throws std::out_of_range for an absent key, like std::map::at.
  std::string_view at(std::string_view key) const {
    const const_iterator it = find(key);
    if (it == end()) throw std::out_of_range("SpanAttrs::at");
    return (*it).second;
  }

  /// Sets `key` to `value`, inserting it at its sorted place if absent.
  /// Throws std::length_error past 4 GiB of keys and values.
  void Set(std::string_view key, std::string_view value);

  /// Drops every attribute; a spilled span keeps its heap block.
  void clear() {
    size_ = 0;
    used_ = 0;
  }

 private:
  struct Entry {
    uint64_t prefix;  ///< First 8 key bytes, big-endian, zero-padded.
    uint32_t off;     ///< The key's offset; its value follows it.
    uint32_t key_len;
  };
  static_assert(sizeof(Entry) == 16);

  static uint64_t Prefix(std::string_view key) {
    unsigned char b[8] = {};
    if (!key.empty()) std::memcpy(b, key.data(), std::min<size_t>(key.size(), 8));
    uint64_t prefix = 0;
    for (const unsigned char c : b) prefix = prefix << 8 | c;
    return prefix;
  }

  const Entry* entries() const {
    return heap_ != nullptr ? heap_.get() : inline_entries_;
  }
  Entry* entries() { return heap_ != nullptr ? heap_.get() : inline_entries_; }
  const char* bytes() const {
    return heap_ != nullptr
               ? reinterpret_cast<const char*>(heap_.get() + entry_cap_)
               : inline_bytes_;
  }
  char* bytes() {
    return heap_ != nullptr ? reinterpret_cast<char*>(heap_.get() + entry_cap_)
                            : inline_bytes_;
  }
  /// One past entry i's value.
  uint32_t EndOf(uint32_t i) const {
    return i + 1 < size_ ? entries()[i + 1].off : used_;
  }
  std::string_view KeyAt(uint32_t i) const {
    const Entry& e = entries()[i];
    return {bytes() + e.off, e.key_len};
  }
  value_type At(uint32_t i) const {
    const Entry& e = entries()[i];
    const uint32_t value_off = e.off + e.key_len;
    return {{bytes() + e.off, e.key_len},
            {bytes() + value_off, EndOf(i) - value_off}};
  }
  /// The first entry whose key is not less than `key`.
  uint32_t LowerBound(uint64_t prefix, std::string_view key) const {
    const Entry* e = entries();
    uint32_t lo = 0;
    uint32_t hi = size_;
    while (lo < hi) {
      const uint32_t mid = lo + (hi - lo) / 2;
      const bool less = e[mid].prefix != prefix ? e[mid].prefix < prefix
                                                : KeyAt(mid) < key;
      if (less) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  }
  /// Whether `s` views this span's own byte buffer.
  bool Holds(std::string_view s) const;
  /// Makes room for `n_entries` entries and `n_bytes` bytes, spilling to
  /// (or growing) the heap block; existing contents are kept.
  void Reserve(size_t n_entries, size_t n_bytes);
  void CopyFrom(const SpanAttrs& other);
  void MoveFrom(SpanAttrs& other) noexcept;

  Entry inline_entries_[kInlineEntries] = {};
  char inline_bytes_[kInlineBytes] = {};
  /// Spilled storage: entry_cap_ entries, then byte_cap_ bytes.
  std::unique_ptr<Entry[]> heap_;
  uint32_t size_ = 0;  ///< Entries in use.
  uint32_t used_ = 0;  ///< Bytes in use.
  uint32_t entry_cap_ = kInlineEntries;
  uint32_t byte_cap_ = kInlineBytes;
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
/// stream mode the tracer reuses a closed span's slot for the next span it
/// opens, so a sink that keeps a span must copy it. A sink must not open
/// or close spans on the tracer that calls it.
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
///    Open spans sit in an IdSlab; a released slot (attributes included)
///    is reused by the next span opened, so steady-state streaming
///    allocates nothing.
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

  /// Sets one attribute (overwriting) on a stored span: an open one, or in
  /// kRetainAll a closed one too.
  void SetAttr(TraceContext ctx, std::string_view key, std::string_view value);

  /// Sets `attrs` (as SetAttr would, in order) and closes the span at Now()
  /// / at `end_us`, finding it once. Closing twice keeps the first end
  /// time; invalid contexts are ignored.
  void EndSpan(TraceContext ctx, const SpanAttrList& attrs = {});
  void EndSpanAt(TraceContext ctx, SimTime end_us,
                 const SpanAttrList& attrs = {});

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

  /// nullptr when the id was never issued (or, in kStream, is closed). The
  /// pointer stays valid until the span closes in kStream, and until the
  /// next span opens in kRetainAll.
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
  Span* FindMutable(TraceContext ctx);
  /// Stores a new open span; the caller hands it to the sink.
  Span& Open(std::string_view name, std::string_view module,
             TraceContext parent, SimTime start_us);
  /// Sets `attrs` on `s`, then closes it unless it is already closed.
  void Close(Span* s, SimTime end_us, const SpanAttrList& attrs);

  sim::Simulation* sim_;
  StoreMode mode_ = StoreMode::kRetainAll;
  SpanSink* sink_ = nullptr;
  SymbolTable symbols_;  ///< Canonical span name/module strings.
  std::vector<Span> spans_;  ///< kRetainAll: spans_[id - 1] holds span `id`.
  IdSlab<Span> open_;  ///< kStream: open spans by id.
  uint64_t next_trace_ = 1;
  uint64_t next_span_ = 1;
  uint64_t emitted_ = 0;
};

}  // namespace taureau::obs
