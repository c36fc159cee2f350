#include "obs/sampler.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "common/hash.h"

namespace taureau::obs {

std::string_view RetainReasonName(RetainReason r) {
  switch (r) {
    case RetainReason::kPending:
      return "pending";
    case RetainReason::kDropped:
      return "dropped";
    case RetainReason::kHead:
      return "head";
    case RetainReason::kSlow:
      return "slow";
    case RetainReason::kFault:
      return "fault";
    case RetainReason::kError:
      return "error";
  }
  return "?";
}

SamplingPipeline::SamplingPipeline(SamplerConfig config, FlameProfile* flame,
                                   SloEngine* slo)
    : config_(config), flame_(flame), slo_(slo) {}

bool SamplingPipeline::HeadKeeps(uint64_t trace_id) const {
  if (config_.head_rate >= 1.0) return true;
  if (config_.head_rate <= 0.0) return false;
  const uint64_t h = MixU64(HashCombine(MixU64(trace_id), config_.seed));
  return double(h) < config_.head_rate * double(UINT64_MAX);
}

RetainReason SamplingPipeline::DecisionFor(uint64_t trace_id) const {
  if (trace_id == 0 || trace_id > decisions_.size()) {
    return RetainReason::kPending;
  }
  return decisions_[trace_id - 1];
}

SamplingPipeline::Pending& SamplingPipeline::GroupFor(uint64_t trace_id) {
  if (Pending* group = pending_.Find(trace_id)) return *group;
  Pending& group = pending_.Insert(trace_id);
  group.Reset();
  return group;
}

void SamplingPipeline::OnSpanStart(const Span& span) {
  Pending& group = GroupFor(span.trace);
  ++group.open;
  if (span.parent == 0 && group.root_id == 0) {
    group.root_id = span.id;
  }
  if (DecisionFor(span.trace) != RetainReason::kPending) group.late = true;
}

void SamplingPipeline::NoteMarkers(const Span& span, Pending* group) {
  const auto it = span.attrs.find(kOutcomeAttr);
  if (it == span.attrs.end()) return;
  if (it->second == kOutcomeError) group->saw_error = true;
  if (it->second == kOutcomeFault) group->saw_fault = true;
}

void SamplingPipeline::OnSpanEnd(const Span& span) {
  ++stats_.spans_seen;
  Pending* found = pending_.Find(span.trace);
  if (found == nullptr) return;  // start was never seen; ignore
  Pending& group = *found;
  NoteMarkers(span, &group);
  if (span.id == group.root_id) group.root_ended = true;
  if (group.size < group.slots.size()) {
    group.slots[group.size] = span;
  } else {
    if (group.slots.empty()) group.slots.reserve(Pending::kFirstSlots);
    group.slots.push_back(span);
  }
  ++group.size;
  if (group.open > 0) --group.open;
  if (group.open == 0 && (group.root_ended || group.late)) {
    const bool complete = !group.late;
    Finalize(span.trace, &group, complete);
  }
}

void SamplingPipeline::Finalize(uint64_t trace_id, Pending* group,
                                bool complete) {
  const std::span<Span> spans(group->slots.data(), group->size);
  std::sort(spans.begin(), spans.end(),
            [](const Span& a, const Span& b) { return a.id < b.id; });
  if (flame_ != nullptr) flame_->FoldTrace(spans);

  if (group->late) {
    ++stats_.late_groups;
    // Late span groups (async follow-from work such as pubsub deliveries)
    // inherit their trace's original decision.
    const RetainReason prior = DecisionFor(trace_id);
    if (prior != RetainReason::kDropped && prior != RetainReason::kPending) {
      if (RetainedTrace* trace = QueueFor(prior).Find(trace_id)) {
        if (trace->offset + trace->length != text_.size()) {
          // The late lines follow the trace's own, so its run moves to the
          // end of the arena first.
          const size_t from = trace->offset;
          trace->offset = text_.size();
          text_.append(text_, from, trace->length);
          dead_bytes_ += trace->length;
        }
        AppendSpans(spans, trace);
        EvictIfOver();
      }
    }
  } else {
    Decide(trace_id, *group, complete, spans);
  }
  pending_.Erase(trace_id);
}

void SamplingPipeline::Decide(uint64_t trace_id, const Pending& group,
                              bool complete, std::span<const Span> spans) {
  ++stats_.traces_finalized;
  if (!complete || !group.root_ended) ++stats_.incomplete_traces;

  bool slow = false;
  if (group.root_ended) {
    const Span& root = *std::lower_bound(
        spans.begin(), spans.end(), group.root_id,
        [](const Span& s, uint64_t id) { return s.id < id; });
    SimDuration budget =
        slo_ != nullptr ? slo_->SlowBudgetFor(root.module) : -1;
    if (budget < 0) budget = config_.slow_threshold_us;
    slow = budget >= 0 && root.duration_us() > budget;
    if (slo_ != nullptr) {
      const auto tenant = root.attrs.find(kTenantAttr);
      if (tenant != root.attrs.end()) {
        slo_->Record(root.module, tenant->second, root.end_us,
                     root.duration_us(), !group.saw_error);
      } else {
        slo_->Record(root.module, root.end_us, root.duration_us(),
                     !group.saw_error);
      }
    }
  }

  RetainReason reason = RetainReason::kDropped;
  if (group.saw_error) {
    reason = RetainReason::kError;
  } else if (group.saw_fault) {
    reason = RetainReason::kFault;
  } else if (slow) {
    reason = RetainReason::kSlow;
  } else if (HeadKeeps(trace_id)) {
    reason = RetainReason::kHead;
  }

  if (trace_id > decisions_.size()) {
    decisions_.resize(trace_id, RetainReason::kPending);
  }
  decisions_[trace_id - 1] = reason;

  const bool important = group.saw_error || group.saw_fault || slow;
  if (important) ++stats_.important_seen;
  if (reason == RetainReason::kDropped) {
    ++stats_.traces_dropped;
    return;
  }
  ++stats_.traces_retained;
  if (important) ++stats_.important_retained;
  Retain(trace_id, reason, spans);
}

void SamplingPipeline::Retain(uint64_t trace_id, RetainReason reason,
                              std::span<const Span> spans) {
  RetainedTrace trace;
  trace.id = trace_id;
  trace.reason = reason;
  trace.offset = text_.size();
  AppendSpans(spans, &trace);
  QueueFor(reason).Insert(trace);
  EvictIfOver();
}

void SamplingPipeline::AppendSpans(std::span<const Span> spans,
                                   RetainedTrace* trace) {
  for (const Span& s : spans) {
    AppendSpanLine(s, &text_);
    const size_t bytes = ApproxSpanBytes(s);
    trace->approx_bytes += bytes;
    retained_bytes_ += bytes;
  }
  trace->length = text_.size() - trace->offset;
  trace->spans += uint32_t(spans.size());
  retained_span_count_ += spans.size();
  stats_.spans_retained += spans.size();
}

void SamplingPipeline::EvictIfOver() {
  while (retained_span_count_ > config_.max_retained_spans &&
         !(head_sampled_.empty() && important_.empty())) {
    const bool important = head_sampled_.empty();
    const RetainedTrace victim =
        (important ? important_ : head_sampled_).PopFront();
    retained_span_count_ -= victim.spans;
    retained_bytes_ -= victim.approx_bytes;
    dead_bytes_ += victim.length;
    ++stats_.evicted_traces;
    if (important) ++stats_.evicted_important;
  }
  if (dead_bytes_ > text_.size() - dead_bytes_) CompactText();
}

void SamplingPipeline::CompactText() {
  by_offset_.clear();
  for (RetainedQueue* queue : {&head_sampled_, &important_}) {
    for (RetainedTrace& trace : queue->live()) by_offset_.push_back(&trace);
  }
  std::sort(by_offset_.begin(), by_offset_.end(),
            [](const RetainedTrace* a, const RetainedTrace* b) {
              return a->offset < b->offset;
            });
  size_t end = 0;
  for (RetainedTrace* trace : by_offset_) {
    std::memmove(text_.data() + end, text_.data() + trace->offset,
                 trace->length);
    trace->offset = end;
    end += trace->length;
  }
  text_.resize(end);
  dead_bytes_ = 0;
}

void SamplingPipeline::RetainedQueue::Insert(const RetainedTrace& trace) {
  const auto at = std::upper_bound(
      traces.begin() + ptrdiff_t(head), traces.end(), trace.id,
      [](uint64_t id, const RetainedTrace& t) { return id < t.id; });
  traces.insert(at, trace);
}

SamplingPipeline::RetainedTrace* SamplingPipeline::RetainedQueue::Find(
    uint64_t id) {
  const std::span<RetainedTrace> in = live();
  const auto it = std::lower_bound(
      in.begin(), in.end(), id,
      [](const RetainedTrace& t, uint64_t want) { return t.id < want; });
  return it != in.end() && it->id == id ? &*it : nullptr;
}

SamplingPipeline::RetainedTrace SamplingPipeline::RetainedQueue::PopFront() {
  const RetainedTrace front = traces[head++];
  if (2 * head >= traces.size()) {
    traces.erase(traces.begin(), traces.begin() + ptrdiff_t(head));
    head = 0;
  }
  return front;
}

void SamplingPipeline::Flush() {
  // Finalize in trace-id order so same-seed runs flush identically.
  std::vector<uint64_t> ids;
  ids.reserve(pending_.size());
  pending_.ForEach([&ids](uint64_t tid, const Pending&) { ids.push_back(tid); });
  std::sort(ids.begin(), ids.end());
  for (uint64_t tid : ids) {
    Finalize(tid, pending_.Find(tid), /*complete=*/false);
  }
}

size_t SamplingPipeline::pending_span_count() const {
  size_t n = 0;
  pending_.ForEach([&n](uint64_t, const Pending& group) {
    n += group.size + group.open;
  });
  return n;
}

size_t SamplingPipeline::ApproxSpanBytes(const Span& span) {
  // The per-span base is the size Span had when it held a std::map of
  // attributes. retained_bytes is printed in the "== sampler ==" export, so
  // the estimate stays fixed rather than tracking sizeof(Span): outcome
  // digests over ExportAll must not move with the in-memory layout.
  constexpr size_t kSpanBytes = 104;
  size_t bytes = kSpanBytes + span.name.size() + span.module.size();
  for (const auto& [k, v] : span.attrs) {
    bytes += k.size() + v.size() + 32;  // node + pointer overhead estimate
  }
  return bytes;
}

std::string SamplingPipeline::ExportText() const {
  std::string out;
  AppendExportText(&out);
  return out;
}

void SamplingPipeline::AppendExportText(std::string* out) const {
  // The two queues are each in id order; merge them.
  const std::span<const RetainedTrace> head = head_sampled_.live();
  const std::span<const RetainedTrace> important = important_.live();
  size_t h = 0;
  size_t i = 0;
  char buf[64];
  while (h < head.size() || i < important.size()) {
    const RetainedTrace& trace =
        i == important.size() ||
                (h < head.size() && head[h].id < important[i].id)
            ? head[h++]
            : important[i++];
    std::snprintf(buf, sizeof(buf), "trace=%llu reason=",
                  static_cast<unsigned long long>(trace.id));
    *out += buf;
    *out += RetainReasonName(trace.reason);
    *out += '\n';
    out->append(text_, trace.offset, trace.length);
  }
}

size_t SamplingPipeline::ExportTextBound() const {
  // "trace=" + 20 digits + " reason=" + 7 letters + newline.
  constexpr size_t kHeaderBytes = 6 + 20 + 8 + 7 + 1;
  const size_t traces = head_sampled_.live().size() + important_.live().size();
  return text_.size() - dead_bytes_ + kHeaderBytes * traces;
}

size_t SamplingPipeline::retained_store_bytes() const {
  return text_.capacity() +
         sizeof(RetainedTrace) * (head_sampled_.traces.capacity() +
                                  important_.traces.capacity()) +
         sizeof(RetainedTrace*) * by_offset_.capacity();
}

std::string SamplingPipeline::ExportSummaryText() const {
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "spans_seen %llu\ntraces_finalized %llu\ntraces_retained %llu\n"
      "traces_dropped %llu\nspans_retained %llu\nimportant_seen %llu\n"
      "important_retained %llu\nlate_groups %llu\nincomplete_traces %llu\n"
      "evicted_traces %llu\nevicted_important %llu\n"
      "retained_span_count %llu\nretained_bytes %llu\n",
      static_cast<unsigned long long>(stats_.spans_seen),
      static_cast<unsigned long long>(stats_.traces_finalized),
      static_cast<unsigned long long>(stats_.traces_retained),
      static_cast<unsigned long long>(stats_.traces_dropped),
      static_cast<unsigned long long>(stats_.spans_retained),
      static_cast<unsigned long long>(stats_.important_seen),
      static_cast<unsigned long long>(stats_.important_retained),
      static_cast<unsigned long long>(stats_.late_groups),
      static_cast<unsigned long long>(stats_.incomplete_traces),
      static_cast<unsigned long long>(stats_.evicted_traces),
      static_cast<unsigned long long>(stats_.evicted_important),
      static_cast<unsigned long long>(retained_span_count_),
      static_cast<unsigned long long>(retained_bytes_));
  return buf;
}

}  // namespace taureau::obs
