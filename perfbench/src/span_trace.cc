#include "span_trace.h"

#include <algorithm>
#include <cstdio>

#include "common/stats.h"

namespace perfbench {

const char* SpanName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kRun:
      return "sim.run";
    case SpanKind::kArrival:
      return "bench.arrival";
    case SpanKind::kInvoke:
      return "faas.invoke";
    case SpanKind::kHandler:
      return "fn.handler";
    case SpanKind::kCallback:
      return "bench.callback";
    case SpanKind::kExport:
      return "obs.export";
  }
  return "?";
}

SpanTrace::SpanTrace(size_t capacity, size_t max_request)
    : sink_ns_(max_request + 1, 0), sink_allocs_(max_request + 1, 0) {
  spans_.reserve(capacity);
  stack_.reserve(16);
}

void SpanTrace::Begin(SpanKind kind, uint64_t request) {
  Open o;
  o.rec.id = next_id_++;
  o.rec.parent = stack_.empty() ? 0 : stack_.back().rec.id;
  o.rec.kind = kind;
  o.rec.request = request;
  o.allocs_at_start = ThreadAllocs();
  stack_.push_back(o);
  // Read the clock last so the bookkeeping above is not inside the span.
  stack_.back().rec.start_ns = NowNs();
}

void SpanTrace::End() {
  const int64_t end = NowNs();
  Open o = stack_.back();
  stack_.pop_back();
  o.rec.end_ns = end;
  o.rec.allocs = ThreadAllocs() - o.allocs_at_start;
  if (!stack_.empty()) stack_.back().rec.child_ns += o.rec.duration_ns();
  spans_.push_back(o.rec);
}

void SpanTrace::Clear() {
  spans_.clear();
  std::fill(sink_ns_.begin(), sink_ns_.end(), 0);
  std::fill(sink_allocs_.begin(), sink_allocs_.end(), 0);
  sink_ns_total_ = 0;
  sink_calls_ = 0;
  next_id_ = 1;
}

void SpanTrace::AddSinkCall(uint64_t request, int64_t ns, uint64_t allocs) {
  if (!stack_.empty()) stack_.back().rec.child_ns += ns;
  if (request >= sink_ns_.size()) request = 0;
  sink_ns_[request] += ns;
  sink_allocs_[request] += allocs;
  sink_ns_total_ += ns;
  ++sink_calls_;
}

bool SpanTrace::WriteTsv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  int64_t first = spans_.empty() ? 0 : spans_.front().start_ns;
  for (const SpanRecord& s : spans_) first = std::min(first, s.start_ns);
  std::fprintf(f, "id\tparent\tname\trequest\tstart_ns\tdur_ns\tself_ns\tallocs\n");
  for (const SpanRecord& s : spans_) {
    std::fprintf(f, "%u\t%u\t%s\t%llu\t%lld\t%lld\t%lld\t%llu\n", s.id,
                 s.parent, SpanName(s.kind), (unsigned long long)s.request,
                 (long long)(s.start_ns - first), (long long)s.duration_ns(),
                 (long long)s.self_ns(), (unsigned long long)s.allocs);
  }
  return std::fclose(f) == 0;
}

KindSummary Summarize(const std::vector<SpanRecord>& spans, SpanKind kind) {
  KindSummary s;
  std::vector<double> durations;
  for (const SpanRecord& r : spans) {
    if (r.kind != kind) continue;
    ++s.n;
    s.total_ns += r.duration_ns();
    s.self_ns += r.self_ns();
    s.allocs += r.allocs;
    durations.push_back(double(r.duration_ns()));
  }
  s.p50_ns = taureau::ExactQuantile(durations, 0.50);
  s.p99_ns = taureau::ExactQuantile(std::move(durations), 0.99);
  return s;
}

}  // namespace perfbench
