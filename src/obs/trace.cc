#include "obs/trace.h"

#include <algorithm>
#include <cstdio>

namespace taureau::obs {
namespace {

/// Minimal JSON string escaping (module/name/attr values are plain ASCII
/// identifiers in practice, but stay safe anyway).
std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        out.push_back(c);
    }
  }
  return out;
}

}  // namespace

void AppendSpanLine(const Span& s, std::string* out) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "span=%llu parent=%llu trace=%llu [%lld,%lld] %s/%s",
                static_cast<unsigned long long>(s.id),
                static_cast<unsigned long long>(s.parent),
                static_cast<unsigned long long>(s.trace),
                static_cast<long long>(s.start_us),
                static_cast<long long>(s.end_us), s.module.c_str(),
                s.name.c_str());
  *out += buf;
  for (const auto& [k, v] : s.attrs) {
    *out += ' ';
    *out += k;
    *out += '=';
    *out += v;
  }
  *out += '\n';
}

bool Tracer::SetStoreMode(StoreMode mode) {
  if (emitted_ != 0 && mode != mode_) return false;
  mode_ = mode;
  return true;
}

TraceContext Tracer::StartTrace(std::string_view name,
                                std::string_view module) {
  return StartSpan(name, module, TraceContext{});
}

TraceContext Tracer::StartSpan(std::string_view name, std::string_view module,
                               TraceContext parent) {
  return StartSpanAt(name, module, parent, sim_->Now());
}

TraceContext Tracer::StartSpanAt(std::string_view name,
                                 std::string_view module, TraceContext parent,
                                 SimTime start_us) {
  const uint64_t id = next_span_++;
  Span& span =
      mode_ == StoreMode::kStream ? OpenSlot(id) : spans_.emplace_back();
  span.id = id;
  span.name = Interned(symbols_.Intern(name));
  span.module = Interned(symbols_.Intern(module));
  span.start_us = start_us;
  span.end_us = -1;
  if (parent.valid() && parent.span_id < id) {
    span.parent = parent.span_id;
    span.trace = parent.trace_id;
  } else {
    span.parent = 0;
    span.trace = next_trace_++;
  }
  ++emitted_;
  const TraceContext ctx{span.trace, span.id};
  if (sink_ != nullptr) sink_->OnSpanStart(span);
  return ctx;
}

Span& Tracer::OpenSlot(uint64_t id) {
  if (released_.empty()) return open_[id];
  OpenMap::node_type node = std::move(released_.back());
  released_.pop_back();
  node.key() = id;
  node.mapped().attrs.clear();
  return open_.insert(std::move(node)).position->second;
}

Span* Tracer::FindMutable(TraceContext ctx) {
  if (!ctx.valid()) return nullptr;
  if (mode_ == StoreMode::kStream) {
    auto it = open_.find(ctx.span_id);
    return it != open_.end() ? &it->second : nullptr;
  }
  if (ctx.span_id > spans_.size()) return nullptr;
  return &spans_[ctx.span_id - 1];
}

void Tracer::SetAttr(TraceContext ctx, std::string_view key,
                     std::string value) {
  if (Span* s = FindMutable(ctx)) s->attrs[key] = std::move(value);
}

void Tracer::EndSpan(TraceContext ctx) { EndSpanAt(ctx, sim_->Now()); }

void Tracer::EndSpanAt(TraceContext ctx, SimTime end_us) {
  Span* s = FindMutable(ctx);
  if (s == nullptr || s->ended()) return;
  s->end_us = std::max(end_us, s->start_us);
  if (sink_ != nullptr) sink_->OnSpanEnd(*s);
  if (mode_ == StoreMode::kStream) {
    released_.push_back(open_.extract(ctx.span_id));
  }
}

TraceContext Tracer::EmitSpan(std::string_view name, std::string_view module,
                              TraceContext parent, SimTime start_us,
                              SimTime end_us, const SpanAttrList& attrs) {
  const TraceContext ctx = StartSpanAt(name, module, parent, start_us);
  if (Span* s = FindMutable(ctx)) {
    s->attrs.reserve(attrs.size());
    for (const auto& [k, v] : attrs) s->attrs[k] = v;
  }
  EndSpanAt(ctx, end_us);
  return ctx;
}

const Span* Tracer::Find(uint64_t span_id) const {
  if (span_id == 0) return nullptr;
  if (mode_ == StoreMode::kStream) {
    auto it = open_.find(span_id);
    return it != open_.end() ? &it->second : nullptr;
  }
  if (span_id > spans_.size()) return nullptr;
  return &spans_[span_id - 1];
}

std::vector<uint64_t> Tracer::Roots() const {
  std::vector<uint64_t> out;
  for (const Span& s : spans_) {
    if (s.parent == 0) out.push_back(s.id);
  }
  return out;
}

std::vector<uint64_t> Tracer::ChildrenOf(uint64_t span_id) const {
  std::vector<uint64_t> out;
  for (const Span& s : spans_) {
    if (s.parent == span_id) out.push_back(s.id);
  }
  return out;
}

Status Tracer::Validate() const {
  for (const Span& s : spans_) {
    const std::string tag = "span " + std::to_string(s.id) + " (" + s.name +
                            ")";
    if (!s.ended()) {
      return Status::FailedPrecondition(tag + " never ended");
    }
    if (s.end_us < s.start_us) {
      return Status::Internal(tag + " ends before it starts");
    }
    if (s.parent != 0) {
      if (s.parent >= s.id) {
        // Ids are issued in creation order, so a parent always precedes
        // its children; a forward reference means a corrupted context.
        return Status::Internal(tag + " references a later/unknown parent");
      }
      const Span& p = spans_[s.parent - 1];
      if (p.trace != s.trace) {
        return Status::Internal(tag + " crosses traces to its parent");
      }
      if (s.start_us < p.start_us) {
        return Status::Internal(tag + " starts before parent span " +
                                std::to_string(p.id));
      }
      if (p.ended() && s.end_us > p.end_us && !s.attrs.count(kAsyncAttr)) {
        return Status::Internal(tag + " interval escapes parent span " +
                                std::to_string(p.id));
      }
    }
  }
  return Status::OK();
}

std::string Tracer::ExportText() const {
  std::string out;
  for (const Span& s : spans_) AppendSpanLine(s, &out);
  return out;
}

std::string Tracer::ExportJson() const {
  std::string out = "[";
  char buf[192];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"id\":%llu,\"parent\":%llu,\"trace\":%llu,"
                  "\"start_us\":%lld,\"end_us\":%lld",
                  i ? "," : "", static_cast<unsigned long long>(s.id),
                  static_cast<unsigned long long>(s.parent),
                  static_cast<unsigned long long>(s.trace),
                  static_cast<long long>(s.start_us),
                  static_cast<long long>(s.end_us));
    out += buf;
    out += ",\"module\":\"" + JsonEscape(s.module) + "\"";
    out += ",\"name\":\"" + JsonEscape(s.name) + "\"";
    if (!s.attrs.empty()) {
      out += ",\"attrs\":{";
      bool first = true;
      for (const auto& [k, v] : s.attrs) {
        if (!first) out += ',';
        first = false;
        out += "\"" + JsonEscape(k) + "\":\"" + JsonEscape(v) + "\"";
      }
      out += '}';
    }
    out += '}';
  }
  out += "]";
  return out;
}

void Tracer::Clear() {
  spans_.clear();
  open_.clear();
  next_trace_ = 1;
  next_span_ = 1;
  emitted_ = 0;
}

}  // namespace taureau::obs
