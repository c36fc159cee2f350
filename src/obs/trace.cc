#include "obs/trace.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <functional>

namespace taureau::obs {
namespace {

/// Appends `s` as a quoted JSON string with minimal escaping (module/name/
/// attr values are plain ASCII identifiers in practice, but stay safe
/// anyway).
void AppendJsonString(std::string_view s, std::string* out) {
  out->push_back('"');
  for (char c : s) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\t':
        *out += "\\t";
        break;
      default:
        out->push_back(c);
    }
  }
  out->push_back('"');
}

}  // namespace

bool SpanAttrs::Holds(std::string_view s) const {
  const char* b = bytes();
  return !s.empty() && std::less_equal<const char*>()(b, s.data()) &&
         std::less<const char*>()(s.data(), b + byte_cap_);
}

void SpanAttrs::Reserve(size_t n_entries, size_t n_bytes) {
  if (n_entries <= entry_cap_ && n_bytes <= byte_cap_) return;
  const size_t entry_cap = std::max<size_t>(n_entries, 2 * size_t(entry_cap_));
  // Round the byte part up to whole entries; the block is one Entry array.
  const size_t byte_entries =
      (std::max<size_t>(n_bytes, 2 * size_t(byte_cap_)) + sizeof(Entry) - 1) /
      sizeof(Entry);
  auto block = std::make_unique<Entry[]>(entry_cap + byte_entries);
  std::memcpy(block.get(), entries(), size_ * sizeof(Entry));
  std::memcpy(reinterpret_cast<char*>(block.get() + entry_cap), bytes(), used_);
  heap_ = std::move(block);
  entry_cap_ = uint32_t(entry_cap);
  byte_cap_ = uint32_t(std::min<size_t>(byte_entries * sizeof(Entry), UINT32_MAX));
}

void SpanAttrs::Set(std::string_view key, std::string_view value) {
  if (Holds(key) || Holds(value)) {
    // The views point into this span's own buffer, which the write below
    // shifts or reallocates: set from copies.
    const std::string k(key);
    const std::string v(value);
    Set(k, v);
    return;
  }
  const uint64_t prefix = Prefix(key);
  const uint32_t i = LowerBound(prefix, key);
  const bool found =
      i < size_ && entries()[i].prefix == prefix && KeyAt(i) == key;
  // The byte range [at, at + old_len) becomes `new_len` bytes: the old
  // value of an existing key, or an empty range where a new key goes.
  uint32_t at = used_;
  uint32_t old_len = 0;
  size_t new_len = key.size() + value.size();
  if (found) {
    at = entries()[i].off + entries()[i].key_len;
    old_len = EndOf(i) - at;
    new_len = value.size();
  } else if (i < size_) {
    at = entries()[i].off;
  }
  const size_t need = size_t(used_) - old_len + new_len;
  if (need > UINT32_MAX) throw std::length_error("SpanAttrs: over 4 GiB");
  Reserve(size_ + (found ? 0 : 1), need);

  Entry* e = entries();
  char* b = bytes();
  std::memmove(b + at + new_len, b + at + old_len, used_ - at - old_len);
  // Offsets wrap mod 2^32 when the range shrinks; every result fits.
  const uint32_t delta = uint32_t(new_len) - old_len;
  for (uint32_t j = found ? i + 1 : i; j < size_; ++j) e[j].off += delta;
  uint32_t value_at = at;
  if (!found) {
    std::memmove(e + i + 1, e + i, (size_ - i) * sizeof(Entry));
    e[i] = Entry{prefix, at, uint32_t(key.size())};
    if (!key.empty()) std::memcpy(b + at, key.data(), key.size());
    value_at += uint32_t(key.size());
    ++size_;
  }
  if (!value.empty()) std::memcpy(b + value_at, value.data(), value.size());
  used_ = uint32_t(need);
}

void SpanAttrs::CopyFrom(const SpanAttrs& other) {
  clear();
  Reserve(other.size_, other.used_);
  std::memcpy(entries(), other.entries(), other.size_ * sizeof(Entry));
  std::memcpy(bytes(), other.bytes(), other.used_);
  size_ = other.size_;
  used_ = other.used_;
}

void SpanAttrs::MoveFrom(SpanAttrs& other) noexcept {
  if (other.heap_ == nullptr) {
    // Inline contents fit any storage this span has.
    std::memcpy(entries(), other.inline_entries_, other.size_ * sizeof(Entry));
    std::memcpy(bytes(), other.inline_bytes_, other.used_);
    size_ = other.size_;
    used_ = other.used_;
  } else {
    // Trade blocks, so `other` keeps this span's (if any) for reuse.
    std::swap(heap_, other.heap_);
    std::swap(entry_cap_, other.entry_cap_);
    std::swap(byte_cap_, other.byte_cap_);
    size_ = other.size_;
    used_ = other.used_;
  }
  other.clear();
}

void AppendSpanLine(const Span& s, std::string* out) {
  // Five numbers of at most 20 characters and 26 characters of text.
  char buf[128];
  char* p = buf;
  const auto text = [&p](std::string_view t) {
    std::memcpy(p, t.data(), t.size());
    p += t.size();
  };
  const auto number = [&p](auto v) {
    p = std::to_chars(p, p + 20, v).ptr;
  };
  text("span=");
  number(s.id);
  text(" parent=");
  number(s.parent);
  text(" trace=");
  number(s.trace);
  text(" [");
  number(s.start_us);
  text(",");
  number(s.end_us);
  text("] ");
  out->append(buf, p);
  *out += s.module.str();
  *out += '/';
  *out += s.name.str();
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
  const Span& span = Open(name, module, parent, start_us);
  const TraceContext ctx{span.trace, span.id};
  if (sink_ != nullptr) sink_->OnSpanStart(span);
  return ctx;
}

Span& Tracer::Open(std::string_view name, std::string_view module,
                   TraceContext parent, SimTime start_us) {
  const uint64_t id = next_span_++;
  Span* slot;
  if (mode_ == StoreMode::kStream) {
    // A reused slot still holds its last span; every field is set below.
    slot = &open_.Insert(id);
    slot->attrs.clear();
  } else {
    slot = &spans_.emplace_back();
  }
  Span& span = *slot;
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
  return span;
}

Span* Tracer::FindMutable(TraceContext ctx) {
  if (!ctx.valid()) return nullptr;
  if (mode_ == StoreMode::kStream) return open_.Find(ctx.span_id);
  if (ctx.span_id > spans_.size()) return nullptr;
  return &spans_[ctx.span_id - 1];
}

void Tracer::SetAttr(TraceContext ctx, std::string_view key,
                     std::string_view value) {
  if (Span* s = FindMutable(ctx)) s->attrs.Set(key, value);
}

void Tracer::EndSpan(TraceContext ctx, const SpanAttrList& attrs) {
  EndSpanAt(ctx, sim_->Now(), attrs);
}

void Tracer::EndSpanAt(TraceContext ctx, SimTime end_us,
                       const SpanAttrList& attrs) {
  if (Span* s = FindMutable(ctx)) Close(s, end_us, attrs);
}

void Tracer::Close(Span* s, SimTime end_us, const SpanAttrList& attrs) {
  for (const auto& [k, v] : attrs) s->attrs.Set(k, v);
  if (s->ended()) return;
  s->end_us = std::max(end_us, s->start_us);
  if (sink_ != nullptr) sink_->OnSpanEnd(*s);
  if (mode_ == StoreMode::kStream) open_.Erase(s->id);
}

TraceContext Tracer::EmitSpan(std::string_view name, std::string_view module,
                              TraceContext parent, SimTime start_us,
                              SimTime end_us, const SpanAttrList& attrs) {
  Span& span = Open(name, module, parent, start_us);
  const TraceContext ctx{span.trace, span.id};
  if (sink_ != nullptr) sink_->OnSpanStart(span);
  Close(&span, end_us, attrs);
  return ctx;
}

const Span* Tracer::Find(uint64_t span_id) const {
  if (span_id == 0) return nullptr;
  if (mode_ == StoreMode::kStream) return open_.Find(span_id);
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
    out += ",\"module\":";
    AppendJsonString(s.module.str(), &out);
    out += ",\"name\":";
    AppendJsonString(s.name.str(), &out);
    if (!s.attrs.empty()) {
      out += ",\"attrs\":{";
      bool first = true;
      for (const auto& [k, v] : s.attrs) {
        if (!first) out += ',';
        first = false;
        AppendJsonString(k, &out);
        out += ':';
        AppendJsonString(v, &out);
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
  open_.Clear();
  next_trace_ = 1;
  next_span_ = 1;
  emitted_ = 0;
}

}  // namespace taureau::obs
