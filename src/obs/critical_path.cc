#include "obs/critical_path.h"

#include <algorithm>
#include <cstdio>
#include <vector>

namespace taureau::obs {

std::string_view CategoryName(Category c) {
  switch (c) {
    case Category::kQueue:
      return "queue";
    case Category::kColdStart:
      return "cold";
    case Category::kExec:
      return "exec";
    case Category::kShuffle:
      return "shuffle";
    case Category::kRetry:
      return "retry";
    case Category::kGuard:
      return "guard";
    case Category::kReuse:
      return "reuse";
    case Category::kOther:
      return "other";
  }
  return "?";
}

std::optional<Category> ParseCategory(std::string_view name) {
  for (size_t i = 0; i < kCategoryCount; ++i) {
    const auto c = static_cast<Category>(i);
    if (CategoryName(c) == name) return c;
  }
  return std::nullopt;
}

SimDuration Breakdown::Sum() const {
  SimDuration total = 0;
  for (SimDuration d : by_category) total += d;
  return total;
}

void Breakdown::Accumulate(const Breakdown& other) {
  total_us += other.total_us;
  for (size_t i = 0; i < kCategoryCount; ++i) {
    by_category[i] += other.by_category[i];
  }
}

std::string Breakdown::ToString() const {
  std::string out = "total=" + std::to_string(total_us) + "us";
  char buf[64];
  for (size_t i = 0; i < kCategoryCount; ++i) {
    const auto c = static_cast<Category>(i);
    std::snprintf(buf, sizeof(buf), " %s=%lld (%.1f%%)",
                  std::string(CategoryName(c)).c_str(),
                  static_cast<long long>(by_category[i]),
                  100.0 * Fraction(c));
    out += buf;
  }
  return out;
}

Status TraceAttributor::Attribute(std::span<const Span> spans,
                                  uint64_t root_span_id, Breakdown* breakdown,
                                  std::span<SimDuration> self_us) {
  const auto root_it = std::lower_bound(
      spans.begin(), spans.end(), root_span_id,
      [](const Span& s, uint64_t id) { return s.id < id; });
  if (root_it == spans.end() || root_it->id != root_span_id) {
    return Status::NotFound("no span with id " + std::to_string(root_span_id));
  }
  const Span* root = &*root_it;
  if (!root->ended()) {
    return Status::FailedPrecondition("root span " +
                                      std::to_string(root_span_id) +
                                      " is still open");
  }

  *breakdown = Breakdown();
  breakdown->total_us = root->duration_us();
  if (breakdown->total_us == 0) return Status::OK();

  // The subtree in id order, root first: a span belongs to it when its
  // parent does. Parents precede children, so one forward pass from the
  // root finds every member, looking the parent up by binary search of
  // the members found so far (id-sorted by construction); memory grows
  // with the subtree, not with `spans`.
  // Each finished descendant also gets its interval clipped to the root
  // window (self time needs all of them); only categorized ones carry a
  // category. The root, unfinished spans and spans outside the window keep
  // an empty interval, which covers nothing.
  const size_t root_index = size_t(root_it - spans.begin());
  members_.clear();
  members_.push_back({root_span_id, 0, root_index});
  const auto member_less = [](const Member& m, uint64_t id) {
    return m.id < id;
  };
  for (size_t i = root_index + 1; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.parent < root_span_id) continue;  // also skips roots (parent 0)
    const auto parent = std::lower_bound(members_.begin(), members_.end(),
                                         s.parent, member_less);
    if (parent == members_.end() || parent->id != s.parent) continue;
    Member m{s.id, parent->depth + 1, i};
    if (s.ended()) {
      m.start = std::max(s.start_us, root->start_us);
      m.end = std::max(m.start, std::min(s.end_us, root->end_us));
      const auto it = s.attrs.find(kCategoryAttr);
      const auto cat = it != s.attrs.end() ? ParseCategory(it->second)
                                           : std::nullopt;
      m.has_cat = cat.has_value();
      m.cat = cat.value_or(Category::kOther);
    }
    members_.push_back(m);
  }
  bounds_.clear();
  bounds_.push_back(root->start_us);
  bounds_.push_back(root->end_us);
  for (const Member& m : members_) {
    if (m.end <= m.start) continue;
    bounds_.push_back(m.start);
    bounds_.push_back(m.end);
  }
  std::sort(bounds_.begin(), bounds_.end());
  bounds_.erase(std::unique(bounds_.begin(), bounds_.end()), bounds_.end());

  // Each elementary interval between consecutive boundary points is covered
  // by a fixed set of spans; charge its category to the deepest categorized
  // cover (ties broken toward the earliest-created span), or to kOther when
  // no categorized span covers it, and its self-time to the deepest cover
  // of any kind (the root when none). Charging every elementary interval
  // exactly once is what makes both partitions sum to total_us without
  // tolerance.
  for (size_t i = 0; i + 1 < bounds_.size(); ++i) {
    const SimTime lo = bounds_[i];
    const SimTime hi = bounds_[i + 1];
    const Member* best_cat = nullptr;
    const Member* best_any = nullptr;
    for (const Member& iv : members_) {
      if (iv.start > lo || iv.end < hi) continue;
      const bool deeper_any =
          best_any == nullptr || iv.depth > best_any->depth ||
          (iv.depth == best_any->depth && iv.id < best_any->id);
      if (deeper_any) best_any = &iv;
      if (!iv.has_cat) continue;
      if (best_cat == nullptr || iv.depth > best_cat->depth ||
          (iv.depth == best_cat->depth && iv.id < best_cat->id)) {
        best_cat = &iv;
      }
    }
    const Category cat =
        best_cat != nullptr ? best_cat->cat : Category::kOther;
    breakdown->by_category[static_cast<size_t>(cat)] += hi - lo;
    if (!self_us.empty()) {
      self_us[best_any != nullptr ? best_any->index : root_index] += hi - lo;
    }
  }
  return Status::OK();
}

Result<TraceAttribution> AttributeTrace(std::span<const Span> spans,
                                        uint64_t root_span_id) {
  TraceAttribution out;
  out.self_us.assign(spans.size(), 0);
  TraceAttributor attributor;
  TAU_RETURN_IF_ERROR(attributor.Attribute(spans, root_span_id,
                                           &out.breakdown, out.self_us));
  return out;
}

Result<Breakdown> AnalyzeCriticalPath(const Tracer& tracer,
                                      uint64_t root_span_id) {
  const Span* root = tracer.Find(root_span_id);
  if (root == nullptr) {
    return Status::NotFound("no span with id " + std::to_string(root_span_id));
  }
  if (root->parent != 0) {
    return Status::FailedPrecondition("span " + std::to_string(root_span_id) +
                                      " is not a trace root");
  }
  if (!root->ended()) {
    return Status::FailedPrecondition("root span " +
                                      std::to_string(root_span_id) +
                                      " is still open");
  }
  auto attributed = AttributeTrace(tracer.spans(), root_span_id);
  TAU_RETURN_IF_ERROR(attributed.status());
  return attributed->breakdown;
}

}  // namespace taureau::obs
