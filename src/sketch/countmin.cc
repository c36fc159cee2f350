#include "sketch/countmin.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "common/hash.h"

namespace taureau::sketch {

CountMinSketch::CountMinSketch(uint32_t depth, uint32_t width, uint64_t seed)
    : depth_(std::max(depth, 1u)),
      width_(std::max(width, 1u)),
      seed_(seed),
      table_(size_t(depth_) * width_, 0) {}

CountMinSketch CountMinSketch::FromErrorBounds(double eps, double delta,
                                               uint64_t seed) {
  const uint32_t width =
      static_cast<uint32_t>(std::ceil(std::exp(1.0) / eps));
  const uint32_t depth = static_cast<uint32_t>(std::ceil(std::log(1.0 / delta)));
  return CountMinSketch(depth, width, seed);
}

uint32_t CountMinSketch::Column(std::string_view item, uint32_t row) const {
  return uint32_t(HashSeeded(item, seed_ + row) % width_);
}

void CountMinSketch::Add(std::string_view item, uint64_t count) {
  for (uint32_t row = 0; row < depth_; ++row) {
    table_[Cell(row, Column(item, row))] += count;
  }
  total_ += count;
}

uint64_t CountMinSketch::EstimateCount(std::string_view item) const {
  uint64_t best = UINT64_MAX;
  for (uint32_t row = 0; row < depth_; ++row) {
    best = std::min(best, table_[Cell(row, Column(item, row))]);
  }
  return best == UINT64_MAX ? 0 : best;
}

void CountMinSketch::Columns(std::string_view item,
                             std::span<uint32_t> cols) const {
  assert(cols.size() == depth_);
  for (uint32_t row = 0; row < depth_; ++row) cols[row] = Column(item, row);
}

void CountMinSketch::AddAt(std::span<const uint32_t> cols, uint64_t count) {
  assert(cols.size() == depth_);
  for (uint32_t row = 0; row < depth_; ++row) {
    table_[Cell(row, cols[row])] += count;
  }
  total_ += count;
}

uint64_t CountMinSketch::EstimateAt(std::span<const uint32_t> cols) const {
  assert(cols.size() == depth_);
  uint64_t best = UINT64_MAX;
  for (uint32_t row = 0; row < depth_; ++row) {
    best = std::min(best, table_[Cell(row, cols[row])]);
  }
  return best == UINT64_MAX ? 0 : best;
}

Status CountMinSketch::Merge(const CountMinSketch& other) {
  if (other.depth_ != depth_ || other.width_ != width_ ||
      other.seed_ != seed_) {
    return Status::InvalidArgument(
        "count-min merge requires identical dimensions and seed");
  }
  for (size_t i = 0; i < table_.size(); ++i) table_[i] += other.table_[i];
  total_ += other.total_;
  return Status::OK();
}

double CountMinSketch::ErrorBound() const {
  return std::exp(1.0) / double(width_) * double(total_);
}

}  // namespace taureau::sketch
