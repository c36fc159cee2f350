// Count-Min sketch (Cormode & Muthukrishnan 2005) — the sketch the paper
// deploys as a Pulsar function in its Figure 3.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace taureau::sketch {

/// Approximate frequency counting with one-sided error: estimates never
/// undercount; overcount is bounded by eps * total with probability 1-delta
/// when sized via FromErrorBounds.
class CountMinSketch {
 public:
  /// depth: number of hash rows; width: counters per row. Mirrors the
  /// CountMinSketch(depth, width, seed) constructor in the paper's Fig. 3.
  CountMinSketch(uint32_t depth, uint32_t width, uint64_t seed = 7);

  /// Sizes the sketch for additive error <= eps * N with prob >= 1 - delta.
  static CountMinSketch FromErrorBounds(double eps, double delta,
                                        uint64_t seed = 7);

  /// Adds `count` occurrences of the item.
  void Add(std::string_view item, uint64_t count = 1);

  /// Point estimate of the item's frequency (never underestimates).
  uint64_t EstimateCount(std::string_view item) const;

  /// The item's counter column in each row; `cols` holds depth() entries.
  /// A caller that sees the same item again may keep its columns and call
  /// AddAt / EstimateAt instead of rehashing the bytes.
  void Columns(std::string_view item, std::span<uint32_t> cols) const;
  /// Add and EstimateCount for the item whose Columns are `cols`.
  void AddAt(std::span<const uint32_t> cols, uint64_t count = 1);
  uint64_t EstimateAt(std::span<const uint32_t> cols) const;

  /// Total weight added.
  uint64_t TotalCount() const { return total_; }

  /// Merges a sketch with identical dimensions and seed.
  Status Merge(const CountMinSketch& other);

  uint32_t depth() const { return depth_; }
  uint32_t width() const { return width_; }
  size_t MemoryBytes() const { return table_.size() * sizeof(uint64_t); }

  /// Guaranteed additive error bound: e/width * total (with prob 1-e^-depth).
  double ErrorBound() const;

 private:
  /// The item's column in `row`: the one place an item is hashed.
  uint32_t Column(std::string_view item, uint32_t row) const;
  /// The index in table_ of the counter at (row, col).
  size_t Cell(uint32_t row, uint32_t col) const {
    return size_t(row) * width_ + col;
  }

  uint32_t depth_;
  uint32_t width_;
  uint64_t seed_;
  uint64_t total_ = 0;
  std::vector<uint64_t> table_;  // depth_ x width_, row-major
};

}  // namespace taureau::sketch
