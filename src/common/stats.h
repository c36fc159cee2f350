// Measurement utilities: streaming summaries and HdrHistogram-style
// latency histograms used throughout the experiment harnesses.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

namespace taureau {

/// Streaming mean/variance/min/max via Welford's algorithm.
class Summary {
 public:
  void Add(double x);

  uint64_t count() const { return count_; }
  double mean() const { return count_ ? mean_ : 0.0; }
  double variance() const;
  double stddev() const;
  double min() const { return count_ ? min_ : 0.0; }
  double max() const { return count_ ? max_ : 0.0; }
  double sum() const { return sum_; }

  /// Merges another summary into this one (parallel Welford).
  void Merge(const Summary& other);

 private:
  uint64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Log-bucketed histogram with bounded relative error, in the spirit of
/// HdrHistogram: values are bucketed with ~1.5% relative precision, so
/// percentile queries are O(buckets) and memory is constant.
class Histogram {
 public:
  /// max_value: largest recordable value; larger samples are clamped.
  explicit Histogram(double max_value = 1e12);

  void Add(double value);

  /// Records `count` occurrences of `value`.
  void AddN(double value, uint64_t count);

  uint64_t count() const { return count_; }
  double mean() const { return count_ ? sum_ / double(count_) : 0.0; }
  double min() const { return count_ ? min_ : 0.0; }
  double max() const { return count_ ? max_ : 0.0; }

  /// Value at quantile q in [0,1] (e.g. 0.5, 0.99). Returns 0 when empty.
  double Quantile(double q) const;

  double P50() const { return Quantile(0.50); }
  double P90() const { return Quantile(0.90); }
  double P99() const { return Quantile(0.99); }

  void Merge(const Histogram& other);
  void Reset();

  /// One-line rendering: "n=... mean=... p50=... p99=... max=...".
  std::string ToString() const;

  /// (bucket index, count) for every non-empty bucket, in index order.
  /// Exposed for the property tests (monotonicity, count conservation).
  std::vector<std::pair<size_t, uint64_t>> NonzeroBuckets() const;

 private:
  size_t BucketFor(double value) const;
  double BucketMid(size_t bucket) const;

  double max_value_;
  std::vector<uint64_t> buckets_;
  uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Exact quantile of a sample set via sorting (nearest-rank, matching the
/// cumulative-count rule Histogram::Quantile approximates). The shared
/// oracle for percentile reporting in tests and benches: O(n log n), use
/// Histogram when the sample count is unbounded.
double ExactQuantile(std::vector<double> values, double q);

/// Pretty-printing helpers for the bench harnesses.
std::string FormatDuration(double micros);
std::string FormatBytes(double bytes);
std::string FormatCount(double n);

}  // namespace taureau
