#include "common/stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace taureau {
namespace {
// 128 sub-buckets per power of two => relative error ~ 1/256.
constexpr int kSubBucketBits = 7;
constexpr int kSubBuckets = 1 << kSubBucketBits;
}  // namespace

void Summary::Add(double x) {
  ++count_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / double(count_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

double Summary::variance() const {
  return count_ > 1 ? m2_ / double(count_ - 1) : 0.0;
}

double Summary::stddev() const { return std::sqrt(variance()); }

void Summary::Merge(const Summary& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const double delta = other.mean_ - mean_;
  const uint64_t n = count_ + other.count_;
  m2_ += other.m2_ +
         delta * delta * double(count_) * double(other.count_) / double(n);
  mean_ += delta * double(other.count_) / double(n);
  sum_ += other.sum_;
  count_ = n;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

Histogram::Histogram(double max_value) : max_value_(max_value) {
  const int exponents =
      static_cast<int>(std::ceil(std::log2(std::max(max_value_, 2.0)))) + 1;
  buckets_.assign(static_cast<size_t>(exponents) * kSubBuckets + 2, 0);
}

size_t Histogram::BucketFor(double value) const {
  if (value <= 0) return 0;
  const double v = std::min(value, max_value_);
  const double l = std::log2(v);
  const int exp = static_cast<int>(std::floor(l));
  const double frac = l - exp;  // in [0,1)
  size_t idx = 1 + static_cast<size_t>(std::max(exp, -1) + 1) * kSubBuckets +
               static_cast<size_t>(frac * kSubBuckets);
  return std::min(idx, buckets_.size() - 1);
}

double Histogram::BucketMid(size_t bucket) const {
  if (bucket == 0) return 0.0;
  const double pos = double(bucket - 1) / kSubBuckets - 1.0;
  // Midpoint of the bucket in log space.
  return std::exp2(pos + 0.5 / kSubBuckets);
}

void Histogram::Add(double value) { AddN(value, 1); }

void Histogram::AddN(double value, uint64_t n) {
  if (n == 0) return;
  buckets_[BucketFor(value)] += n;
  count_ += n;
  sum_ += value * double(n);
  min_ = std::min(min_, value);
  max_ = std::max(max_, value);
}

double Histogram::Quantile(double q) const {
  if (count_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const uint64_t target =
      static_cast<uint64_t>(std::ceil(q * double(count_)));
  uint64_t seen = 0;
  for (size_t i = 0; i < buckets_.size(); ++i) {
    seen += buckets_[i];
    if (seen >= target && buckets_[i] > 0) {
      // Clamp the log-space estimate to observed extremes for tight tails.
      return std::clamp(BucketMid(i), min_, max_);
    }
  }
  return max_;
}

void Histogram::Merge(const Histogram& other) {
  if (other.count_ == 0) return;
  if (buckets_.size() < other.buckets_.size()) {
    buckets_.resize(other.buckets_.size(), 0);
    max_value_ = other.max_value_;
  }
  for (size_t i = 0; i < other.buckets_.size(); ++i) {
    buckets_[i] += other.buckets_[i];
  }
  count_ += other.count_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

void Histogram::Reset() {
  std::fill(buckets_.begin(), buckets_.end(), 0);
  count_ = 0;
  sum_ = 0;
  min_ = std::numeric_limits<double>::infinity();
  max_ = -std::numeric_limits<double>::infinity();
}

std::vector<std::pair<size_t, uint64_t>> Histogram::NonzeroBuckets() const {
  std::vector<std::pair<size_t, uint64_t>> out;
  for (size_t i = 0; i < buckets_.size(); ++i) {
    if (buckets_[i] > 0) out.emplace_back(i, buckets_[i]);
  }
  return out;
}

double ExactQuantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Nearest-rank: smallest value with cumulative fraction >= q, mirroring
  // Histogram::Quantile's ceil(q*n) target so the two agree up to bucket
  // resolution.
  const size_t rank =
      static_cast<size_t>(std::ceil(q * double(values.size())));
  const size_t idx = rank == 0 ? 0 : rank - 1;
  std::nth_element(values.begin(), values.begin() + idx, values.end());
  return values[idx];
}

std::string Histogram::ToString() const {
  char buf[200];
  std::snprintf(buf, sizeof(buf),
                "n=%llu mean=%.3g p50=%.3g p90=%.3g p99=%.3g max=%.3g",
                static_cast<unsigned long long>(count_), mean(), P50(), P90(),
                P99(), max());
  return buf;
}

std::string FormatDuration(double micros) {
  char buf[64];
  if (micros < 1e3) {
    std::snprintf(buf, sizeof(buf), "%.1fus", micros);
  } else if (micros < 1e6) {
    std::snprintf(buf, sizeof(buf), "%.2fms", micros / 1e3);
  } else if (micros < 60e6) {
    std::snprintf(buf, sizeof(buf), "%.2fs", micros / 1e6);
  } else {
    std::snprintf(buf, sizeof(buf), "%.1fmin", micros / 60e6);
  }
  return buf;
}

std::string FormatBytes(double bytes) {
  char buf[64];
  if (bytes < 1024) {
    std::snprintf(buf, sizeof(buf), "%.0fB", bytes);
  } else if (bytes < 1024.0 * 1024) {
    std::snprintf(buf, sizeof(buf), "%.1fKB", bytes / 1024);
  } else if (bytes < 1024.0 * 1024 * 1024) {
    std::snprintf(buf, sizeof(buf), "%.1fMB", bytes / (1024.0 * 1024));
  } else {
    std::snprintf(buf, sizeof(buf), "%.2fGB", bytes / (1024.0 * 1024 * 1024));
  }
  return buf;
}

std::string FormatCount(double n) {
  char buf[64];
  if (n < 1e3) {
    std::snprintf(buf, sizeof(buf), "%.0f", n);
  } else if (n < 1e6) {
    std::snprintf(buf, sizeof(buf), "%.1fK", n / 1e3);
  } else if (n < 1e9) {
    std::snprintf(buf, sizeof(buf), "%.2fM", n / 1e6);
  } else {
    std::snprintf(buf, sizeof(buf), "%.2fB", n / 1e9);
  }
  return buf;
}

}  // namespace taureau
