#include "membership/detector.h"

#include <algorithm>
#include <cmath>

namespace taureau::membership {

void PhiAccrualDetector::Heartbeat(SimTime now) {
  if (heartbeats_ > 0) {
    const double gap = double(now - last_heartbeat_us_);
    if (gaps_.size() < kWindow) {
      gaps_.push_back(gap);
      gap_sum_ += gap;
      gap_sq_sum_ += gap * gap;
    } else {
      const double old = gaps_[next_gap_];
      gap_sum_ += gap - old;
      gap_sq_sum_ += gap * gap - old * old;
      gaps_[next_gap_] = gap;
      next_gap_ = (next_gap_ + 1) % kWindow;
    }
  }
  last_heartbeat_us_ = now;
  ++heartbeats_;
}

double PhiAccrualDetector::mean_interval_us() const {
  if (gaps_.empty()) return double(kFirstEstimateUs);
  return gap_sum_ / double(gaps_.size());
}

double PhiAccrualDetector::StdDev(double mean) const {
  double var = 0.0;
  if (gaps_.size() >= 2) {
    var = gap_sq_sum_ / double(gaps_.size()) - mean * mean;
    if (var < 0.0) var = 0.0;  // numeric guard
  }
  return std::max(std::sqrt(var), double(kMinStdDevUs));
}

double PhiAccrualDetector::Phi(SimTime now) const {
  if (heartbeats_ == 0) return 0.0;
  const double since = double(now - last_heartbeat_us_);
  const double mean = mean_interval_us();
  const double sd = StdDev(mean);
  // Normal-tail survival via the logistic approximation to the Gaussian
  // CDF (max error ~1.4e-2, monotone, cheap and branch-free):
  //   P(gap > since) ~= 1 / (1 + exp(1.5976 * y * (1 + 0.070566 * y^2)))
  // with y = (since - mean) / sd. phi = -log10 of that survival.
  const double y = (since - mean) / sd;
  const double e = 1.5976 * y * (1.0 + 0.070566 * y * y);
  // log10(1 + exp(e)) computed stably for both signs of e.
  static constexpr double kLn10 = 2.302585092994046;
  double log_survival;  // log10 P(gap > since), always <= 0.
  if (e > 0) {
    log_survival = -(e + std::log1p(std::exp(-e))) / kLn10;
  } else {
    log_survival = -std::log1p(std::exp(e)) / kLn10;
  }
  return -log_survival;
}

}  // namespace taureau::membership
