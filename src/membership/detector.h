// Phi-accrual failure detection (Hayashibara et al., SRDS 2004) over the
// simulated clock.
//
// Instead of a binary timeout, the detector turns "how long since the last
// heartbeat" into a continuous suspicion level:
//
//   phi(now) = -log10( P(a heartbeat arrives later than now) )
//
// under a normal model of the observed inter-arrival times. phi ~ 1 means
// "this gap would be exceeded one run in ten"; phi >= 8 means one in 10^8.
// Thresholding phi instead of a fixed timeout adapts to the link's real
// jitter: a noisy link needs a longer silence before the same suspicion
// level is reached. Everything here is arithmetic on simulated timestamps
// fed in by the caller — no wall clock, no randomness — so detector
// decisions are bit-reproducible from the seed like the rest of the world.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/time_types.h"

namespace taureau::membership {

class PhiAccrualDetector {
 public:
  /// Sliding window of inter-arrival samples the estimator keeps.
  static constexpr size_t kWindow = 32;
  /// Suspicion thresholds: suspect at `kPhiSuspect`, declare dead at
  /// `kPhiDead` (suspect < dead).
  static constexpr double kPhiSuspect = 3.0;
  static constexpr double kPhiDead = 8.0;
  /// Lower bound on the modelled std-dev, so a perfectly regular
  /// heartbeat stream does not make phi explode on the first late packet.
  static constexpr SimDuration kMinStdDevUs = 5 * kMillisecond;
  /// Inter-arrival mean assumed before the first two heartbeats arrive.
  static constexpr SimDuration kFirstEstimateUs = 200 * kMillisecond;

  PhiAccrualDetector() { gaps_.reserve(kWindow); }

  /// Records a heartbeat arrival at `now`.
  void Heartbeat(SimTime now);

  /// Current suspicion level. 0 before any heartbeat has been seen (an
  /// unheard-from peer is given the benefit of the doubt until its first
  /// heartbeat starts the clock).
  double Phi(SimTime now) const;

  bool Suspect(SimTime now) const { return Phi(now) >= kPhiSuspect; }
  bool Dead(SimTime now) const { return Phi(now) >= kPhiDead; }

  uint64_t heartbeats() const { return heartbeats_; }
  SimTime last_heartbeat_us() const { return last_heartbeat_us_; }
  /// Modelled inter-arrival mean (kFirstEstimateUs before two samples).
  double mean_interval_us() const;

 private:
  double StdDev(double mean) const;

  uint64_t heartbeats_ = 0;
  SimTime last_heartbeat_us_ = 0;
  /// Ring of the last kWindow inter-arrival gaps plus running sums, so
  /// Phi() is O(1).
  std::vector<double> gaps_;
  size_t next_gap_ = 0;
  double gap_sum_ = 0.0;
  double gap_sq_sum_ = 0.0;
};

}  // namespace taureau::membership
