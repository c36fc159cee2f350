// Retry policy shared by the FaaS platform and the orchestrator (§6: the
// platform, not the application, should mask transient failures).
//
// One policy type describes how many attempts a caller gets and how long to
// wait between them: exponential backoff with a cap and optional jitter.
// Jitter draws from the caller's Rng so retry schedules stay reproducible.
#pragma once

#include "common/rng.h"
#include "common/time_types.h"

namespace taureau::chaos {

/// How a failed operation is re-attempted.
struct RetryPolicy {
  /// Total attempts including the first.
  int max_attempts = 3;
  /// Backoff before the first re-attempt.
  SimDuration initial_backoff_us = 10 * kMillisecond;
  /// Growth factor per further attempt (2.0 = classic doubling).
  double multiplier = 2.0;
  /// Ceiling on any single backoff.
  SimDuration max_backoff_us = 10 * kSecond;
  /// Uniform jitter fraction in [0,1]: the backoff is scaled by a factor
  /// drawn from [1 - jitter, 1 + jitter]. 0 disables jitter.
  double jitter = 0.0;

  /// No retries at all: one attempt, no backoff.
  static RetryPolicy None() { return {1, 0, 1.0, 0, 0.0}; }

  /// Immediate retries: `attempts` tries, zero backoff.
  static RetryPolicy Immediate(int attempts) {
    return {attempts, 0, 1.0, 0, 0.0};
  }

  /// The recommended default: exponential backoff with +/-20% jitter.
  static RetryPolicy ExponentialJitter(int attempts,
                                       SimDuration base_us = 10 * kMillisecond,
                                       double jitter_frac = 0.2) {
    return {attempts, base_us, 2.0, 10 * kSecond, jitter_frac};
  }

  /// True when `failed_attempt` (0-based index of the attempt that just
  /// failed) leaves budget for another try.
  bool ShouldRetry(int failed_attempt) const {
    return failed_attempt + 1 < max_attempts;
  }

  /// Backoff to wait after `failed_attempt` (0-based) before the next try.
  /// Deterministic given the Rng's stream position; rng may be null when
  /// jitter == 0.
  SimDuration BackoffFor(int failed_attempt, Rng* rng) const;
};

}  // namespace taureau::chaos
