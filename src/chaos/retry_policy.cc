#include "chaos/retry_policy.h"

#include <algorithm>
#include <cmath>

namespace taureau::chaos {

SimDuration RetryPolicy::BackoffFor(int failed_attempt, Rng* rng) const {
  if (initial_backoff_us <= 0) return 0;
  double backoff = double(initial_backoff_us) *
                   std::pow(std::max(1.0, multiplier),
                            double(std::max(0, failed_attempt)));
  if (max_backoff_us > 0) {
    backoff = std::min(backoff, double(max_backoff_us));
  }
  if (jitter > 0 && rng != nullptr) {
    backoff *= rng->NextDouble(1.0 - jitter, 1.0 + jitter);
  }
  return static_cast<SimDuration>(std::max(0.0, backoff));
}

}  // namespace taureau::chaos
