// Circuit breaker (§6: overloaded or failing backends should shed load
// proactively instead of queueing requests into timeout).
//
// Classic three-state machine driven by simulated time passed in by the
// caller (no simulator dependency, so it embeds anywhere):
//   closed    — requests flow; consecutive failures are counted.
//   open      — requests are refused (shed) until `open_duration_us` passes.
//   half-open — a limited number of probe requests are admitted;
//               `half_open_successes` consecutive probe successes close the
//               breaker, one failure re-opens it.
//
// State transitions can be surfaced as obs metrics via BindMetrics, which
// exports trip/half-open/close counts and the live state under a prefix the
// caller picks.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "common/time_types.h"
#include "obs/metrics.h"

namespace taureau::chaos {

class CircuitBreaker {
 public:
  struct Config {
    /// Consecutive failures that trip the breaker.
    int failure_threshold = 5;
    /// How long the breaker stays open before probing.
    SimDuration open_duration_us = 1 * kSecond;
    /// Probes admitted while half-open.
    int half_open_probes = 1;
    /// Probe successes required to close from half-open. Clamped to >= 1.
    int half_open_successes = 1;
  };

  enum class State { kClosed, kOpen, kHalfOpen };

  CircuitBreaker() : CircuitBreaker(Config()) {}
  explicit CircuitBreaker(Config config) : config_(config) {}

  /// Registers transition counters and a live-state gauge under
  /// "<prefix>.breaker_*". Pass nullptr to detach.
  void BindMetrics(obs::Registry* registry, const std::string& prefix);

  /// Tags breaker state with the cluster's membership epoch: on every
  /// transition the provider is sampled into "<prefix>.breaker_epoch", so
  /// dashboards can correlate trips with membership churn (E25).
  void SetEpochProvider(std::function<uint64_t()> provider) {
    epoch_provider_ = std::move(provider);
  }

  const Config& config() const { return config_; }

  /// True when the request may proceed at `now`; false = shed it.
  bool AllowRequest(SimTime now);

  void RecordSuccess(SimTime now);
  void RecordFailure(SimTime now);

  State state(SimTime now);

  uint64_t shed_count() const { return shed_; }
  uint64_t trip_count() const { return trips_; }
  uint64_t half_open_count() const { return half_opens_; }
  uint64_t close_count() const { return closes_; }
  int consecutive_failures() const { return consecutive_failures_; }

 private:
  void Advance(SimTime now);  ///< open -> half-open when the window lapses.
  void SetState(State next);

  Config config_;
  State state_ = State::kClosed;
  int consecutive_failures_ = 0;
  int probes_in_flight_ = 0;
  int half_open_successes_ = 0;
  SimTime opened_at_us_ = 0;
  uint64_t shed_ = 0;
  uint64_t trips_ = 0;
  uint64_t half_opens_ = 0;
  uint64_t closes_ = 0;

  struct Metrics {
    obs::CounterHandle trips;
    obs::CounterHandle half_opens;
    obs::CounterHandle closes;
    obs::CounterHandle shed;
    obs::GaugeHandle state;
    obs::GaugeHandle epoch;
  };
  Metrics m_;
  std::function<uint64_t()> epoch_provider_;
};

}  // namespace taureau::chaos
