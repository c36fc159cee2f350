// Predictive container pre-warming (paper §5.2 [75] BARISTA: "in-built
// support to forecast changes in resource demand... and make effective and
// pro-active resource allocation decisions", and §6's SLA discussion).
//
// A control loop forecasts each function's arrival rate with an EWMA and
// keeps enough warm containers around to absorb the forecast, trading idle
// memory for cold-start probability — proactively, rather than reactively
// through keep-alive alone.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>

#include "common/time_types.h"
#include "faas/platform.h"
#include "sim/simulation.h"

namespace taureau::faas {

struct PrewarmerConfig {
  /// Control-loop period.
  SimDuration tick_us = 10 * kSecond;
  /// EWMA smoothing factor per tick (higher = more reactive).
  double alpha = 0.3;
  /// Warm containers to hold = ceil(forecast_rate * window * headroom).
  SimDuration provision_window_us = 2 * kSecond;
  double headroom = 1.5;
  /// Cap on pre-warmed (idle) containers per function.
  uint32_t max_prewarmed = 64;
};

struct PrewarmerStats {
  uint64_t ticks = 0;
  uint64_t containers_prewarmed = 0;
  double last_forecast_rps = 0;
};

/// Watches a function's invocation counter on a FaasPlatform and issues
/// zero-work "warming" invocations to grow the warm pool ahead of demand.
///
/// Warming works through the platform's public surface: a warming invoke
/// cold-starts a container which then parks in the warm pool, exactly like
/// provisioned concurrency on production platforms.
class Prewarmer {
 public:
  Prewarmer(sim::Simulation* sim, FaasPlatform* platform,
            std::string function, PrewarmerConfig config);
  ~Prewarmer();

  void Start();
  void Stop();

  /// Must be called (or wired) per user-facing invocation so the forecaster
  /// sees demand. Returns the platform's result passthrough.
  Result<uint64_t> Invoke(std::string payload, InvokeCallback cb);

  const PrewarmerStats& stats() const { return stats_; }
  double ForecastRps() const { return forecast_rps_; }
  const PrewarmerConfig& config() const { return config_; }

  /// Wires the keep-alive target knobs to live config (E28 follow-up):
  /// "faas.prewarm.max_prewarmed" (cap on idle pre-warmed containers) and
  /// "faas.prewarm.headroom" (forecast multiplier). Pushes apply at the
  /// service's safe points and take effect on the next control-loop tick.
  void AttachControl(ctrl::ConfigService* service);

 private:
  bool Tick();

  sim::Simulation* sim_;
  FaasPlatform* platform_;
  std::string function_;
  PrewarmerConfig config_;
  std::unique_ptr<sim::PeriodicProcess> loop_;
  uint64_t arrivals_this_tick_ = 0;
  double forecast_rps_ = 0;
  PrewarmerStats stats_;
};

}  // namespace taureau::faas
