#include "faas/prewarmer.h"

#include <cmath>

namespace taureau::faas {

Prewarmer::Prewarmer(sim::Simulation* sim, FaasPlatform* platform,
                     std::string function, PrewarmerConfig config)
    : sim_(sim),
      platform_(platform),
      function_(std::move(function)),
      config_(config) {}

Prewarmer::~Prewarmer() { Stop(); }

void Prewarmer::Start() {
  if (loop_) return;
  loop_ = std::make_unique<sim::PeriodicProcess>(
      sim_, config_.tick_us, [this] { return Tick(); });
  loop_->Start();
}

void Prewarmer::Stop() {
  if (loop_) {
    loop_->Stop();
    loop_.reset();
  }
}

Result<uint64_t> Prewarmer::Invoke(std::string payload, InvokeCallback cb) {
  ++arrivals_this_tick_;
  return platform_->Invoke(function_, std::move(payload), std::move(cb));
}

void Prewarmer::AttachControl(ctrl::ConfigService* service) {
  if (service == nullptr) return;
  (void)service->EnsureDefined(
      {.key = "faas.prewarm.max_prewarmed",
       .default_value = ctrl::ConfigValue::Int(config_.max_prewarmed),
       .min_value = 0.0,
       .max_value = 1e6,
       .description = "cap on pre-warmed (idle) containers per function"});
  (void)service->EnsureDefined(
      {.key = "faas.prewarm.headroom",
       .default_value = ctrl::ConfigValue::Double(config_.headroom),
       .min_value = 0.0,
       .max_value = 100.0,
       .description =
           "warm-pool target multiplier over the forecast arrival rate"});
  service->Subscribe(
      "faas.prewarm.max_prewarmed",
      [this](const ctrl::ConfigUpdate& u) {
        config_.max_prewarmed = uint32_t(u.value.as_int());
      });
  service->Subscribe(
      "faas.prewarm.headroom",
      [this](const ctrl::ConfigUpdate& u) {
        config_.headroom = u.value.AsNumber();
      });
}

bool Prewarmer::Tick() {
  ++stats_.ticks;
  const double observed_rps =
      double(arrivals_this_tick_) / ToSeconds(config_.tick_us);
  arrivals_this_tick_ = 0;
  forecast_rps_ =
      config_.alpha * observed_rps + (1.0 - config_.alpha) * forecast_rps_;
  stats_.last_forecast_rps = forecast_rps_;

  const uint32_t target = std::min(
      config_.max_prewarmed,
      uint32_t(std::ceil(forecast_rps_ * ToSeconds(config_.provision_window_us) *
                         config_.headroom)));
  const size_t warm = platform_->warm_container_count(function_);
  if (warm < target) {
    // Provisioned concurrency: start the deficit directly; the containers
    // park warm once their runtimes initialize.
    auto started = platform_->Prewarm(function_, target - warm);
    if (started.ok()) stats_.containers_prewarmed += *started;
  }
  return true;
}

}  // namespace taureau::faas
