// Server-centric baseline (paper §2: "the server-centric model, where the
// users have to reserve server resources regardless of whether or not they
// use it"). A fixed pool of always-on servers with FIFO queueing — the
// comparison point for the elasticity experiment (E4).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>

#include "chaos/circuit_breaker.h"
#include "common/money.h"
#include "common/stats.h"
#include "common/status.h"
#include "guard/admission.h"
#include "guard/deadline.h"
#include "sim/simulation.h"

namespace taureau::faas {

struct ServerPoolConfig {
  size_t num_servers = 4;
  /// Concurrent requests each server handles (threads/workers per box).
  size_t per_server_concurrency = 8;
  Money machine_hour_price = Money::FromDollars(0.10);
  /// When >0 and the breaker is enabled, a queue deeper than this counts
  /// as a failure signal; once the breaker trips, arriving requests are
  /// shed to the overflow handler (e.g. prewarmed FaaS capacity) instead
  /// of queueing into timeout.
  size_t max_queue_depth = 0;
  bool enable_breaker = false;
  chaos::CircuitBreaker::Config breaker{};
  /// Deadline-aware admission control (taureau::guard): bounded queue +
  /// reject-on-arrival when the remaining deadline cannot cover the
  /// expected wait + service.
  bool enable_admission = false;
  guard::AdmissionConfig admission{};
};

/// Statically provisioned request-serving fleet.
class ServerPool {
 public:
  ServerPool(sim::Simulation* sim, ServerPoolConfig config);

  using Callback = std::function<void(SimDuration wait_us)>;
  /// Receives requests the breaker sheds (route to spillover capacity).
  using ShedHandler = std::function<void(SimDuration service_us)>;

  /// Submits a request with a known service time; `cb` fires at completion
  /// with the time it spent queued. Returns false when the circuit breaker
  /// or the admission controller shed the request (the shed handler, if
  /// set, received it). A queued request whose deadline expires before a
  /// slot frees is dropped without running (counted in deadline_expired()).
  bool Submit(SimDuration service_us, Callback cb = nullptr,
              guard::Deadline deadline = {});

  /// Where shed requests go (e.g. FaasPlatform::Invoke on a prewarmed
  /// function). Without a handler shed requests are simply dropped.
  void set_shed_handler(ShedHandler handler) { shed_handler_ = std::move(handler); }

  const chaos::CircuitBreaker& breaker() const { return breaker_; }
  const guard::AdmissionController& admission() const { return admission_; }
  uint64_t shed_requests() const { return shed_requests_; }
  uint64_t deadline_expired() const { return deadline_expired_; }

  /// Reserved-capacity cost of keeping the whole pool on for `span`.
  Money CostFor(SimDuration span) const;

  uint64_t completed() const { return completed_; }
  size_t queue_depth() const { return queue_.size(); }
  size_t busy_slots() const { return busy_; }
  size_t total_slots() const {
    return config_.num_servers * config_.per_server_concurrency;
  }

  /// Fraction of slot-time spent busy over [0, Now()].
  double Utilization() const;

  const Histogram& wait_hist() const { return wait_us_; }
  const Histogram& sojourn_hist() const { return sojourn_us_; }

 private:
  struct Request {
    SimTime submit_us;
    SimDuration service_us;
    Callback cb;
    guard::Deadline deadline;
  };

  void StartNext();
  void Begin(Request req);

  sim::Simulation* sim_;
  ServerPoolConfig config_;
  chaos::CircuitBreaker breaker_;
  guard::AdmissionController admission_;
  ShedHandler shed_handler_;
  uint64_t shed_requests_ = 0;
  uint64_t deadline_expired_ = 0;
  size_t busy_ = 0;
  uint64_t completed_ = 0;
  long double busy_slot_us_ = 0;  ///< Integral of busy slots over time.
  std::deque<Request> queue_;
  Histogram wait_us_{double(kHour)};
  Histogram sojourn_us_{double(kHour)};
};

}  // namespace taureau::faas
