#include "faas/server_pool.h"

namespace taureau::faas {

ServerPool::ServerPool(sim::Simulation* sim, ServerPoolConfig config)
    : sim_(sim),
      config_(config),
      breaker_(config.breaker),
      admission_(config.admission) {}

bool ServerPool::Submit(SimDuration service_us, Callback cb,
                        guard::Deadline deadline) {
  const SimTime now = sim_->Now();
  if (config_.enable_breaker && !breaker_.AllowRequest(now)) {
    ++shed_requests_;
    if (shed_handler_) shed_handler_(service_us);
    return false;
  }
  if (config_.enable_admission) {
    const size_t idle = busy_ < total_slots() ? total_slots() - busy_ : 0;
    const auto decision =
        idle > 0 ? guard::AdmissionDecision::kAdmit
                 : admission_.Admit(queue_.size(), total_slots(), deadline,
                                    now);
    if (decision != guard::AdmissionDecision::kAdmit) {
      ++shed_requests_;
      if (shed_handler_) shed_handler_(service_us);
      return false;
    }
  }
  Request req{now, service_us, std::move(cb), deadline};
  if (busy_ < total_slots()) {
    Begin(std::move(req));
  } else {
    queue_.push_back(std::move(req));
    // A saturated pool with a deep backlog is the failure signal: each
    // over-depth enqueue counts toward tripping the breaker.
    if (config_.enable_breaker && config_.max_queue_depth > 0 &&
        queue_.size() > config_.max_queue_depth) {
      breaker_.RecordFailure(sim_->Now());
    }
  }
  return true;
}

void ServerPool::Begin(Request req) {
  ++busy_;
  const SimDuration wait = sim_->Now() - req.submit_us;
  wait_us_.Add(double(wait));
  busy_slot_us_ += static_cast<long double>(req.service_us);
  admission_.RecordService(req.service_us);
  sim_->Schedule(req.service_us, [this, req = std::move(req), wait]() mutable {
    --busy_;
    ++completed_;
    sojourn_us_.Add(double(sim_->Now() - req.submit_us));
    if (config_.enable_breaker &&
        (config_.max_queue_depth == 0 ||
         queue_.size() <= config_.max_queue_depth)) {
      breaker_.RecordSuccess(sim_->Now());
    }
    if (req.cb) req.cb(wait);
    StartNext();
  });
}

void ServerPool::StartNext() {
  while (!queue_.empty() && busy_ < total_slots()) {
    Request req = std::move(queue_.front());
    queue_.pop_front();
    // Queued work whose deadline lapsed is doomed — running it would only
    // burn a slot the caller has already given up on.
    if (config_.enable_admission && req.deadline.Expired(sim_->Now())) {
      ++deadline_expired_;
      continue;
    }
    Begin(std::move(req));
  }
}

Money ServerPool::CostFor(SimDuration span) const {
  const __int128 nano =
      static_cast<__int128>(config_.machine_hour_price.nano_dollars()) *
      static_cast<int64_t>(config_.num_servers) * span / kHour;
  return Money::FromNanoDollars(static_cast<int64_t>(nano));
}

double ServerPool::Utilization() const {
  const long double span = static_cast<long double>(sim_->Now());
  if (span <= 0) return 0.0;
  return double(busy_slot_us_ / (span * static_cast<long double>(
                                            total_slots())));
}

}  // namespace taureau::faas
