// Pulsar Functions (paper §4.3.1): serverless functions that "consume
// messages from and publish messages to Pulsar topics", with framework-
// managed per-function state — the deployment model of the paper's
// Figure 3 Count-Min example.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>

#include "common/status.h"
#include "pubsub/broker.h"

namespace taureau::pubsub {

class FunctionWorker;

/// The API surface a function sees per message (mirrors
/// org.apache.pulsar.functions.api.Context).
class FunctionContext {
 public:
  /// Framework-managed per-function counter state (Pulsar's incrCounter):
  /// returns the post-increment value.
  int64_t IncrCounter(const std::string& key, int64_t delta);

  /// Publishes to the function's configured output topic.
  Status Publish(std::string payload);
  Status PublishKeyed(std::string key, std::string payload);

  const Message& message() const { return *message_; }

 private:
  friend class FunctionWorker;
  FunctionWorker* worker_ = nullptr;
  const Message* message_ = nullptr;
};

/// A deployed function body. Non-OK marks the message as failed (it stays
/// unacked and will be redelivered).
using PulsarFunction =
    std::function<Status(const Message& msg, FunctionContext& ctx)>;

struct FunctionWorkerConfig {
  std::string name;
  std::string input_topic;
  std::string output_topic{};  ///< Empty = no output.
  /// Number of parallel instances (consumers on a shared subscription).
  uint32_t parallelism = 1;
};

struct FunctionWorkerMetrics {
  uint64_t processed = 0;
  uint64_t failed = 0;
  uint64_t published = 0;
};

/// Hosts one function: subscribes to the input topic (shared subscription
/// named after the function, so parallelism just adds consumers), runs the
/// body per message, auto-acks on success.
class FunctionWorker {
 public:
  FunctionWorker(PulsarCluster* cluster, FunctionWorkerConfig config,
                 PulsarFunction fn);

  /// Attaches the configured number of consumers. Call once.
  Status Deploy();

  const FunctionWorkerMetrics& metrics() const { return metrics_; }
  const FunctionWorkerConfig& config() const { return config_; }

  /// Direct state inspection for tests/benches.
  const std::unordered_map<std::string, std::string>& state() const {
    return state_;
  }

 private:
  friend class FunctionContext;
  void OnMessage(ConsumerId consumer, const Message& msg);

  PulsarCluster* cluster_;
  FunctionWorkerConfig config_;
  PulsarFunction fn_;
  std::vector<ConsumerId> consumer_ids_;
  std::unordered_map<std::string, std::string> state_;
  FunctionWorkerMetrics metrics_;
  bool deployed_ = false;
};

}  // namespace taureau::pubsub
