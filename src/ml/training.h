// Serverless data-parallel training (paper §5.2 "Training").
//
// "A dataset is partitioned into multiple subsets and each subset is used
// to train a given model in parallel on independent serverless instances.
// Gradients computed by all the instances are collected by a parameter
// server..." Stragglers — "characteristic of serverless architectures" —
// are mitigated with redundant computation (Gupta et al. [104], Lee et al.
// [132]); E13 compares the redundancy schemes.
#pragma once

#include <cstdint>
#include <vector>

#include "analytics/task_model.h"
#include "common/rng.h"
#include "common/status.h"
#include "ml/dataset.h"

namespace taureau::ml {

/// Slowdown multiplier of a straggling worker invocation.
constexpr double kStragglerFactor = 8.0;

/// How gradient work is protected against stragglers.
enum class RedundancyScheme {
  kNone,         ///< Every shard on one worker; a round waits for all.
  kReplication,  ///< Each shard on r workers; first finisher wins.
};

struct TrainConfig {
  uint32_t num_workers = 8;
  uint32_t rounds = 30;
  double learning_rate = 0.5;
  double l2 = 1e-4;
  /// Probability a worker invocation straggles in a given round.
  double straggler_prob = 0.0;
  RedundancyScheme redundancy = RedundancyScheme::kNone;
  /// Replicas per shard under kReplication.
  uint32_t replication = 2;
  analytics::TaskCostModel task_model{
      .invoke_overhead_us = 50 * kMillisecond,
      .compute_us_per_unit = 2.0,  // per example per round
      .memory_mb = 1024};
  uint64_t seed = 71;
};

struct TrainStats {
  double final_loss = 0.0;
  double train_accuracy = 0.0;
  uint32_t rounds = 0;
  SimDuration makespan_us = 0;
  /// Sum over rounds of (slowest worker - median worker): the straggler
  /// penalty the redundancy scheme did or did not absorb.
  SimDuration straggler_penalty_us = 0;
  uint64_t worker_invocations = 0;
  Money cost;
  std::vector<double> weights;  ///< Learned weights (bias last).
};

/// Logistic-regression loss/gradient on a shard (real math, used by the
/// trainer and directly unit-testable).
double LogisticLoss(const Dataset& data, const std::vector<double>& weights,
                    double l2);
void LogisticGradient(const Dataset& data, size_t begin, size_t end,
                      const std::vector<double>& weights, double l2,
                      std::vector<double>* grad);
double Accuracy(const Dataset& data, const std::vector<double>& weights);

/// Synchronous parameter-server training with the configured redundancy.
Result<TrainStats> TrainLogistic(const Dataset& data,
                                 const TrainConfig& config);

}  // namespace taureau::ml
