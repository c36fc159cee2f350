#include "ml/training.h"

#include <algorithm>
#include <cmath>

namespace taureau::ml {

namespace {
double Sigmoid(double z) { return 1.0 / (1.0 + std::exp(-z)); }

double Margin(const std::vector<double>& row,
              const std::vector<double>& weights) {
  double z = weights.back();  // bias
  for (size_t j = 0; j < row.size(); ++j) z += row[j] * weights[j];
  return z;
}
}  // namespace

double LogisticLoss(const Dataset& data, const std::vector<double>& weights,
                    double l2) {
  double loss = 0;
  for (size_t i = 0; i < data.size(); ++i) {
    const double p = Sigmoid(Margin(data.x[i], weights));
    const double yi = data.y[i];
    // Clamp to avoid log(0).
    const double pc = std::clamp(p, 1e-12, 1.0 - 1e-12);
    loss += -(yi * std::log(pc) + (1 - yi) * std::log(1 - pc));
  }
  loss /= double(data.size());
  double reg = 0;
  for (double w : weights) reg += w * w;
  return loss + 0.5 * l2 * reg;
}

void LogisticGradient(const Dataset& data, size_t begin, size_t end,
                      const std::vector<double>& weights, double l2,
                      std::vector<double>* grad) {
  grad->assign(weights.size(), 0.0);
  for (size_t i = begin; i < end; ++i) {
    const double err = Sigmoid(Margin(data.x[i], weights)) - data.y[i];
    for (size_t j = 0; j < data.x[i].size(); ++j) {
      (*grad)[j] += err * data.x[i][j];
    }
    grad->back() += err;
  }
  const double n = double(end - begin);
  if (n > 0) {
    for (size_t j = 0; j < grad->size(); ++j) {
      (*grad)[j] = (*grad)[j] / n + l2 * weights[j];
    }
  }
}

double Accuracy(const Dataset& data, const std::vector<double>& weights) {
  if (data.size() == 0) return 0.0;
  size_t correct = 0;
  for (size_t i = 0; i < data.size(); ++i) {
    const int pred = Margin(data.x[i], weights) > 0 ? 1 : 0;
    if (pred == data.y[i]) ++correct;
  }
  return double(correct) / double(data.size());
}

Result<TrainStats> TrainLogistic(const Dataset& data,
                                 const TrainConfig& config) {
  if (config.num_workers == 0) {
    return Status::InvalidArgument("need >= 1 worker");
  }
  if (data.size() == 0) return Status::InvalidArgument("empty dataset");
  if (config.redundancy == RedundancyScheme::kReplication &&
      config.replication < 2) {
    return Status::InvalidArgument("replication scheme needs >= 2 replicas");
  }

  Rng rng(config.seed);
  const uint32_t W = config.num_workers;
  TrainStats stats;
  stats.weights.assign(data.dim() + 1, 0.0);
  analytics::JobAccounting acct;
  acct.set_memory_mb(config.task_model.memory_mb);

  std::vector<double> grad(stats.weights.size());
  std::vector<double> shard_grad;

  for (uint32_t round = 0; round < config.rounds; ++round) {
    std::fill(grad.begin(), grad.end(), 0.0);
    std::vector<SimDuration> shard_times(W, 0);

    for (uint32_t w = 0; w < W; ++w) {
      const size_t begin = data.size() * w / W;
      const size_t end = data.size() * (w + 1) / W;
      // Real gradient math (each shard contributes its average gradient,
      // weighted by shard size so the sum is the full-batch gradient).
      LogisticGradient(data, begin, end, stats.weights, config.l2,
                       &shard_grad);
      const double frac = double(end - begin) / double(data.size());
      for (size_t j = 0; j < grad.size(); ++j) {
        grad[j] += frac * shard_grad[j];
      }

      // Timing: the shard's completion time under the redundancy scheme.
      auto sample_worker_time = [&]() {
        SimDuration t = config.task_model.TaskDuration(
            double(end - begin), /*io_us=*/5 * kMillisecond);
        if (rng.NextBool(config.straggler_prob)) {
          t = static_cast<SimDuration>(double(t) * kStragglerFactor);
        }
        return t;
      };
      const uint32_t replicas =
          config.redundancy == RedundancyScheme::kReplication
              ? config.replication
              : 1;
      SimDuration shard_time = 0;
      std::vector<SimDuration> replica_times(replicas);
      for (uint32_t r = 0; r < replicas; ++r) {
        replica_times[r] = sample_worker_time();
        shard_time = r == 0 ? replica_times[r]
                            : std::min(shard_time, replica_times[r]);
      }
      // The shard completes when its *fastest* replica finishes (only that
      // one gates the round), but every replica is billed for its own
      // runtime: redundancy costs money even when it saves time.
      for (uint32_t r = 0; r < replicas; ++r) {
        acct.AddTask(replica_times[r],
                     /*on_critical_path=*/replica_times[r] == shard_time);
        ++stats.worker_invocations;
      }
      shard_times[w] = shard_time;
    }
    acct.EndStage();

    // Straggler penalty: tail minus median of the round's shard times.
    std::vector<SimDuration> sorted = shard_times;
    std::sort(sorted.begin(), sorted.end());
    stats.straggler_penalty_us +=
        sorted.back() - sorted[sorted.size() / 2];

    // Parameter-server update.
    for (size_t j = 0; j < stats.weights.size(); ++j) {
      stats.weights[j] -= config.learning_rate * grad[j];
    }
    ++stats.rounds;
  }

  stats.final_loss = LogisticLoss(data, stats.weights, config.l2);
  stats.train_accuracy = Accuracy(data, stats.weights);
  stats.makespan_us = acct.makespan_us();
  stats.cost = acct.cost();
  return stats;
}

}  // namespace taureau::ml
