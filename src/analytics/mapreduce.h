// Serverless MapReduce with ephemeral-state shuffle (paper §3.1 "Data
// Processing", §5.1; the PyWren / "shuffling, fast and slow" line of work).
//
// M map tasks partition their output across R channels; R reduce tasks each
// drain M channels. The shuffle channel is pluggable so E10 can compare a
// Jiffy-backed shuffle against an S3-style blob-store shuffle.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "analytics/task_model.h"
#include "baas/blob_store.h"
#include "common/status.h"
#include "jiffy/controller.h"

namespace taureau::analytics {

/// Where intermediate (mapper -> reducer) data lives.
class ShuffleStore {
 public:
  virtual ~ShuffleStore() = default;
  /// Writes one mapper's partition for one reducer; returns simulated
  /// latency through *latency_us.
  virtual Status Write(uint32_t mapper, uint32_t reducer, std::string data,
                       SimDuration* latency_us) = 0;
  /// Reads all partitions destined to `reducer`; adds latency.
  virtual Status ReadAll(uint32_t reducer, uint32_t num_mappers,
                         std::vector<std::string>* out,
                         SimDuration* latency_us) = 0;
  virtual uint64_t bytes_written() const = 0;
};

/// Shuffle through Jiffy queues under /<job>/shuffle/<reducer>.
class JiffyShuffle : public ShuffleStore {
 public:
  JiffyShuffle(jiffy::JiffyController* jiffy, std::string job_path,
               uint32_t reducers);
  Status Init();
  Status Write(uint32_t mapper, uint32_t reducer, std::string data,
               SimDuration* latency_us) override;
  Status ReadAll(uint32_t reducer, uint32_t num_mappers,
                 std::vector<std::string>* out,
                 SimDuration* latency_us) override;
  uint64_t bytes_written() const override { return bytes_; }

 private:
  jiffy::JiffyController* jiffy_;
  std::string job_path_;
  uint32_t reducers_;
  uint64_t bytes_ = 0;
};

/// Shuffle through an S3-like blob store (the slow baseline).
class BlobShuffle : public ShuffleStore {
 public:
  BlobShuffle(baas::BlobStore* store, std::string job_prefix);
  Status Write(uint32_t mapper, uint32_t reducer, std::string data,
               SimDuration* latency_us) override;
  Status ReadAll(uint32_t reducer, uint32_t num_mappers,
                 std::vector<std::string>* out,
                 SimDuration* latency_us) override;
  uint64_t bytes_written() const override { return bytes_; }

 private:
  baas::BlobStore* store_;
  std::string prefix_;
  uint64_t bytes_ = 0;
};

/// User code: record -> [(key, value)]; (key, values) -> output line.
using MapFn = std::function<void(
    const std::string& record,
    std::vector<std::pair<std::string, std::string>>* out)>;
using ReduceFn = std::function<std::string(
    const std::string& key, const std::vector<std::string>& values)>;

struct MapReduceConfig {
  uint32_t num_mappers = 4;
  uint32_t num_reducers = 4;
  TaskCostModel task_model{};
};

struct MapReduceStats {
  SimDuration makespan_us = 0;
  SimDuration map_stage_us = 0;
  SimDuration reduce_stage_us = 0;
  uint64_t shuffle_bytes = 0;
  uint64_t input_records = 0;
  uint64_t output_records = 0;
  Money cost;
};

/// Runs the job synchronously (real computation, simulated time).
/// Output lines land in *output, sorted by key.
Result<MapReduceStats> RunMapReduce(const std::vector<std::string>& input,
                                    MapFn map_fn, ReduceFn reduce_fn,
                                    ShuffleStore* shuffle,
                                    const MapReduceConfig& config,
                                    std::vector<std::string>* output);

/// Canonical wordcount map/reduce pair (tests + examples).
MapFn WordCountMap();
ReduceFn WordCountReduce();

/// Sort job: map emits (key, record); reduce outputs records in key order.
MapFn IdentityKeyMap(char delimiter = '\t');
ReduceFn ConcatReduce();

}  // namespace taureau::analytics
