// diurnal_day: the E26b world. Cells on psim, one compressed day of
// sinusoidal load, a quarter of the requests calling another cell. Only the
// kernel, the psim barrier and this file's callbacks run: no faas, obs,
// guard or reuse code.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "common/time_types.h"
#include "outcome.h"

namespace perfbench {

struct DiurnalShape {
  const char* name;
  uint32_t cells;
  taureau::SimDuration day_us;  ///< Arrivals stop after one day.
  double base_rate;             ///< Requests/s across all cells.
  double amplitude;             ///< Of the sinusoid around base_rate.
  double remote_share;          ///< Requests that complete on another cell.
  /// Cross-cell RTT: two broker dispatch hops (E26b's mined lookahead).
  taureau::SimDuration lookahead_us;
};

const DiurnalShape& DiurnalDayShape();
/// A short day for the benchmark's own tests ("diurnal_day.tiny").
const DiurnalShape& DiurnalTinyShape();

/// One request as the generator draws it.
struct DiurnalRequest {
  taureau::SimTime at_us = 0;
  taureau::SimDuration exec_us = 0;  ///< Dispatch + execution.
  bool remote = false;
  uint32_t dst = 0;  ///< Completing cell when remote.

  bool operator==(const DiurnalRequest&) const = default;
};

/// One cell's open-loop generator: a pure function of (shape, seed, cell).
/// Exponential gaps at the sinusoidal rate in force at the previous arrival.
class DiurnalArrivals {
 public:
  DiurnalArrivals(const DiurnalShape& shape, uint64_t seed, uint32_t cell);
  /// False once the day is over.
  bool Next(DiurnalRequest* out);

 private:
  const DiurnalShape* shape_;
  taureau::Rng gaps_;
  taureau::Rng draws_;
  taureau::SimTime now_ = 0;
};

class DiurnalWorld {
 public:
  /// Set-up: the psim world (with its worker threads) and every cell's
  /// first arrival. `time_callbacks` sums host time spent in this file's
  /// callbacks per shard (the traced run).
  DiurnalWorld(const DiurnalShape& shape, uint64_t seed, unsigned threads,
               bool time_callbacks);
  ~DiurnalWorld();

  DiurnalWorld(const DiurnalWorld&) = delete;
  DiurnalWorld& operator=(const DiurnalWorld&) = delete;

  /// The timed phase: Run, then MergeShardExports over the cell registries.
  void Run();
  /// Checks the invariants and digests the outcome (not timed).
  Outcome Finish();

  uint64_t epochs() const;
  unsigned threads() const;
  /// Host ns spent inside the workload's callbacks, per shard.
  std::vector<int64_t> CallbackNsPerShard() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace perfbench
