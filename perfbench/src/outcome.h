// The simulated outcome of one run of a workload: what was offered, how each
// request ended, its simulated latency and cost, and a digest of it all that
// must repeat exactly for a given seed and code, whatever the host did.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/time_types.h"

namespace perfbench {

/// Exact distribution of simulated latencies (whole microseconds): dense
/// counts below kDenseUs, raw values above.
class LatencyCounts {
 public:
  static constexpr taureau::SimDuration kDenseUs = 1 << 16;

  void Add(taureau::SimDuration us);
  void Merge(const LatencyCounts& other);
  uint64_t count() const { return n_; }

  /// Quantile q in (0,1], in microseconds. The kernel counts whole
  /// microseconds, so a latency v stands for the interval [v, v + 1); this
  /// is the grouped-data quantile, interpolated inside the interval that
  /// holds rank q*n. It moves when the counts move, even where the
  /// nearest-rank value does not, and a group of zero-latency requests
  /// (cache hits) reads as under a microsecond rather than as nothing.
  double Quantile(double q) const;

 private:
  std::vector<uint64_t> dense_;
  std::vector<taureau::SimDuration> overflow_;
  uint64_t n_ = 0;
};

/// FNV-1a over 64-bit words.
class Digest {
 public:
  void Mix(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ = (h_ ^ ((v >> (8 * i)) & 0xff)) * 1099511628211ULL;
    }
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 1469598103934665603ULL;
};

struct Outcome {
  uint64_t offered = 0;   ///< Requests the generator offered.
  uint64_t terminal = 0;  ///< Requests that reached a terminal state.
  uint64_t ok = 0;        ///< ... with an OK status.
  uint64_t events = 0;    ///< Kernel events fired in the timed phase.
  LatencyCounts ok_latency_us;
  double cost_usd = 0;
  /// Digest of per-request results, the billing ledger and the obs export.
  /// Leaves out event and epoch counts, which a simulator-only change may
  /// legitimately move.
  uint64_t digest = 0;
  /// Broken invariants; non-empty fails the run.
  std::vector<std::string> violations;

  uint64_t failed() const { return offered - ok; }
};

}  // namespace perfbench
