// The invoke workloads (overload, reuse_zipf): one FaaS world with the full
// stack attached — obs at scale, guard, reuse, chaos and ctrl — driven by an
// open-loop generator in simulated time.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/time_types.h"
#include "outcome.h"
#include "span_trace.h"

namespace perfbench {

/// The fleet every invoke workload runs on: 8 idempotent functions owned by
/// 4 tenants, 8 prewarmed containers each (64 in all, which is also the
/// platform's concurrency cap), E23's fixed 10 ms execution.
inline constexpr uint32_t kFunctions = 8;
inline constexpr uint32_t kTenants = 4;
inline constexpr uint32_t kContainersPerFunction = 8;
inline constexpr taureau::SimDuration kExecUs = 10 * taureau::kMillisecond;

/// Exact-execution capacity of the fleet in requests per simulated second.
double FleetCapacityPerSec();

/// Shape of an invoke workload. Offered load is a multiple of the fleet's
/// capacity: `base_load` outside the burst, `burst_load` inside it.
struct InvokeShape {
  const char* name;
  taureau::SimDuration burst_start_us;
  taureau::SimDuration burst_us;
  taureau::SimDuration horizon_us;  ///< Arrivals stop here.
  double base_load;
  double burst_load;
  /// Payload keys per function drawn from a Zipf(zipf_theta); 0 makes every
  /// payload unique (every request misses the reuse cache).
  uint64_t zipf_keys;
  double zipf_theta;
};

const InvokeShape& OverloadShape();
const InvokeShape& ReuseZipfShape();
/// Short shapes for the benchmark's own tests, named "<name>.tiny" so they
/// can never pose as a measurement.
const InvokeShape& TinyShape(const InvokeShape& full);

/// One offered request.
struct Arrival {
  taureau::SimTime at_us = 0;  ///< From the workload's time origin.
  uint32_t function = 0;
  uint64_t key = 0;  ///< Zipf rank, or the request number when unique.

  bool operator==(const Arrival&) const = default;
};

/// The open-loop generator: a pure function of (shape, seed). Exponential
/// gaps at the offered rate in force at the previous arrival.
class InvokeArrivals {
 public:
  InvokeArrivals(const InvokeShape& shape, uint64_t seed);
  /// False once the horizon is reached.
  bool Next(Arrival* out);

 private:
  const InvokeShape& shape_;
  taureau::Rng rng_;
  taureau::SimTime now_ = 0;
  uint64_t count_ = 0;
  std::unique_ptr<taureau::ZipfGenerator> zipf_;
};

/// Counts read from each module's public stats after a run.
struct InvokeLayerStats {
  uint64_t attempts = 0;  ///< Container placements (cold + warm).
  uint64_t cold_starts = 0;
  uint64_t spans_emitted = 0;
  uint64_t traces_finalized = 0;
  uint64_t traces_retained = 0;
  uint64_t retained_bytes = 0;
  uint64_t shed = 0;
  uint64_t deadline_exceeded = 0;
  uint64_t retries_granted = 0;
  uint64_t retries_denied = 0;
  uint64_t reuse_hits = 0;
  uint64_t reuse_lookups = 0;
  uint64_t reuse_coalesced = 0;
  uint64_t cache_admitted = 0;
  uint64_t cache_rejected = 0;
  uint64_t cache_evictions = 0;
  uint64_t faults_injected = 0;
  uint64_t recoveries = 0;
  uint64_t pushes_applied = 0;
};

struct InvokeOptions {
  /// Traced run: spans around every call into a layer. Null: untraced.
  SpanTrace* trace = nullptr;
  /// Test hook: this request's completion callback is delivered twice
  /// (1-based request number; 0 = off).
  uint64_t double_fire_request = 0;
};

class InvokeWorld {
 public:
  /// Set-up: builds the whole world up to its first timed event.
  InvokeWorld(const InvokeShape& shape, uint64_t seed,
              InvokeOptions options = {});
  ~InvokeWorld();

  InvokeWorld(const InvokeWorld&) = delete;
  InvokeWorld& operator=(const InvokeWorld&) = delete;

  /// The timed phase: Run, then the end-of-run Flush + ExportAll.
  void Run();
  /// Checks the invariants and digests the outcome (not timed).
  Outcome Finish();
  InvokeLayerStats LayerStats();

  /// Upper bound on requests the shape offers (sizes trace buffers).
  static uint64_t MaxRequests(const InvokeShape& shape);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// One row of the warm-invoke layer probe.
struct StackRow {
  std::string name;
  double ns_per_invoke = 0;
  double allocs_per_invoke = 0;
};

/// The warm-invoke stream (one 1 ms idempotent function, 64 prewarmed
/// containers, open-loop invokes 100 us apart) run on the bare platform and
/// then with one more layer per row: obs (retain), obs_scale, guard,
/// reuse_miss, chaos, ctrl, and the full stack on repeated payloads
/// (reuse_hit). Untraced; each row reports the fastest of `repeats` runs.
std::vector<StackRow> MeasureStackRows(uint64_t seed, int invokes,
                                       int repeats);
/// The same rows, named but not run, all 0: for diurnal_day, which runs no
/// invoke path.
std::vector<StackRow> UnmeasuredStackRows();

}  // namespace perfbench
