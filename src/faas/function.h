// Function specifications for the FaaS platform (paper §2.2, §4.1).
//
// A function is (a) a statistical execution-time model, for the platform
// experiments, and optionally (b) a real handler, for the analytics / ML
// applications built on top — real bytes are computed while time is
// simulated.
#pragma once

#include <cmath>
#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>

#include "cluster/resources.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/time_types.h"

namespace taureau::faas {

/// Per-invocation context handed to handlers.
///
/// `container_cache` models the warm-container scratch space (Lambda's /tmp):
/// it survives across invocations *only* while the container stays warm —
/// functions are stateless by contract (§4.1), and the tests demonstrate why
/// relying on this cache is unsafe.
struct InvocationContext {
  uint64_t invocation_id = 0;
  int attempt = 0;         ///< 0 for the first try, >0 for platform retries.
  bool cold_start = false;
  std::unordered_map<std::string, std::string>* container_cache = nullptr;
};

/// A function body. Returning a non-OK status marks the attempt failed and
/// triggers the platform's automatic retry (§4.1: "most FaaS platforms
/// re-execute functions transparently on failure").
using Handler =
    std::function<Result<std::string>(const std::string& payload,
                                      InvocationContext& ctx)>;

/// How the simulated execution duration of an invocation is derived.
struct ExecTimeModel {
  enum class Kind {
    kFixed,      ///< Always `median_us`.
    kLogNormal,  ///< Log-normal around `median_us` with `sigma`.
    kPerByte,    ///< `median_us` base + `us_per_byte` * payload size.
  };
  Kind kind = Kind::kLogNormal;
  SimDuration median_us = 50 * kMillisecond;
  double sigma = 0.3;
  double us_per_byte = 0.0;

  SimDuration Sample(Rng* rng, size_t payload_bytes) const;
};

/// Registered function metadata.
struct FunctionSpec {
  std::string name;
  /// Owning tenant (account). Threaded onto every invocation's root span
  /// (obs::kTenantAttr), the tenant-labeled platform metrics, and the
  /// cluster allocation's owner tag; empty means single-tenant/untagged
  /// and falls back to the function name as the owner.
  std::string tenant;
  cluster::ResourceVector demand{200, 128};
  ExecTimeModel exec;
  /// Extra initialization on a cold start (framework/deps load), added on
  /// top of the runtime's own startup latency.
  SimDuration init_us = 100 * kMillisecond;
  /// Hard execution cap (§4.1 "limited execution times"); invocations
  /// exceeding it are killed, billed for the cap, and retried.
  SimDuration timeout_us = 5 * kMinute;
  /// Probability an attempt crashes partway through (failure injection).
  double failure_prob = 0.0;
  /// Per-function concurrency cap (0 = unlimited): at most this many live
  /// containers, so one runaway function cannot monopolize the account's
  /// concurrency (Lambda's reserved concurrency).
  uint32_t max_concurrency = 0;
  /// The function is a pure function of its payload: same payload, same
  /// result, no side effects. Only idempotent functions are eligible for
  /// the computation-reuse layer (result cache, singleflight coalescing,
  /// approximation) when one is attached.
  bool idempotent = false;
  /// Optional real computation.
  Handler handler;
};

inline SimDuration ExecTimeModel::Sample(Rng* rng,
                                         size_t payload_bytes) const {
  switch (kind) {
    case Kind::kFixed:
      return median_us;
    case Kind::kLogNormal: {
      if (median_us <= 0) return 0;
      const double mu = std::log(double(median_us));
      return static_cast<SimDuration>(rng->NextLogNormal(mu, sigma));
    }
    case Kind::kPerByte:
      return median_us + static_cast<SimDuration>(
                             us_per_byte * double(payload_bytes));
  }
  return median_us;
}

}  // namespace taureau::faas
