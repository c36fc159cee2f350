// Conservative lookahead, mined from the latency models.
//
// The epoch horizon is safe exactly when no cross-shard interaction can
// complete in less simulated time than the lookahead. In this landscape the
// cross-shard edges are physical: a network hop into another machine group
// (broker dispatch), a store round-trip (Jiffy/KV first-byte latency) or a
// remote FaaS dispatch — all of which have hard minimum latencies in their
// models (baas::LatencyModel::base_us, pubsub::kDispatchLatencyUs, faas
// cold-start init floors). The lookahead is the minimum over the edges a
// workload actually uses; MineLookahead() is the helper call sites feed
// those model minimums into.
//
// Jittered models: a log-normal multiplier can dip below its median, so a
// sampled latency is not bounded by `base_us` alone. Pass the model's hard
// floor (base of the deterministic part, or the clamp the caller enforces
// on cross-shard delays), not the mean. The engine additionally clamps any
// Post() below the lookahead, so a mis-mined bound degrades latency
// fidelity by at most the clamp — never correctness.
#pragma once

#include <algorithm>
#include <initializer_list>

#include "common/time_types.h"

namespace taureau::psim {

/// Minimum of the given cross-shard latency floors, with a 1us safety
/// floor (the kernel tick). Typical use:
///
///   const SimDuration L = MineLookahead({
///       2 * pubsub::kDispatchLatencyUs,                  // geo RTT
///       baas::KvStoreLatency().base_us,                  // store hop
///       kRemoteInvokeNetUs,                              // faas forward
///   });
inline SimDuration MineLookahead(std::initializer_list<SimDuration> floors) {
  SimDuration lookahead = 0;
  for (SimDuration f : floors) {
    if (f <= 0) continue;
    lookahead = lookahead == 0 ? f : std::min(lookahead, f);
  }
  return std::max<SimDuration>(lookahead, 1);
}

}  // namespace taureau::psim
