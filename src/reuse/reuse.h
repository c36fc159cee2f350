// taureau::reuse — computation reuse + approximation layer (E29).
//
// ReuseLayer bundles the three reuse paths the platform consults on every
// idempotent invocation, in priority order:
//
//   1. *Result cache hit*: a content-addressed cache keyed by
//      (function, payload hash) with TTL, a byte budget, and cost-aware
//      admission — admit by observed exec-time x recurrence (estimated by
//      a CountMin sketch over request keys), so one-hit wonders never
//      evict hot expensive results.
//   2. *Approximation fallback*: when the SLO burn rate crosses a live
//      threshold ("reuse.approx.burn_threshold", a ctrl knob — so the
//      degradation mode can be switched mid-run), a registered provider
//      serves a sketch-backed approximate answer with an exported error
//      bound instead of queueing exact work on a saturated fleet.
//   3. *Singleflight coalescing*: concurrent identical requests attach to
//      the one in-flight execution and fan out on completion —
//      single-billed, per-follower spans.
//
// The layer owns the policy state (cache, sketches, burn gate, live knobs)
// and the "reuse.*" metrics (aggregate + per-tenant labeled, pre-resolved
// handles); the request lifecycle — spans, billing, callbacks — stays with
// the platform (faas::FaasPlatform::AttachReuse). Everything is
// deterministic and single-threaded per shard, so a sharded world stays
// byte-identical at any psim worker-thread count.
//
// Keys belong to the layer that made them: a ContentKey names its function
// by an id this layer interns, so it means nothing to another layer. That
// is safe under psim because every shard has its own layer. The request
// path works on ids and pre-resolved handles only; names are looked up once
// per function or tenant (FunctionId, TenantMetrics).
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/time_types.h"
#include "ctrl/config.h"
#include "obs/metrics.h"
#include "obs/observability.h"
#include "obs/slo.h"
#include "reuse/result_cache.h"
#include "reuse/singleflight.h"
#include "sketch/countmin.h"

namespace taureau::reuse {

struct ReuseConfig {
  /// Result-cache shape. Cost-aware with a byte budget and TTL by default;
  /// TTL is the freshness cost a hit pays (staleness <= ttl_us).
  ResultCacheConfig cache{/*max_bytes=*/size_t(64) << 20, /*max_entries=*/0,
                          /*ttl_us=*/60 * kSecond, /*cost_aware=*/true};
  /// Master switch (live: "reuse.enabled").
  bool enabled = true;
  /// Approximation fires when SLO burn >= this (0 disables; live:
  /// "reuse.approx.burn_threshold").
  double approx_burn_threshold = 0.0;
  /// Burn-rate window for the gate. The SloEngine only retains windowed
  /// events up to the objective's longest policy window, so the objective
  /// wired in via SetSloSource must carry at least one burn-rate policy
  /// whose window covers this one.
  SimDuration approx_burn_window_us = 1 * kSecond;
  /// SloEngine objective the gate reads (SetSloSource).
  std::string slo_objective;
};

/// Aggregate counters, materialized from the metric registry on demand.
struct ReuseStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t coalesced = 0;
  uint64_t approx_served = 0;
  uint64_t cache_admitted = 0;
  uint64_t cache_rejected = 0;
  uint64_t cache_evictions = 0;
  uint64_t cache_expired = 0;
  /// Execution time hits + coalesced followers did not re-run.
  SimDuration saved_exec_us = 0;
};

class ReuseLayer {
 public:
  using Cache = ResultCache<ContentKey>;

  /// Pre-resolved labeled "reuse.*" series of one tenant. Rebound in place
  /// when the registry changes, so a caller may keep the pointer.
  struct TenantHandles {
    obs::CounterHandle hits;
    obs::CounterHandle misses;
    obs::CounterHandle coalesced;
    obs::CounterHandle approx_served;
  };

  explicit ReuseLayer(ReuseConfig config = {});
  ReuseLayer(const ReuseLayer&) = delete;
  ReuseLayer& operator=(const ReuseLayer&) = delete;

  /// This layer's id for `function`, interned on first use.
  uint32_t FunctionId(const std::string& function);

  /// Content-addressed cache key of `payload` for function `function_id`.
  /// Payload bytes are hashed, never stored, so a key is 16 bytes whatever
  /// the payload size.
  ContentKey Key(uint32_t function_id, std::string_view payload) const;
  ContentKey Key(const std::string& function, std::string_view payload) {
    return Key(FunctionId(function), payload);
  }

  const ReuseConfig& config() const { return config_; }
  bool enabled() const { return enabled_; }
  double approx_burn_threshold() const { return approx_burn_threshold_; }

  Cache& cache() { return cache_; }
  const Cache& cache() const { return cache_; }
  Singleflight& flights() { return flights_; }
  const Singleflight& flights() const { return flights_; }

  /// Feeds the recurrence sketch. Call once per arriving request, before
  /// Lookup, so the estimate covers the full request stream.
  void NoteRequest(const ContentKey& key) {
    popularity_.AddAt(SketchColumns(key));
  }

  /// CountMin recurrence estimate for a key (never undercounts).
  uint64_t Recurrence(const ContentKey& key) const {
    return popularity_.EstimateAt(SketchColumns(key));
  }

  /// Slots in the memo of recent keys' sketch columns, and the slot that
  /// holds `key`'s: keys that share a slot evict each other.
  static constexpr size_t kSketchMemoSlots = 1024;
  static size_t SketchMemoSlot(const ContentKey& key) {
    return size_t(key.Hash()) & (kSketchMemoSlots - 1);
  }

  /// Cache lookup at `now` (TTL-aware). Does not bump reuse.hit/miss
  /// metrics — the platform records those with tenant attribution.
  const CachedResult* Lookup(const ContentKey& key, SimTime now_us) {
    return cache_.Lookup(key, now_us);
  }

  /// Offers a finished execution's result to the cache under cost-aware
  /// admission, stamped with the key's recurrence estimate in place of
  /// `result.recurrence`, and maintains the admitted/rejected/eviction
  /// metrics.
  PutOutcome Offer(const ContentKey& key, const CachedResult& result,
                   SimTime now_us);

  // ------------------------------------------------------ approximation
  /// A degraded-mode answer: `output` plus the guaranteed error bound the
  /// caller exports to the client (e.g. CountMin's eps * total).
  struct ApproxAnswer {
    std::string output;
    double error_bound = 0.0;
  };
  using ApproxProvider = std::function<ApproxAnswer(const std::string&)>;

  /// Registers the degraded-mode provider for `function`.
  void RegisterApprox(const std::string& function, ApproxProvider provider);
  bool HasApprox(uint32_t function_id) const {
    return function_id < functions_.size() &&
           functions_[function_id].approx != nullptr;
  }
  /// Runs the provider (caller must check HasApprox / ShouldApproximate).
  ApproxAnswer Approximate(uint32_t function_id,
                           const std::string& payload) const;

  /// Reads burn rates from this engine's `objective` for the gate.
  void SetSloSource(const obs::SloEngine* slo, std::string objective);

  /// True when degradation should serve this request: reuse + a positive
  /// threshold are enabled and the tenant's (or the aggregate) burn rate
  /// over the configured window is at or above the threshold.
  bool ShouldApproximate(const std::string& tenant, SimTime now_us) const;

  // ---------------------------------------------------------- recording
  /// The tenant's labeled series, resolved on first use (nullptr for the
  /// empty tenant: only the aggregate is recorded).
  TenantHandles* TenantMetrics(const std::string& tenant);

  // The platform attributes each served path to a tenant (nullptr: none);
  // `saved_exec_us` is the execution time the hit/follower did not re-run.
  void RecordHit(TenantHandles* tenant, SimDuration saved_exec_us);
  void RecordMiss(TenantHandles* tenant);
  void RecordCoalesce(TenantHandles* tenant, SimDuration saved_exec_us);
  void RecordApprox(TenantHandles* tenant);

  // --------------------------------------------------------------- wiring
  /// Re-homes "reuse.*" metrics onto the shared registry.
  void AttachObservability(obs::Observability* o);

  /// Defines and subscribes the live knobs: "reuse.enabled",
  /// "reuse.approx.burn_threshold" and "reuse.cache.max_bytes" (defaults =
  /// the constructed config).
  void AttachControl(ctrl::ConfigService* service);

  ReuseStats stats() const;

 private:
  /// One interned function.
  struct Function {
    std::string name;
    ApproxProvider approx;
  };

  void BindMetrics();
  void SyncCacheGauges();
  /// Rows of the recurrence sketch.
  static constexpr uint32_t kSketchDepth = 4;
  /// One memo slot: a key and its sketch columns. `key.bytes == 0` marks
  /// an empty slot, since every key of a named function has bytes >= 17.
  struct SketchSlot {
    ContentKey key;
    std::array<uint32_t, kSketchDepth> cols{};
  };

  /// The bytes the recurrence sketch hashes for `key`: the string key
  /// `function + 0x1f + hex(payload hash)`, rendered into a reused buffer.
  std::string_view SketchItem(const ContentKey& key) const;
  /// `key`'s sketch columns, from the memo or hashed from SketchItem into
  /// its slot. A function id never changes its name, so a slot whose key
  /// matches is never stale.
  std::span<const uint32_t> SketchColumns(const ContentKey& key) const;

  ReuseConfig config_;
  bool enabled_ = true;
  double approx_burn_threshold_ = 0.0;
  Cache cache_;
  Singleflight flights_;
  /// Recurrence estimate, 4 x 4096 (one-sided error: never undercounts, so
  /// admission can only over-value, never starve).
  sketch::CountMinSketch popularity_{/*depth=*/kSketchDepth, /*width=*/4096,
                                     /*seed=*/17};
  /// Direct-mapped by SketchMemoSlot; sized once, in the constructor. A
  /// request stream repeats few keys, so most requests skip rendering and
  /// hashing the sketch item.
  mutable std::vector<SketchSlot> sketch_memo_;
  /// Interned functions by id, and the ids by name.
  std::vector<Function> functions_;
  std::unordered_map<std::string, uint32_t> function_ids_;
  mutable std::string sketch_item_;
  /// Offer's copy of the result with the recurrence stamped in; a member
  /// so its string keeps its capacity.
  CachedResult offer_;
  const obs::SloEngine* slo_ = nullptr;
  std::string objective_;

  obs::Registry own_registry_;
  obs::Registry* registry_ = &own_registry_;

  struct MetricHandles {
    obs::CounterHandle hits;
    obs::CounterHandle misses;
    obs::CounterHandle coalesced;
    obs::CounterHandle approx_served;
    obs::CounterHandle cache_admitted;
    obs::CounterHandle cache_rejected;
    obs::CounterHandle cache_evictions;
    obs::CounterHandle cache_expired;
    obs::CounterHandle saved_exec_us;
    obs::GaugeHandle cache_bytes;
    obs::GaugeHandle cache_entries;
  };
  MetricHandles h_;
  /// Map storage: handle pointers handed out by TenantMetrics stay valid.
  std::map<std::string, TenantHandles> tenant_handles_;
};

}  // namespace taureau::reuse
