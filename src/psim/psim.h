// Parallel discrete-event simulation: one world across N cores.
//
// A ParallelSimulation shards a single simulated world into `shards` logical
// processes. Each shard owns a private sim::Simulation (its event loop, and
// by convention its slice of the landscape: machines, topics, namespaces —
// the world that builds the shards decides, e.g. with ShardForKey). Shards
// interact only through Post(): a timestamped cross-shard event that is
// buffered in the source shard's outbox and pulled by its destination in the
// next epoch.
//
// Execution proceeds in conservative-lookahead epochs (classic CMB-style
// null-message-free synchronous variant — the rethinkdb runtime's
// message-hub shape, adapted to simulated time):
//
//   T  = min over shards of the earliest pending event, arrival or post
//   H  = T + lookahead - 1                      (inclusive epoch horizon)
//   each shard, on its fixed worker: pulls last epoch's posts to it, releases
//            arrivals stamped <= H in global (time, source shard, post seq)
//            order, runs its private loop through H
//
// Outboxes are double-buffered by epoch parity, so the coordinator's only
// serial work is the minimum that gives T.
//
// Safety: lookahead is the minimum simulated latency of any cross-shard
// interaction (mined from the latency models — no network hop, dispatch or
// store round-trip is faster; see lookahead.h). An event executing at
// t <= H can therefore only post cross-shard work at t + lookahead > H, so
// no shard ever receives an event in its past. Post() clamps faster
// requests up to the lookahead (cross-shard communication cannot beat the
// network) and counts them in stats().clamped_posts.
//
// Determinism: each shard's loop is single-threaded and seeded, an outbox
// is written only by its posting shard, and each destination releases its
// arrivals in the order of the global (time, shard, seq) rule — so the full
// observable state (event counts, clocks, metric exports, span digests) is
// a pure function of the workload, *not* of the thread count. 1 thread == N
// threads byte-identical is asserted in-binary by bench_e26_psim and pinned
// by tests/psim_test.cc.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string_view>
#include <thread>
#include <vector>

#include "common/hash.h"
#include "common/time_types.h"
#include "sim/simulation.h"

namespace taureau::psim {

/// Index of a logical process (shard) inside a ParallelSimulation.
using ShardId = uint32_t;

/// Stable hash partitioner: which shard owns `key` (a machine name, topic,
/// namespace path, tenant id).
inline ShardId ShardForKey(std::string_view key, uint32_t shards) {
  return shards <= 1 ? 0 : static_cast<ShardId>(Fnv1a64(key) % shards);
}

struct PsimConfig {
  /// Number of logical processes the world is sharded into. Fixed for the
  /// lifetime of the engine; results depend on it (it is part of the
  /// workload's identity), unlike `threads`, which never changes results.
  uint32_t shards = 1;
  /// Worker threads executing shard epochs. 1 = serial reference execution
  /// on the calling thread; 0 = hardware concurrency. Clamped to `shards`.
  unsigned threads = 1;
  /// Conservative lookahead: the minimum simulated duration of any
  /// cross-shard interaction. Must be >= 1 (one microsecond tick). See
  /// lookahead.h for mining this from the latency models.
  SimDuration lookahead_us = 1 * kMillisecond;
};

class ParallelSimulation {
 public:
  explicit ParallelSimulation(const PsimConfig& config);
  ~ParallelSimulation();

  ParallelSimulation(const ParallelSimulation&) = delete;
  ParallelSimulation& operator=(const ParallelSimulation&) = delete;

  uint32_t num_shards() const { return uint32_t(shards_.size()); }
  unsigned threads() const { return threads_; }
  SimDuration lookahead() const { return lookahead_; }

  /// The private event loop of shard `s`. Direct scheduling on it is the
  /// *local* (intra-shard) path: allowed from the shard's own callbacks and
  /// from setup code before Run()/RunUntil() — never from another shard's
  /// callbacks (that is what Post is for).
  sim::Simulation& shard(ShardId s) { return shards_[s]->sim; }
  const sim::Simulation& shard(ShardId s) const { return shards_[s]->sim; }

  /// Cross-shard event: schedules `fn` on shard `dst` at simulated time
  /// shard(src).Now() + max(delay, lookahead). `src` must be the shard
  /// whose callback is currently executing (or any shard from setup code,
  /// outside Run). The event is buffered in src's private outbox, pulled
  /// into dst's calendar at the start of dst's next epoch, and released
  /// into dst's loop at the epoch containing its timestamp. Equal-time
  /// arrivals fire in the global (time, source shard, post seq) order —
  /// regardless of which epoch carried them — after local events already
  /// queued at that timestamp.
  void Post(ShardId src, ShardId dst, SimDuration delay, sim::Callback fn);

  /// Runs barrier epochs until every shard's queue and every outbox is
  /// empty. Returns events fired across all shards during this call.
  uint64_t Run();

  /// Runs epochs through `deadline` (events with time <= deadline fire),
  /// then advances every shard clock to at least `deadline`. Cross-shard
  /// events stamped beyond the deadline stay pending.
  ///
  /// Known limit: a deadline moves epoch boundaries, and an epoch releases
  /// every arrival stamped inside it when it starts, ahead of any local
  /// event scheduled during that epoch. So a cross-shard arrival and a
  /// local event stamped at the same microsecond can fire in the opposite
  /// order to an unsliced Run. A sliced run equals an unsliced one for
  /// schedules without such ties (psim_test's storms), not for every
  /// schedule.
  uint64_t RunUntil(SimTime deadline);

  /// Sum of events fired across all shards (lifetime).
  uint64_t events_fired() const;
  /// True when no shard has a pending event and all outboxes are empty.
  bool Drained() const;

  struct Stats {
    uint64_t epochs = 0;          ///< Barrier rounds executed.
    uint64_t cross_posts = 0;     ///< Cross-shard events delivered.
    uint64_t clamped_posts = 0;   ///< Posts whose delay was < lookahead.
    /// Host time, not simulated: what the coordinator spent between epochs
    /// finding the next event time and the horizon.
    uint64_t barrier_ns = 0;
    /// Host time the coordinator spun on the done-counter after its own
    /// shards finished. Always 0 at threads == 1.
    uint64_t wait_ns = 0;
  };
  Stats stats() const;

 private:
  struct PostRecord {
    SimTime when;
    uint32_t src;  ///< Posting shard: second key of the global rule.
    uint64_t seq;  ///< Per-source post counter: the final tiebreak.
    sim::Callback fn;
  };
  struct PostLater {
    bool operator()(const PostRecord& a, const PostRecord& b) const;
  };

  /// One logical process. Heap-allocated so hot per-shard state never
  /// false-shares a cache line with a neighbouring shard's.
  struct Shard {
    sim::Simulation sim;
    /// outbox[parity][dst]: cross-shard events this shard posted in the
    /// epoch of that parity (setup-time posts join the last epoch's). Only
    /// this shard's executing thread writes the current parity; in the next
    /// epoch, shard dst's worker pulls and clears outbox[that parity][dst].
    std::vector<std::vector<PostRecord>> outbox[2];
    /// Pending cross-shard arrivals for THIS shard, min-heaped by the
    /// global (time, shard, seq) rule. Events wait here until the epoch
    /// whose window contains their timestamp — so arrivals pulled in
    /// different epochs still fire in global rule order.
    std::vector<PostRecord> calendar;
    /// Earliest timestamp this shard posted that its destinations have not
    /// pulled yet; kNoEventTime when there is none.
    SimTime posted_min = sim::Simulation::kNoEventTime;
    uint64_t post_seq = 0;
    uint64_t posts_clamped = 0;
    uint64_t cross_posts = 0;  ///< Arrivals released into this shard's loop.
  };

  /// Earliest pending event over all shards: private heaps, calendars and
  /// posts not yet pulled. kNoEventTime when drained.
  SimTime NextEventTime() const;
  /// Runs every shard through `horizon` (serially or on the worker pool).
  void ExecuteEpoch(SimTime horizon);
  /// One shard's epoch on its own worker: pull, release, run through horizon.
  void RunShard(ShardId s, SimTime horizon);
  /// Core epoch loop shared by Run/RunUntil.
  uint64_t RunEpochs(SimTime deadline);

  void WorkerMain(unsigned worker);
  /// Runs the shards `worker` owns: s mod threads_ == worker, fixed, so a
  /// shard's outbox column, calendar and loop stay on one core.
  void DrainShardsForEpoch(unsigned worker);

  std::vector<std::unique_ptr<Shard>> shards_;
  SimDuration lookahead_;
  unsigned threads_;
  uint64_t epochs_ = 0;
  uint64_t barrier_ns_ = 0;
  uint64_t wait_ns_ = 0;

  // Worker pool (present only when threads_ > 1). Epochs are published via
  // an acquire/release ticket; each worker runs the shards it owns through
  // horizon_ and checks in on done_count_. All shard state is therefore
  // handed off with proper happens-before edges at every barrier — the
  // property the TSan CI job verifies.
  std::vector<std::thread> pool_;
  std::atomic<uint64_t> epoch_ticket_{0};
  std::atomic<unsigned> done_count_{0};
  std::atomic<bool> stop_{false};
  // Written by the coordinator before the ticket release.
  SimTime horizon_ = 0;
  unsigned parity_ = 0;  ///< The outbox parity this epoch posts into.
};

/// Convenience view a workload hands to the closures it schedules on one
/// shard: the shard's own loop plus the cross-shard Post path, with the
/// source id baked in.
struct ShardView {
  ParallelSimulation* world = nullptr;
  ShardId id = 0;

  sim::Simulation& sim() const { return world->shard(id); }
  SimTime Now() const { return world->shard(id).Now(); }
  void Post(ShardId dst, SimDuration delay, sim::Callback fn) const {
    world->Post(id, dst, delay, std::move(fn));
  }
};

}  // namespace taureau::psim
