#include "psim/psim.h"

#include <algorithm>
#include <chrono>
#include <utility>

namespace taureau::psim {

namespace {

using Clock = std::chrono::steady_clock;

uint64_t NanosSince(Clock::time_point start) {
  return uint64_t(std::chrono::nanoseconds(Clock::now() - start).count());
}

}  // namespace

bool ParallelSimulation::PostLater::operator()(const PostRecord& a,
                                               const PostRecord& b) const {
  // Min-heap over the global (time, source shard, post seq) rule.
  if (a.when != b.when) return a.when > b.when;
  if (a.src != b.src) return a.src > b.src;
  return a.seq > b.seq;
}

ParallelSimulation::ParallelSimulation(const PsimConfig& config)
    : lookahead_(std::max<SimDuration>(config.lookahead_us, 1)) {
  const uint32_t shards = std::max<uint32_t>(config.shards, 1);
  shards_.reserve(shards);
  for (uint32_t s = 0; s < shards; ++s) {
    auto shard = std::make_unique<Shard>();
    shard->outbox[0].resize(shards);
    shard->outbox[1].resize(shards);
    shards_.push_back(std::move(shard));
  }
  unsigned threads = config.threads;
  if (threads == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    threads = hw != 0 ? hw : 1;
  }
  threads_ = std::min<unsigned>(std::max(threads, 1u), shards);
  if (threads_ > 1) {
    // The coordinator (the thread calling Run) doubles as worker 0, so the
    // pool holds threads_ - 1 standing workers.
    pool_.reserve(threads_ - 1);
    for (unsigned w = 1; w < threads_; ++w) {
      pool_.emplace_back([this, w] { WorkerMain(w); });
    }
  }
}

ParallelSimulation::~ParallelSimulation() {
  if (!pool_.empty()) {
    stop_.store(true, std::memory_order_release);
    epoch_ticket_.fetch_add(1, std::memory_order_release);
    for (std::thread& t : pool_) t.join();
  }
}

void ParallelSimulation::Post(ShardId src, ShardId dst, SimDuration delay,
                              sim::Callback fn) {
  Shard& from = *shards_[src];
  if (delay < lookahead_) {
    // Cross-shard communication cannot beat the minimum network latency
    // the lookahead was mined from: clamp, and let the property tests see
    // how often a workload tried.
    delay = lookahead_;
    ++from.posts_clamped;
  }
  const SimTime when = from.sim.Now() + delay;
  from.posted_min = std::min(from.posted_min, when);
  from.outbox[parity_][dst].push_back(
      PostRecord{when, src, from.post_seq++, std::move(fn)});
}

SimTime ParallelSimulation::NextEventTime() const {
  SimTime t = sim::Simulation::kNoEventTime;
  for (const auto& shard : shards_) {
    t = std::min({t, shard->sim.next_event_time(), shard->posted_min});
    if (!shard->calendar.empty()) t = std::min(t, shard->calendar.front().when);
  }
  return t;
}

bool ParallelSimulation::Drained() const {
  // Between runs every post not yet pulled is under some posted_min.
  return NextEventTime() == sim::Simulation::kNoEventTime;
}

uint64_t ParallelSimulation::events_fired() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->sim.events_fired();
  return total;
}

ParallelSimulation::Stats ParallelSimulation::stats() const {
  Stats s;
  s.epochs = epochs_;
  s.barrier_ns = barrier_ns_;
  s.wait_ns = wait_ns_;
  for (const auto& shard : shards_) {
    s.cross_posts += shard->cross_posts;
    s.clamped_posts += shard->posts_clamped;
  }
  return s;
}

void ParallelSimulation::RunShard(ShardId s, SimTime horizon) {
  Shard& shard = *shards_[s];
  // This shard's earlier posts are all pulled during this epoch.
  shard.posted_min = sim::Simulation::kNoEventTime;
  // Pull column s of every source's previous-epoch outbox into the
  // calendar heap, so posts pulled in *different* epochs still release in
  // global rule order.
  auto& calendar = shard.calendar;
  for (auto& src : shards_) {
    auto& box = src->outbox[parity_ ^ 1][s];
    for (PostRecord& rec : box) {
      calendar.push_back(std::move(rec));
      std::push_heap(calendar.begin(), calendar.end(), PostLater{});
    }
    box.clear();
  }
  // Release every arrival stamped inside this epoch in pop order: each
  // ScheduleAt takes the loop's next sequence number, so equal-time
  // arrivals fire in rule order, after local events already queued then.
  while (!calendar.empty() && calendar.front().when <= horizon) {
    std::pop_heap(calendar.begin(), calendar.end(), PostLater{});
    shard.sim.ScheduleAt(calendar.back().when, std::move(calendar.back().fn));
    calendar.pop_back();
    ++shard.cross_posts;
  }
  shard.sim.RunUntil(horizon);
}

void ParallelSimulation::DrainShardsForEpoch(unsigned worker) {
  for (ShardId s = worker; s < num_shards(); s += threads_) {
    RunShard(s, horizon_);
  }
}

void ParallelSimulation::WorkerMain(unsigned worker) {
  uint64_t seen = 0;
  for (;;) {
    // Spin briefly, then yield: epochs are microseconds apart in the hot
    // phase and the pool must not oversleep the barrier cadence.
    int spins = 0;
    while (epoch_ticket_.load(std::memory_order_acquire) == seen) {
      if (++spins > 4096) {
        std::this_thread::yield();
        spins = 0;
      }
    }
    ++seen;
    if (stop_.load(std::memory_order_acquire)) return;
    DrainShardsForEpoch(worker);
    done_count_.fetch_add(1, std::memory_order_acq_rel);
  }
}

void ParallelSimulation::ExecuteEpoch(SimTime horizon) {
  parity_ ^= 1;  // Shards pull what the last epoch (or setup) posted.
  horizon_ = horizon;
  if (pool_.empty()) {
    DrainShardsForEpoch(0);
    return;
  }
  done_count_.store(0, std::memory_order_relaxed);
  epoch_ticket_.fetch_add(1, std::memory_order_release);
  DrainShardsForEpoch(0);  // The coordinator is worker 0.
  const unsigned workers = unsigned(pool_.size());
  const Clock::time_point waited = Clock::now();
  int spins = 0;
  while (done_count_.load(std::memory_order_acquire) < workers) {
    if (++spins > 4096) {
      std::this_thread::yield();
      spins = 0;
    }
  }
  wait_ns_ += NanosSince(waited);
}

uint64_t ParallelSimulation::RunEpochs(SimTime deadline) {
  const uint64_t before = events_fired();
  for (;;) {
    // Barrier: the new global lower bound. Shards pull their own arrivals.
    const Clock::time_point barrier = Clock::now();
    const SimTime t = NextEventTime();
    if (t == sim::Simulation::kNoEventTime || t > deadline) break;
    // Inclusive horizon T + L - 1: an event firing at any t' <= H can only
    // post cross-shard work at t' + lookahead >= T + L > H, so every
    // arrival pulled in the next epoch is still in every shard's future —
    // no shard ever receives an event in its past.
    const SimTime horizon = std::min(deadline, t + lookahead_ - 1);
    barrier_ns_ += NanosSince(barrier);
    ExecuteEpoch(horizon);
    ++epochs_;
  }
  return events_fired() - before;
}

uint64_t ParallelSimulation::Run() {
  return RunEpochs(sim::Simulation::kNoEventTime - 1);
}

uint64_t ParallelSimulation::RunUntil(SimTime deadline) {
  const uint64_t fired = RunEpochs(deadline);
  // Match sim::Simulation::RunUntil: idle shards still observe the passage
  // of time up to the deadline.
  for (auto& shard : shards_) shard->sim.RunUntil(deadline);
  return fired;
}

}  // namespace taureau::psim
