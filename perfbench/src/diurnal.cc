#include "diurnal.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <string>

#include "common/hash.h"
#include "faas/billing.h"
#include "faas/function.h"
#include "obs/metrics.h"
#include "obs/shard_merge.h"
#include "psim/psim.h"
#include "span_trace.h"

namespace perfbench {

using taureau::kMillisecond;
using taureau::kSecond;
using taureau::SimDuration;
using taureau::SimTime;
using taureau::psim::ShardId;

namespace {

constexpr DiurnalShape kDay{
    .name = "diurnal_day",
    .cells = 8,
    .day_us = 6 * kSecond,
    .base_rate = 300000.0,
    .amplitude = 0.5,
    .remote_share = 0.25,
    .lookahead_us = 600,
};

constexpr DiurnalShape kTinyDay{
    .name = "diurnal_day.tiny",
    .cells = 8,
    .day_us = 300 * kMillisecond,
    .base_rate = 300000.0,
    .amplitude = 0.5,
    .remote_share = 0.25,
    .lookahead_us = 600,
};

/// Each request's simulated service time is drawn uniformly from
/// [kMinServiceUs, kMaxServiceUs].
constexpr SimDuration kMinServiceUs = 100;
constexpr SimDuration kMaxServiceUs = 400;

/// Sums host time of one callback into its shard's total; null: untimed.
class CallbackTimer {
 public:
  explicit CallbackTimer(int64_t* total)
      : total_(total), start_(total != nullptr ? NowNs() : 0) {}
  ~CallbackTimer() {
    if (total_ != nullptr) *total_ += NowNs() - start_;
  }
  CallbackTimer(const CallbackTimer&) = delete;
  CallbackTimer& operator=(const CallbackTimer&) = delete;

 private:
  int64_t* total_;
  int64_t start_;
};

}  // namespace

const DiurnalShape& DiurnalDayShape() { return kDay; }
const DiurnalShape& DiurnalTinyShape() { return kTinyDay; }

DiurnalArrivals::DiurnalArrivals(const DiurnalShape& shape, uint64_t seed,
                                 uint32_t cell)
    : shape_(&shape),
      gaps_(taureau::HashCombine(seed + 7, cell)),
      draws_(taureau::HashCombine(seed, cell)) {}

bool DiurnalArrivals::Next(DiurnalRequest* out) {
  const double phase =
      2.0 * 3.14159265358979323846 * double(now_) / double(shape_->day_us);
  const double rate_per_us = shape_->base_rate / shape_->cells *
                             (1.0 + shape_->amplitude * std::sin(phase)) / 1e6;
  now_ += std::max<SimDuration>(
      1, SimDuration(gaps_.NextExponential(rate_per_us)));
  if (now_ >= shape_->day_us) return false;
  out->at_us = now_;
  out->exec_us = kMinServiceUs +
                 SimDuration(draws_.NextInt(0, kMaxServiceUs - kMinServiceUs));
  out->remote = draws_.NextBool(shape_->remote_share);
  out->dst = out->remote ? uint32_t(draws_.NextBounded(shape_->cells)) : 0;
  return true;
}

struct DiurnalWorld::Impl {
  /// Everything one cell (shard) owns. Only the thread running the shard
  /// touches it during an epoch; cache-line aligned so neighbours never
  /// share a line.
  struct alignas(64) Cell {
    taureau::obs::Registry registry;
    taureau::obs::CounterHandle requests;
    taureau::obs::CounterHandle remote_calls;
    taureau::obs::HistogramHandle e2e_us;
    std::unique_ptr<DiurnalArrivals> gen;
    DiurnalRequest next;
    uint64_t issued = 0;
    /// Requests issued here, by simulated service time in whole us.
    std::vector<uint64_t> issued_by_service_us;
    // Completions that landed on this cell.
    uint64_t terminals = 0;
    uint64_t double_completions = 0;
    LatencyCounts latency;
    Digest digest;
    /// completed[origin]: bit `seq` set when origin's request seq completed
    /// here.
    std::vector<std::vector<uint64_t>> completed;
    int64_t callback_ns = 0;
  };

  Impl(const DiurnalShape& s, uint64_t seed, unsigned threads, bool timed)
      : shape(s), time_callbacks(timed), world(Config(s, threads)),
        cells(s.cells) {
    for (uint32_t c = 0; c < s.cells; ++c) {
      Cell& cell = cells[c];
      cell.requests = cell.registry.ResolveCounter("day.requests");
      cell.remote_calls = cell.registry.ResolveCounter("day.remote_calls");
      cell.e2e_us = cell.registry.ResolveHistogram("day.e2e_us");
      cell.gen = std::make_unique<DiurnalArrivals>(s, seed, c);
      cell.issued_by_service_us.assign(size_t(kMaxServiceUs) + 1, 0);
      cell.completed.resize(s.cells);
      ScheduleNext(c);
    }
  }

  static taureau::psim::PsimConfig Config(const DiurnalShape& s,
                                          unsigned threads) {
    taureau::psim::PsimConfig cfg;
    cfg.shards = s.cells;
    cfg.threads = threads;
    cfg.lookahead_us = s.lookahead_us;
    return cfg;
  }

  int64_t* TimerFor(ShardId s) {
    return time_callbacks ? &cells[s].callback_ns : nullptr;
  }

  void ScheduleNext(ShardId s) {
    Cell& cell = cells[s];
    if (!cell.gen->Next(&cell.next)) return;
    world.shard(s).ScheduleAt(cell.next.at_us, [this, s] { Arrive(s); });
  }

  void Arrive(ShardId s) {
    CallbackTimer timer(TimerFor(s));
    Cell& cell = cells[s];
    const DiurnalRequest req = cell.next;
    const uint64_t seq = cell.issued++;
    const SimTime t0 = world.shard(s).Now();
    cell.requests.Inc();
    ++cell.issued_by_service_us[size_t(req.exec_us)];
    if (req.remote) {
      cell.remote_calls.Inc();
      const ShardId dst = req.dst;
      world.Post(s, dst, shape.lookahead_us + req.exec_us,
                 [this, dst, s, seq, t0] { Complete(dst, s, seq, t0); });
    } else {
      const SimDuration exec = req.exec_us;
      world.shard(s).Schedule(exec / 2, [this, s, seq, t0, exec] {
        CallbackTimer hop(TimerFor(s));
        world.shard(s).Schedule(exec - exec / 2, [this, s, seq, t0] {
          Complete(s, s, seq, t0);
        });
      });
    }
    ScheduleNext(s);
  }

  void Complete(ShardId at, ShardId origin, uint64_t seq, SimTime t0) {
    CallbackTimer timer(TimerFor(at));
    Cell& cell = cells[at];
    const SimTime now = world.shard(at).Now();
    cell.e2e_us.Observe(double(now - t0));
    cell.latency.Add(now - t0);
    cell.digest.Mix((uint64_t(origin) << 48) | seq);
    cell.digest.Mix(uint64_t(now));
    std::vector<uint64_t>& bits = cell.completed[origin];
    const size_t word = size_t(seq >> 6);
    if (word >= bits.size()) bits.resize(word + word / 2 + 64, 0);
    const uint64_t mask = uint64_t(1) << (seq & 63);
    cell.double_completions += (bits[word] & mask) != 0;
    bits[word] |= mask;
    ++cell.terminals;
  }

  const DiurnalShape& shape;
  const bool time_callbacks;
  taureau::psim::ParallelSimulation world;
  std::vector<Cell> cells;
  std::string exported;
};

DiurnalWorld::DiurnalWorld(const DiurnalShape& shape, uint64_t seed,
                           unsigned threads, bool time_callbacks)
    : impl_(std::make_unique<Impl>(shape, seed, threads, time_callbacks)) {}

DiurnalWorld::~DiurnalWorld() = default;

void DiurnalWorld::Run() {
  Impl& w = *impl_;
  w.world.Run();
  std::vector<const taureau::obs::Registry*> regs;
  for (const Impl::Cell& c : w.cells) regs.push_back(&c.registry);
  w.exported = taureau::obs::MergeShardExports(regs);
}

Outcome DiurnalWorld::Finish() {
  Impl& w = *impl_;
  Outcome out;
  out.events = w.world.events_fired();
  if (!w.world.Drained()) out.violations.push_back("psim world not drained");
  // Each request must have completed on exactly one cell, exactly once.
  uint64_t doubles = 0;
  uint64_t missing = 0;
  for (uint32_t origin = 0; origin < w.cells.size(); ++origin) {
    const uint64_t issued = w.cells[origin].issued;
    out.offered += issued;
    for (size_t word = 0; word * 64 < issued; ++word) {
      uint64_t seen = 0;
      for (const Impl::Cell& c : w.cells) {
        const auto& bits = c.completed[origin];
        const uint64_t b = word < bits.size() ? bits[word] : 0;
        doubles += uint64_t(std::popcount(seen & b));
        seen |= b;
      }
      const uint64_t left = issued - word * 64;
      const uint64_t expect = left >= 64 ? ~uint64_t(0)
                                         : (uint64_t(1) << left) - 1;
      missing += uint64_t(std::popcount(expect & ~seen));
      doubles += uint64_t(std::popcount(seen & ~expect));
    }
  }
  // No FaaS platform runs here, so nothing is billed as the day goes; each
  // request is priced afterwards by the platform's own pricing, at its
  // default rates and a function's default memory, for its simulated
  // service time.
  const taureau::faas::BillingLedger pricing{taureau::faas::BillingRates{}};
  const int64_t memory_mb = taureau::faas::FunctionSpec().demand.memory_mb;
  taureau::Money cost;
  Digest d;
  for (const Impl::Cell& c : w.cells) {
    doubles += c.double_completions;
    out.terminal += c.terminals;
    out.ok_latency_us.Merge(c.latency);
    d.Mix(c.digest.value());
    d.Mix(c.issued);
    for (size_t us = 0; us < c.issued_by_service_us.size(); ++us) {
      cost += pricing.Price(SimDuration(us), memory_mb) *
              int64_t(c.issued_by_service_us[us]);
    }
  }
  if (doubles > 0) {
    out.violations.push_back(std::to_string(doubles) +
                             " requests completed more than once");
  }
  if (missing > 0) {
    out.violations.push_back(std::to_string(missing) +
                             " requests never completed");
  }
  out.ok = out.offered - missing;
  out.cost_usd = cost.dollars();
  d.Mix(uint64_t(cost.nano_dollars()));
  d.Mix(taureau::Fnv1a64(w.exported));
  out.digest = d.value();
  return out;
}

uint64_t DiurnalWorld::epochs() const { return impl_->world.stats().epochs; }

unsigned DiurnalWorld::threads() const { return impl_->world.threads(); }

std::vector<int64_t> DiurnalWorld::CallbackNsPerShard() const {
  std::vector<int64_t> out;
  for (const Impl::Cell& c : impl_->cells) out.push_back(c.callback_ns);
  return out;
}

}  // namespace perfbench
