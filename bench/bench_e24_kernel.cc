// E24: the simulation kernel and telemetry fast path.
//
// Every experiment in this repo bottlenecks on the same two hot paths: the
// sim event loop and per-request obs/guard telemetry. E24 establishes the
// repo's first events/sec + ns/event baseline and pins the fast-path
// contracts in-binary:
//
//   E24a  kernel throughput — the E24 slab/4-ary-heap kernel vs the seed
//         kernel (std::priority_queue + std::function + lazy-cancel set,
//         embedded below verbatim) on a faas-shaped schedule/complete/
//         cancel-timeout workload. Acceptance: >= 5x events/sec.
//   E24b  allocation discipline — steady-state allocations per event via a
//         counting operator new. Acceptance: 0 for the new kernel.
//   E24c  telemetry fast path — metric record and span start/end cost,
//         map-lookup vs pre-resolved handle, interned streaming spans,
//         SloEngine::Record with ~1k vs ~100k events in the burn window,
//         and a platform-shaped trace streamed through the whole always-on
//         layer (sampler, flame, SLO), dropped, and retained into a small
//         store that evicts on every retain. Acceptance: the 100k-event
//         record costs <= 3x the 1k-event one (a ratio, so host speed
//         cancels; a window scan grows ~100x), and a streamed trace makes
//         <= 0.01 heap allocations whether dropped or retained (span, group,
//         attribution and retained-store storage is recycled).
//   E24d  parallel sweep — the RunSweep driver over per-run isolated
//         Simulation/Registry/Tracer worlds. Acceptance: merged results
//         byte-identical at 1 thread and at N.
//
// The experiment tables land in BENCH_E24.json; CI's bench-smoke job greps
// the acceptance notes and compares events/sec against the checked-in
// BENCH_E24_BASELINE.json (>30% regression fails the build).
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <memory>
#include <new>
#include <queue>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "common/hash.h"
#include "common/rng.h"
#include "common/time_types.h"
#include "obs/metrics.h"
#include "obs/observability.h"
#include "obs/slo.h"
#include "obs/trace.h"
#include "sim/simulation.h"

// ------------------------------------------------------- allocation probe
//
// Global counting operator new: E24b's "zero steady-state allocations per
// event" is asserted with real allocator traffic, not guesswork. Counts are
// relaxed-atomic so the sweep's worker threads stay correct.

namespace {
std::atomic<uint64_t> g_alloc_count{0};
}  // namespace

// GCC flags free() inside a replaced operator new/delete pair as a
// mismatched allocation; the pairing is exact (malloc/aligned_alloc <-> free).
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void* operator new(size_t n) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](size_t n) { return operator new(n); }
void* operator new(size_t n, std::align_val_t al) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::aligned_alloc(size_t(al), (n + size_t(al) - 1) &
                                                   ~(size_t(al) - 1))) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](size_t n, std::align_val_t al) {
  return operator new(n, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete[](void* p, size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace taureau {
namespace {

bool Small() { return std::getenv("TAUREAU_BENCH_SMALL") != nullptr; }

uint64_t AllocCount() {
  return g_alloc_count.load(std::memory_order_relaxed);
}

// ------------------------------------------------------------ seed kernel
//
// The pre-E24 Simulation, embedded verbatim (renamed) so the speedup is
// measured against the real thing in the same binary, same flags, same
// machine — not against a checked-in number from different hardware.

class SeedSimulation {
 public:
  using EventId = uint64_t;

  SimTime Now() const { return now_; }

  EventId Schedule(SimDuration delay, std::function<void()> fn) {
    return ScheduleAt(now_ + std::max<SimDuration>(delay, 0), std::move(fn));
  }

  EventId ScheduleAt(SimTime when, std::function<void()> fn) {
    const EventId id = next_id_++;
    queue_.push(Event{std::max(when, now_), next_seq_++, id, std::move(fn)});
    return id;
  }

  bool Cancel(EventId id) {
    if (id == 0 || id >= next_id_) return false;
    return cancelled_.insert(id).second;
  }

  bool Step() {
    while (!queue_.empty()) {
      Event ev = std::move(const_cast<Event&>(queue_.top()));
      queue_.pop();
      auto it = cancelled_.find(ev.id);
      if (it != cancelled_.end()) {
        cancelled_.erase(it);
        continue;
      }
      now_ = ev.time;
      ++events_fired_;
      ev.fn();
      return true;
    }
    return false;
  }

  uint64_t Run() {
    uint64_t fired = 0;
    while (Step()) ++fired;
    return fired;
  }

  uint64_t events_fired() const { return events_fired_; }

 private:
  struct Event {
    SimTime time;
    uint64_t seq;
    EventId id;
    std::function<void()> fn;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  SimTime now_ = 0;
  uint64_t next_seq_ = 0;
  uint64_t next_id_ = 1;
  uint64_t events_fired_ = 0;
  std::priority_queue<Event, std::vector<Event>, Later> queue_;
  std::unordered_set<EventId> cancelled_;
};

// ------------------------------------------------------- kernel workload
//
// The faas/guard-shaped hot loop: every request completion (a) cancels the
// deadline and hedge timers that were guarding it (the E23 guard arms both
// per attempt), (b) re-arms both for the next request, and (c) schedules
// that request's completion. Closure captures are ~32 bytes — over
// std::function's inline buffer, comfortably inside sim::Callback's 48-byte
// slab storage, matching the platform's real capture sizes (this +
// invocation state).

template <typename SimT>
struct KernelDriver {
  SimT sim;
  long remaining = 0;
  uint64_t checksum = 0;
  std::vector<uint64_t> deadline_of;  // chain -> armed deadline timer id
  std::vector<uint64_t> hedge_of;     // chain -> armed hedge timer id

  void Step(uint32_t chain, uint64_t salt) {
    if (remaining-- <= 0) return;
    if (deadline_of[chain] != 0) sim.Cancel(deadline_of[chain]);
    if (hedge_of[chain] != 0) sim.Cancel(hedge_of[chain]);
    const uint64_t a = (salt + chain) * 0x9E3779B97F4A7C15ull;
    deadline_of[chain] = sim.Schedule(
        SimDuration(500000 + (a & 1023)),
        [this, chain, a] { checksum += a ^ chain; });
    hedge_of[chain] = sim.Schedule(
        SimDuration(2000 + (a & 255)),
        [this, chain, a] { checksum += a * 3 + chain; });
    sim.Schedule(SimDuration(1 + (a & 63)),
                 [this, chain, a] { Step(chain, a); });
  }
};

struct KernelResult {
  double events_per_sec = 0;
  double ns_per_event = 0;
  uint64_t events = 0;
  uint64_t checksum = 0;
  uint64_t steady_allocs = 0;
  double steady_allocs_per_event = 0;
};

template <typename SimT>
KernelResult DriveKernel(int chains, long events_target) {
  KernelDriver<SimT> d;
  d.remaining = events_target;
  d.deadline_of.assign(chains, 0);
  d.hedge_of.assign(chains, 0);
  for (int c = 0; c < chains; ++c) d.Step(uint32_t(c), 17);
  // Warm the slab/queue to its high-water mark before measuring, so E24b
  // observes the steady state rather than one-time growth.
  for (int i = 0; i < chains * 4; ++i) d.sim.Step();
  const uint64_t alloc_before = AllocCount();
  const uint64_t fired_before = d.sim.events_fired();
  const auto t0 = std::chrono::steady_clock::now();
  d.sim.Run();
  const auto t1 = std::chrono::steady_clock::now();
  KernelResult r;
  r.events = d.sim.events_fired() - fired_before;
  const double secs = std::chrono::duration<double>(t1 - t0).count();
  r.events_per_sec = r.events / (secs > 0 ? secs : 1e-9);
  r.ns_per_event = 1e9 * secs / double(r.events ? r.events : 1);
  r.checksum = d.checksum;
  r.steady_allocs = AllocCount() - alloc_before;
  r.steady_allocs_per_event =
      double(r.steady_allocs) / double(r.events ? r.events : 1);
  return r;
}

// ------------------------------------------------------ telemetry costs

struct TelemetryResult {
  double ns_lookup_inc = 0;   // GetCounter(name)->Inc() per record
  double ns_handle_inc = 0;   // pre-resolved CounterHandle::Inc
  double ns_handle_observe = 0;
  double ns_span_stream = 0;  // StartSpan+EndSpan, kStream, interned
  double span_allocs_per_op = 0;
};

TelemetryResult MeasureTelemetry(long ops) {
  TelemetryResult r;
  obs::Registry reg;
  const std::string name = "faas.invocations";
  auto time_loop = [&](auto body) {
    const auto t0 = std::chrono::steady_clock::now();
    for (long i = 0; i < ops; ++i) body(i);
    const auto t1 = std::chrono::steady_clock::now();
    return 1e9 * std::chrono::duration<double>(t1 - t0).count() /
           double(ops);
  };
  r.ns_lookup_inc = time_loop([&](long) { reg.GetCounter(name)->Inc(); });
  obs::CounterHandle h = reg.ResolveCounter(name);
  r.ns_handle_inc = time_loop([&](long) { h.Inc(); });
  obs::HistogramHandle hist = reg.ResolveHistogram("faas.e2e_latency_us");
  r.ns_handle_observe =
      time_loop([&](long i) { hist.Observe(double(i & 1023)); });

  // Streaming spans: a sink that drops everything isolates tracer cost.
  struct NullSink : obs::SpanSink {
    void OnSpanStart(const obs::Span&) override {}
    void OnSpanEnd(const obs::Span&) override {}
  } sink;
  sim::Simulation sim;
  obs::Tracer tracer(&sim);
  tracer.SetStoreMode(obs::Tracer::StoreMode::kStream);
  tracer.SetSink(&sink);
  // Warm the symbol table and the open-span map.
  for (int i = 0; i < 1024; ++i) {
    tracer.EndSpan(tracer.StartSpan("invoke", "faas", {}));
  }
  const uint64_t alloc_before = AllocCount();
  r.ns_span_stream = time_loop([&](long) {
    obs::TraceContext ctx = tracer.StartSpan("invoke", "faas", {});
    tracer.EndSpan(ctx);
  });
  r.span_allocs_per_op =
      double(AllocCount() - alloc_before) / double(ops);
  return r;
}

// The benchmark worlds' objective: 99% within 50 ms, one 1 s / 100 ms page
// policy.
obs::SloObjective BenchObjective() {
  obs::SloObjective objective;
  objective.name = "faas-latency";
  objective.module = "faas";
  objective.target = 0.99;
  objective.latency_budget_us = 50 * kMillisecond;
  objective.policies = {{"page", 1 * kSecond, 100 * kMillisecond, 10.0}};
  return objective;
}

// SloEngine::Record against BenchObjective, with arrivals spaced so the
// long window holds `window_events` events. The window is filled before
// timing; 1% of events are bad, so no alert edge fires while timed. Min of
// three runs, so one descheduled run cannot fail the growth gate.
double MeasureSloRecord(long window_events, long ops) {
  const SimDuration gap_us = kSecond / window_events;
  double best_ns = 0;
  for (int run = 0; run < 3; ++run) {
    obs::SloEngine slo;
    slo.AddObjective(BenchObjective());
    const std::string module = "faas";
    long i = 0;
    auto record = [&] {
      slo.Record(module, SimTime(i) * gap_us, 10 * kMillisecond,
                 i % 100 != 0);
      ++i;
    };
    while (i < window_events) record();
    const auto t0 = std::chrono::steady_clock::now();
    for (long op = 0; op < ops; ++op) record();
    const auto t1 = std::chrono::steady_clock::now();
    const double ns =
        1e9 * std::chrono::duration<double>(t1 - t0).count() / double(ops);
    if (run == 0 || ns < best_ns) best_ns = ns;
  }
  return best_ns;
}

// A platform-shaped trace streamed through the always-on layer: a root
// "invoke:f0" with tenant, status, outcome and severity attributes and an
// "exec" child with three, under BenchObjective. Traces are 40 us apart, so
// the 1 s burn window holds 25k events; it is filled twice over before
// counting, so what is counted is steady state. At head rate 0 every trace
// is folded, scored and dropped. At head rate 1 into a store of
// `max_retained_spans` spans, every trace is also retained, and once the
// store is full every retain evicts: the retained store's churn.
struct TraceStreamResult {
  double ns_per_trace = 0;
  double allocs_per_trace = 0;
  double store_bytes_per_span = 0;  ///< Retained store heap per held span.
};

TraceStreamResult MeasureTraceStream(long traces, double head_rate,
                                     size_t max_retained_spans) {
  sim::Simulation sim;
  obs::Observability o11y(&sim);
  obs::ScaleConfig scale;
  scale.sampler.head_rate = head_rate;
  scale.sampler.max_retained_spans = max_retained_spans;
  scale.objectives.push_back(BenchObjective());
  o11y.EnableScale(scale);
  obs::Tracer& tracer = o11y.tracer;
  const SimDuration gap_us = 40;
  long i = 0;
  auto emit = [&] {
    const SimTime t = SimTime(i++) * gap_us;
    const SimTime exec_start = t + 500;
    const SimTime end = exec_start + 10 * kMillisecond;
    const obs::TraceContext root =
        tracer.StartSpanAt("invoke:f0", "faas", {}, t);
    tracer.SetAttr(root, obs::kTenantAttr, "t0");
    tracer.EmitSpan("exec", "faas", root, exec_start, end,
                    {{obs::kCategoryAttr, "exec"},
                     {"attempt", "0"},
                     {"status", "OK"}});
    tracer.EndSpanAt(root, end,
                     {{"status", "OK"},
                      {obs::kOutcomeAttr, obs::kOutcomeOk},
                      {obs::kSeverityAttr, "info"}});
  };
  while (i < 2 * (kSecond / gap_us)) emit();
  const uint64_t alloc_before = AllocCount();
  const auto t0 = std::chrono::steady_clock::now();
  for (long n = 0; n < traces; ++n) emit();
  const auto t1 = std::chrono::steady_clock::now();
  TraceStreamResult r;
  r.ns_per_trace = 1e9 * std::chrono::duration<double>(t1 - t0).count() /
                   double(traces);
  r.allocs_per_trace = double(AllocCount() - alloc_before) / double(traces);
  const obs::SamplingPipeline& pipeline = *o11y.pipeline();
  if (pipeline.retained_span_count() > 0) {
    r.store_bytes_per_span = double(pipeline.retained_store_bytes()) /
                             double(pipeline.retained_span_count());
  }
  return r;
}

// ------------------------------------------------------- parallel sweep
//
// Each sweep cell simulates a small open-loop service with Poisson-ish
// arrivals and exponential service times, records metrics and streaming
// spans into per-run isolated objects, and returns a digest of everything
// observable. Determinism contract: the merged digest vector is identical
// no matter how many threads executed the sweep.

struct SweepCell {
  uint64_t seed;
  double load;
};

struct SweepRun {
  uint64_t digest = 0;
  uint64_t events = 0;
  std::string summary;
};

SweepRun RunSweepCell(const SweepCell& cell, int requests) {
  SweepRun out;
  sim::Simulation sim;
  obs::Registry reg;
  obs::Tracer tracer(&sim);
  Rng rng(cell.seed);
  obs::CounterHandle done = reg.ResolveCounter("svc.done");
  obs::HistogramHandle lat =
      reg.ResolveHistogram("svc.latency_us", double(kMinute));

  const double service_us = 1000.0;
  const double gap_us = service_us / cell.load;
  SimTime busy_until = 0;
  SimTime arrive_at = 0;
  for (int i = 0; i < requests; ++i) {
    arrive_at += SimTime(rng.NextExponential(1.0 / gap_us));
    const SimDuration work =
        SimDuration(1 + rng.NextExponential(1.0 / service_us));
    sim.ScheduleAt(arrive_at, [&, work, arrive_at] {
      const SimTime start = std::max(sim.Now(), busy_until);
      busy_until = start + work;
      obs::TraceContext span =
          tracer.StartSpanAt("serve", "svc", {}, arrive_at);
      tracer.EndSpanAt(span, busy_until);
      done.Inc();
      lat.Observe(double(busy_until - arrive_at));
    });
  }
  out.events = sim.Run();
  const std::string text = reg.ExportText() + tracer.ExportText();
  out.digest = Fnv1a64(text);
  out.summary = bench::Fmt("p99=%.0fus", lat.Quantile(0.99)) +
                bench::Fmt(" n=%.0f", double(done.value()));
  return out;
}

// ------------------------------------------------------------ experiment

void RunExperiment() {
  const bool small = Small();
  const int chains = small ? 256 : 1024;
  const long target = small ? 200000 : 2000000;

  // E24a + E24b: seed kernel vs E24 kernel.
  // One throwaway run of each warms code and allocator arenas.
  DriveKernel<SeedSimulation>(chains, target / 10);
  DriveKernel<sim::Simulation>(chains, target / 10);
  KernelResult seed = DriveKernel<SeedSimulation>(chains, target);
  KernelResult e24 = DriveKernel<sim::Simulation>(chains, target);
  const double speedup =
      seed.events_per_sec > 0 ? e24.events_per_sec / seed.events_per_sec : 0;

  bench::Table kernel({"kernel", "events", "events/sec", "ns/event",
                       "steady allocs/event", "checksum"});
  auto kernel_row = [&](const char* name, const KernelResult& r) {
    kernel.AddRow({name, bench::FmtInt(int64_t(r.events)),
                   bench::Fmt("%.0f", r.events_per_sec),
                   bench::Fmt("%.1f", r.ns_per_event),
                   bench::FmtInt(int64_t(r.steady_allocs)) + " (" +
                       bench::Fmt("%.3f", r.steady_allocs_per_event) + "/ev)",
                   bench::Fmt("%.0f", double(r.checksum % 1000000007))});
  };
  kernel_row("seed (priority_queue + std::function + lazy cancel)", seed);
  kernel_row("e24 (slab + 4-ary indexed heap + inline callbacks)", e24);
  kernel.Print("E24a: event-loop throughput, faas-shaped schedule/cancel "
               "workload (" +
               std::to_string(chains) + " chains)");

  // The workloads must have computed the same thing.
  const bool same_checksum = seed.checksum == e24.checksum &&
                             seed.events == e24.events;
  const bool zero_alloc = e24.steady_allocs == 0;

  bench::JsonReport::Instance().Note(
      "events_per_sec", bench::Fmt("%.0f", e24.events_per_sec));
  bench::JsonReport::Instance().Note("ns_per_event",
                                     bench::Fmt("%.1f", e24.ns_per_event));
  bench::JsonReport::Instance().Note("kernel_speedup",
                                     bench::Fmt("%.2fx", speedup));

  // E24c: telemetry fast path.
  TelemetryResult tel = MeasureTelemetry(small ? 300000 : 3000000);
  bench::Table telem({"operation", "ns/op", "allocs/op"});
  telem.AddRow({"Counter record, map lookup per record (pre-E24 slow path)",
                bench::Fmt("%.1f", tel.ns_lookup_inc), "-"});
  telem.AddRow({"Counter record, pre-resolved handle",
                bench::Fmt("%.1f", tel.ns_handle_inc), "-"});
  telem.AddRow({"Histogram observe, pre-resolved handle",
                bench::Fmt("%.1f", tel.ns_handle_observe), "-"});
  telem.AddRow({"StartSpan+EndSpan, kStream, interned names",
                bench::Fmt("%.1f", tel.ns_span_stream),
                bench::Fmt("%.3f", tel.span_allocs_per_op)});
  const long slo_ops = small ? 50000 : 500000;
  const double slo_1k_ns = MeasureSloRecord(1000, slo_ops);
  const double slo_100k_ns = MeasureSloRecord(100000, slo_ops);
  const double slo_growth = slo_1k_ns > 0 ? slo_100k_ns / slo_1k_ns : 0;
  telem.AddRow({"SloEngine::Record, 1 s/100 ms page policy, ~1k events in "
                "window",
                bench::Fmt("%.1f", slo_1k_ns), "-"});
  telem.AddRow({"SloEngine::Record, 1 s/100 ms page policy, ~100k events "
                "in window",
                bench::Fmt("%.1f", slo_100k_ns), "-"});
  const long stream_traces = small ? 100000 : 1000000;
  const TraceStreamResult stream =
      MeasureTraceStream(stream_traces, /*head_rate=*/0,
                         obs::SamplerConfig{}.max_retained_spans);
  telem.AddRow({"2-span invoke trace through EnableScale (stream, head "
                "rate 0, flame + SLO), per trace",
                bench::Fmt("%.1f", stream.ns_per_trace),
                bench::Fmt("%.3f", stream.allocs_per_trace)});
  constexpr size_t kChurnSpans = 256;
  const TraceStreamResult churn =
      MeasureTraceStream(stream_traces, /*head_rate=*/1, kChurnSpans);
  telem.AddRow({"same trace at head rate 1 into a " +
                    std::to_string(kChurnSpans) +
                    "-span retained store (every retain evicts), per "
                    "retained trace; store holds " +
                    bench::Fmt("%.0f", churn.store_bytes_per_span) +
                    " B per retained span",
                bench::Fmt("%.1f", churn.ns_per_trace),
                bench::Fmt("%.3f", churn.allocs_per_trace)});
  telem.Print("E24c: telemetry record-path cost");
  bench::JsonReport::Instance().Note(
      "span_allocs_per_op", bench::Fmt("%.3f", tel.span_allocs_per_op));
  bench::JsonReport::Instance().Note(
      "trace_allocs_per_trace", bench::Fmt("%.3f", stream.allocs_per_trace));
  bench::JsonReport::Instance().Note(
      "retained_allocs_per_trace",
      bench::Fmt("%.3f", churn.allocs_per_trace));
  bench::JsonReport::Instance().Note(
      "retained_store_bytes_per_span",
      bench::Fmt("%.0f", churn.store_bytes_per_span));
  bench::JsonReport::Instance().Note(
      "handle_vs_lookup",
      bench::Fmt("%.1fx", tel.ns_handle_inc > 0
                              ? tel.ns_lookup_inc / tel.ns_handle_inc
                              : 0));
  bench::JsonReport::Instance().Note("slo_record_growth",
                                     bench::Fmt("%.2fx", slo_growth));

  // E24d: deterministic parallel sweep (the E20/E23 grid shape).
  std::vector<SweepCell> grid;
  for (uint64_t seed_v : {11ull, 12ull, 13ull, 14ull}) {
    for (double load : {0.5, 0.9, 1.2}) grid.push_back({seed_v, load});
  }
  const int requests = small ? 2000 : 20000;
  auto run_cell = [&](int i) { return RunSweepCell(grid[i], requests); };

  const auto s0 = std::chrono::steady_clock::now();
  std::vector<SweepRun> serial =
      bench::RunSweep(int(grid.size()), run_cell, 1);
  const auto s1 = std::chrono::steady_clock::now();
  std::vector<SweepRun> parallel =
      bench::RunSweep(int(grid.size()), run_cell, 4);
  const auto s2 = std::chrono::steady_clock::now();

  bool sweep_same = serial.size() == parallel.size();
  for (size_t i = 0; sweep_same && i < serial.size(); ++i) {
    sweep_same = serial[i].digest == parallel[i].digest &&
                 serial[i].events == parallel[i].events &&
                 serial[i].summary == parallel[i].summary;
  }
  bench::Table sweep({"seed", "load", "events", "digest", "summary"});
  auto hex16 = [](uint64_t v) {
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return std::string(buf);
  };
  for (size_t i = 0; i < grid.size(); ++i) {
    sweep.AddRow({bench::FmtInt(int64_t(grid[i].seed)),
                  bench::Fmt("%.1f", grid[i].load),
                  bench::FmtInt(int64_t(serial[i].events)),
                  hex16(serial[i].digest), serial[i].summary});
  }
  sweep.Print("E24d: seed/load sweep, merged in index order (1 thread == 4 "
              "threads: " +
              std::string(sweep_same ? "identical" : "DIVERGED") + ")");
  bench::JsonReport::Instance().Note(
      "sweep_wall_1t",
      bench::Fmt("%.3fs", std::chrono::duration<double>(s1 - s0).count()));
  bench::JsonReport::Instance().Note(
      "sweep_wall_4t",
      bench::Fmt("%.3fs", std::chrono::duration<double>(s2 - s1).count()));

  // Rerun determinism across the whole cell (kernel + metrics + tracer).
  const SweepRun again = RunSweepCell(grid[0], requests);
  const bool rerun_same = again.digest == serial[0].digest;

  const bool slo_flat = slo_growth > 0 && slo_growth <= 3.0;
  const bool trace_lean = stream.allocs_per_trace <= 0.01;
  const bool churn_lean = churn.allocs_per_trace <= 0.01;
  const bool pass = speedup >= 5.0 && same_checksum && zero_alloc &&
                    slo_flat && trace_lean && churn_lean && sweep_same &&
                    rerun_same;
  bench::JsonReport::Instance().Note(
      "acceptance",
      std::string(pass ? "PASS" : "FAIL") +
          bench::Fmt(" speedup=%.2fx(>=5x)", speedup) +
          bench::Fmt(" allocs_per_event=%.3f(=0)",
                     e24.steady_allocs_per_event) +
          bench::Fmt(" slo_record_growth=%.2fx(<=3x)", slo_growth) +
          bench::Fmt(" trace_allocs=%.3f(<=0.01)", stream.allocs_per_trace) +
          bench::Fmt(" retained_allocs=%.3f(<=0.01)", churn.allocs_per_trace) +
          std::string(same_checksum ? " checksum=same" : " checksum=DIFF") +
          std::string(sweep_same ? " sweep=deterministic"
                                 : " sweep=DIVERGED") +
          std::string(rerun_same ? " rerun=identical" : " rerun=DIFF"));
  bench::JsonReport::Instance().Note("determinism",
                                     sweep_same && rerun_same ? "yes"
                                                              : "BROKEN");
  std::printf("\nE24 acceptance: %s (speedup %.2fx, %.3f allocs/event, "
              "SLO record growth %.2fx, %.3f allocs/trace, %.3f allocs/"
              "retained trace, sweep %s)\n",
              pass ? "PASS" : "FAIL", speedup, e24.steady_allocs_per_event,
              slo_growth, stream.allocs_per_trace, churn.allocs_per_trace,
              sweep_same ? "deterministic" : "DIVERGED");
}

// --------------------------------------------------------- microbenchmarks

void BM_ScheduleFire_Seed(benchmark::State& state) {
  for (auto _ : state) {
    SeedSimulation sim;
    for (int i = 0; i < 64; ++i) {
      sim.Schedule(i, [] {});
    }
    benchmark::DoNotOptimize(sim.Run());
  }
}
BENCHMARK(BM_ScheduleFire_Seed);

void BM_ScheduleFire_E24(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulation sim;
    for (int i = 0; i < 64; ++i) {
      sim.Schedule(i, [] {});
    }
    benchmark::DoNotOptimize(sim.Run());
  }
}
BENCHMARK(BM_ScheduleFire_E24);

void BM_ScheduleCancel_E24(benchmark::State& state) {
  sim::Simulation sim;
  for (auto _ : state) {
    sim::EventId id = sim.Schedule(1000, [] {});
    benchmark::DoNotOptimize(sim.Cancel(id));
  }
}
BENCHMARK(BM_ScheduleCancel_E24);

void BM_CounterHandleInc(benchmark::State& state) {
  obs::Registry reg;
  obs::CounterHandle h = reg.ResolveCounter("bench.ops");
  for (auto _ : state) h.Inc();
}
BENCHMARK(BM_CounterHandleInc);

void BM_CounterMapLookupInc(benchmark::State& state) {
  obs::Registry reg;
  const std::string name = "bench.ops";
  for (auto _ : state) reg.GetCounter(name)->Inc();
}
BENCHMARK(BM_CounterMapLookupInc);

void BM_StreamSpanInterned(benchmark::State& state) {
  struct NullSink : obs::SpanSink {
    void OnSpanStart(const obs::Span&) override {}
    void OnSpanEnd(const obs::Span&) override {}
  } sink;
  sim::Simulation sim;
  obs::Tracer tracer(&sim);
  tracer.SetStoreMode(obs::Tracer::StoreMode::kStream);
  tracer.SetSink(&sink);
  for (auto _ : state) {
    tracer.EndSpan(tracer.StartSpan("invoke", "faas", {}));
  }
}
BENCHMARK(BM_StreamSpanInterned);

}  // namespace
}  // namespace taureau

TAUREAU_BENCH_MAIN(taureau::RunExperiment)
