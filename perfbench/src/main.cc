// perfbench: host cost of simulating whole worlds, end to end and per layer.
//
//   perfbench --workload overload|reuse_zipf|diurnal_day [--seed N]
//             [--seconds S] [--trace 0|1] [--trace-dir DIR]
//
// --trace 0 measures the end-to-end metrics with no instrumentation.
// --trace 1 is the separate traced run that prints the per-layer metrics.
// Either way the last line of stdout is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// Every run checks the simulated outcome (exactly-once terminal states, a
// drained world, a digest that repeats across repetitions, traced and
// untraced runs and thread counts) and counts every request as failed when
// a check fails. See README.md for what each metric means.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/stats.h"
#include "diurnal.h"
#include "golden.h"
#include "outcome.h"
#include "reference.h"
#include "span_trace.h"
#include "workloads.h"

#ifndef __OPTIMIZE__
#error "perfbench must be built with optimization (CMAKE_BUILD_TYPE=Release)"
#endif

namespace perfbench {
namespace {

constexpr int kMinReps = 3;
/// Set-up takes well under a millisecond on overload and diurnal_day, so a
/// single sample is mostly host jitter: after each timed repetition the run
/// sets up this many more worlds, so set-up is sampled across the whole run,
/// and reports the median.
constexpr int kSetupsPerRep = 8;
constexpr int kStackInvokes = 40000;
constexpr int kStackRepeats = 3;
constexpr unsigned kDiurnalThreads = 4;

// --------------------------------------------------------------- output

std::string Num(double v) {
  if (!(v == v) || v > 1e300 || v < -1e300) return "0";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Quote(std::string_view s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

/// Ordered JSON object builder (numbers, strings, nested objects).
class JsonObject {
 public:
  JsonObject& Add(std::string_view key, double v) {
    return Raw(key, Num(v));
  }
  JsonObject& Add(std::string_view key, std::string_view v) {
    return Raw(key, Quote(v));
  }
  JsonObject& Add(std::string_view key, const JsonObject& v) {
    return Raw(key, v.str());
  }
  JsonObject& Raw(std::string_view key, const std::string& json) {
    body_ += (body_.empty() ? "" : ", ") + Quote(key) + ": " + json;
    return *this;
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double Ratio(double a, double b) { return b != 0 ? a / b : 0; }

/// High-water resident memory of this process image, in MiB, or -1 when
/// /proc/self/status cannot be read. VmHWM, not getrusage's ru_maxrss: the
/// kernel carries ru_maxrss across exec, so it would report the launching
/// interpreter's peak when that was larger.
double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return -1;
  char line[256];
  long kib = -1;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) break;
  }
  std::fclose(f);
  return kib >= 0 ? double(kib) / 1024.0 : -1;
}

double SecondsSince(int64_t start_ns) { return double(NowNs() - start_ns) / 1e9; }

// ---------------------------------------------------------------- reps

/// One repetition: set-up, the timed phase, then the (untimed) checks.
struct Rep {
  double setup_s = 0;
  double timed_s = 0;
  uint64_t timed_allocs = 0;
  double peak_rss_mb = 0;  ///< Process high-water mark when the rep ended.
  Outcome outcome;
  InvokeLayerStats layers;
  uint64_t epochs = 0;
  std::vector<int64_t> shard_callback_ns;

  double requests_per_s() const {
    return Ratio(double(outcome.terminal), timed_s);
  }
};

template <typename World, typename Make, typename After>
Rep RunRep(Make make, After after) {
  Rep rep;
  const int64_t t0 = NowNs();
  std::unique_ptr<World> world = make();
  const int64_t t1 = NowNs();
  const uint64_t a0 = ThreadAllocs();
  world->Run();
  const int64_t t2 = NowNs();
  rep.timed_allocs = ThreadAllocs() - a0;
  rep.setup_s = double(t1 - t0) / 1e9;
  rep.timed_s = double(t2 - t1) / 1e9;
  rep.outcome = world->Finish();
  rep.peak_rss_mb = PeakRssMb();
  after(*world, &rep);
  return rep;
}

struct Workload {
  std::string name;
  bool diurnal = false;
  /// Whether host times are counted in reference seconds. The invoke
  /// workloads slow down with the reference work when other tenants load
  /// the host's memory; diurnal_day's per-shard state stays in cache and
  /// does not, so scaling it would only add the reference's own noise.
  bool in_reference_seconds = false;
  const InvokeShape* invoke = nullptr;
  const DiurnalShape* day = nullptr;
};

/// Runs one repetition of `w`. `trace` (invoke workloads) or
/// `time_callbacks` (diurnal_day) make it a traced repetition.
Rep RunOne(const Workload& w, uint64_t seed, unsigned threads,
           SpanTrace* trace, bool time_callbacks) {
  if (w.diurnal) {
    return RunRep<DiurnalWorld>(
        [&] {
          return std::make_unique<DiurnalWorld>(*w.day, seed, threads,
                                                time_callbacks);
        },
        [](DiurnalWorld& world, Rep* rep) {
          rep->epochs = world.epochs();
          rep->shard_callback_ns = world.CallbackNsPerShard();
        });
  }
  return RunRep<InvokeWorld>(
      [&] {
        return std::make_unique<InvokeWorld>(*w.invoke, seed,
                                             InvokeOptions{trace, 0});
      },
      [](InvokeWorld& world, Rep* rep) { rep->layers = world.LayerStats(); });
}

/// Set-up only: builds the world and tears it down unrun.
double SetupOnce(const Workload& w, uint64_t seed, unsigned threads) {
  const int64_t t0 = NowNs();
  double s = 0;
  if (w.diurnal) {
    DiurnalWorld world(*w.day, seed, threads, false);
    s = SecondsSince(t0);
  } else {
    InvokeWorld world(*w.invoke, seed);
    s = SecondsSince(t0);
  }
  return s;
}

/// Repetitions until `seconds` have passed (at least `min_reps`). Only the
/// first keeps its latency distribution, so memory does not grow with run
/// length.
std::vector<Rep> RunFor(const Workload& w, uint64_t seed, unsigned threads,
                        double seconds, int min_reps) {
  std::vector<Rep> reps;
  const int64_t start = NowNs();
  while (int(reps.size()) < min_reps || SecondsSince(start) < seconds) {
    reps.push_back(RunOne(w, seed, threads, nullptr, false));
    if (reps.size() > 1) reps.back().outcome.ok_latency_us = LatencyCounts();
  }
  return reps;
}

/// What the untraced measurement collects.
struct Measured {
  std::vector<Rep> reps;           ///< The warm-up first.
  std::vector<double> rates;       ///< Requests per second, timed reps.
  std::vector<double> setups;      ///< Set-up seconds.
  std::vector<double> host_rates;  ///< Requests per host second.
  std::vector<double> passes;      ///< Reference pass host seconds.
};

/// The untraced measurement. The first repetition warms the heap up and is
/// the only one that keeps its latency distribution and whose high-water
/// memory is read. Every later one is followed by kSetupsPerRep set-ups
/// alone and a pass of the reference work; it is timed in reference seconds
/// (host seconds × kReferencePassSeconds ÷ the mean of the passes before
/// and after it) when the workload counts them, else in host seconds.
Measured Measure(const Workload& w, uint64_t seed, unsigned threads,
                 double seconds) {
  Measured m;
  const int64_t start = NowNs();
  m.reps.push_back(RunOne(w, seed, threads, nullptr, false));
  double before = ReferencePassSeconds();
  while (int(m.reps.size()) < kMinReps || SecondsSince(start) < seconds) {
    Rep rep = RunOne(w, seed, threads, nullptr, false);
    rep.outcome.ok_latency_us = LatencyCounts();
    double setups[kSetupsPerRep];
    for (double& s : setups) s = SetupOnce(w, seed, threads);
    const double after = ReferencePassSeconds();
    const double scale = w.in_reference_seconds
                             ? kReferencePassSeconds / ((before + after) / 2)
                             : 1;
    m.rates.push_back(rep.requests_per_s() / scale);
    m.setups.push_back(rep.setup_s * scale);
    for (double s : setups) m.setups.push_back(s * scale);
    m.host_rates.push_back(rep.requests_per_s());
    m.passes.push_back(after);
    before = after;
    m.reps.push_back(std::move(rep));
  }
  return m;
}

// ------------------------------------------------------------- checking

struct Verdict {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> problems;

  void Fail(std::string why) {
    correct = false;
    problems.push_back(std::move(why));
  }
};

/// Every repetition must pass its own checks and reproduce `reference`.
void Check(const std::vector<Rep>& reps, uint64_t reference,
           const std::string& label, Verdict* v) {
  for (size_t i = 0; i < reps.size(); ++i) {
    const Outcome& o = reps[i].outcome;
    v->attempted += o.offered;
    v->failed += o.failed();
    for (const std::string& p : o.violations) {
      v->Fail(label + " rep " + std::to_string(i) + ": " + p);
    }
    if (o.digest != reference) {
      char buf[96];
      std::snprintf(buf, sizeof(buf), " rep %zu: digest %016llx != %016llx",
                    i, (unsigned long long)o.digest,
                    (unsigned long long)reference);
      v->Fail(label + buf);
    }
  }
}

void CheckGolden(const Workload& w, uint64_t seed, uint64_t digest,
                 Verdict* v) {
  if (seed != kDefaultSeed) return;
  for (const GoldenDigest& g : kGoldenDigests) {
    if (g.workload == w.name && g.digest != digest) {
      char buf[96];
      std::snprintf(buf, sizeof(buf),
                    "default-seed digest %016llx != recorded %016llx",
                    (unsigned long long)digest,
                    (unsigned long long)g.digest);
      v->Fail(buf);
    }
  }
}

// ------------------------------------------------------------ provenance

JsonObject ShapeJson(const Workload& w, unsigned threads) {
  JsonObject s;
  if (w.diurnal) {
    const DiurnalShape& d = *w.day;
    s.Add("cells", d.cells)
        .Add("day_s", double(d.day_us) / 1e6)
        .Add("base_rate_per_s", d.base_rate)
        .Add("amplitude", d.amplitude)
        .Add("remote_share", d.remote_share)
        .Add("lookahead_us", double(d.lookahead_us))
        .Add("psim_threads", threads);
    return s;
  }
  const InvokeShape& i = *w.invoke;
  s.Add("functions", kFunctions)
      .Add("tenants", kTenants)
      .Add("prewarmed_containers", kFunctions * kContainersPerFunction)
      .Add("exec_ms", double(kExecUs) / 1e3)
      .Add("capacity_per_s", FleetCapacityPerSec())
      .Add("horizon_s", double(i.horizon_us) / 1e6)
      .Add("burst_start_s", double(i.burst_start_us) / 1e6)
      .Add("burst_s", double(i.burst_us) / 1e6)
      .Add("base_load", i.base_load)
      .Add("burst_load", i.burst_load)
      .Add("zipf_keys", double(i.zipf_keys))
      .Add("zipf_theta", i.zipf_theta);
  return s;
}

void PrintProvenance(const Workload& w, uint64_t seed, double seconds,
                     int trace, unsigned threads) {
  JsonObject p;
  p.Add("workload", w.name)
      .Add("seed", double(seed))
      .Add("default_seed", double(kDefaultSeed))
      .Add("holdout_seed", double(kHoldoutSeed))
      .Add("seconds", seconds)
      .Add("trace", trace)
      .Add("nproc", std::thread::hardware_concurrency())
      .Add("worker_threads", threads)
      .Add("build_type", PERFBENCH_BUILD_TYPE)
      .Add("optimized", "yes")
      .Add("compiler", PERFBENCH_COMPILER)
      .Add("shape", ShapeJson(w, threads));
  std::printf("%s\n", JsonObject().Add("provenance", p).str().c_str());
}

void PrintResult(const Verdict& v, const std::vector<Metric>& metrics) {
  for (const std::string& p : v.problems) {
    std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", p.c_str());
  }
  JsonObject m;
  for (const Metric& x : metrics) {
    m.Add(x.name, JsonObject().Add("value", x.value).Add("unit", x.unit));
  }
  JsonObject out;
  out.Raw("correct", v.correct ? "true" : "false")
      .Add("attempted", double(v.attempted))
      .Add("failed", double(v.correct ? v.failed : v.attempted))
      .Add("metrics", m);
  std::printf("%s\n", out.str().c_str());
  std::fflush(stdout);
}

// ------------------------------------------------------------ untraced

int RunUntraced(const Workload& w, uint64_t seed, double seconds,
                unsigned threads) {
  const Measured measured = Measure(w, seed, threads, seconds);
  const std::vector<Rep>& reps = measured.reps;

  Verdict v;
  const Outcome& first = reps.front().outcome;
  Check(reps, first.digest, "untraced", &v);
  CheckGolden(w, seed, first.digest, &v);
  if (reps.front().peak_rss_mb < 0) {
    v.Fail("cannot read VmHWM from /proc/self/status");
  }

  const double p50_ms = first.ok_latency_us.Quantile(0.50) / 1e3;
  const double p999_ms = first.ok_latency_us.Quantile(0.999) / 1e3;
  char digest[24];
  std::snprintf(digest, sizeof(digest), "%016llx",
                (unsigned long long)first.digest);
  JsonObject detail;
  detail.Add("reps", double(reps.size()))
      .Add("timed_reps", double(measured.rates.size()))
      .Add("setup_samples", double(measured.setups.size()))
      .Add("offered_per_rep", double(first.offered))
      .Add("ok_samples", double(first.ok))
      .Add("samples_beyond_p999", double(first.ok) * 0.001)
      .Add("events_per_rep", double(first.events))
      .Add("in_reference_seconds", w.in_reference_seconds ? "yes" : "no")
      .Add("reference_pass_s", Median(measured.passes))
      .Add("requests_per_host_s", Median(measured.host_rates))
      .Add("digest", digest);
  std::printf("%s\n", JsonObject().Add("detail", detail).str().c_str());

  PrintResult(
      v, {{"setup_s", Median(measured.setups), "s"},
          {"requests_per_s", Median(measured.rates), "req/s"},
          // After the warm-up repetition: later ones add only allocator
          // fragmentation, and how many run depends on the host's speed.
          {"peak_rss_mb", reps.front().peak_rss_mb, "MB"},
          {"sim_p50_ms", p50_ms, "ms"},
          {"sim_p999_ms", p999_ms, "ms"},
          {"sim_cost_per_1k_usd",
           Ratio(first.cost_usd * 1000.0, double(first.offered)), "USD"}});
  return 0;
}

// -------------------------------------------------------------- traced

/// Every per-layer metric besides the stack.* rows, in print order. Each
/// traced run prints all of them, and the stack.* rows: 0 where the
/// workload does not run the layer (psim on the invoke workloads; faas and
/// above, and the stack.* rows, on diurnal_day).
constexpr std::pair<std::string_view, std::string_view> kLayerCatalog[] = {
    {"sim.events_per_request", "count"}, {"sim.ns_per_event", "ns"},
    {"psim.epochs", "count"}, {"psim.events_per_epoch", "count"},
    {"psim.ns_per_epoch", "ns"}, {"psim.callback_share", "ratio"},
    {"psim.shard_imbalance", "ratio"}, {"psim.speedup", "x"},
    {"faas.invoke_ns.p50", "ns"}, {"faas.invoke_ns.p99", "ns"},
    {"faas.invoke_ns.n", "count"}, {"faas.invoke_allocs", "count"},
    {"faas.loop_self_ns_per_request", "ns"},
    {"faas.allocs_per_request", "count"},
    {"faas.attempts_per_request", "count"},
    {"faas.cold_start_share", "ratio"},
    {"fn.handler_ns_per_request", "ns"}, {"fn.handler_ns.p50", "ns"},
    {"fn.handler_ns.p99", "ns"}, {"fn.handler_ns.n", "count"},
    {"obs.sink_ns_per_request", "ns"}, {"obs.sink_ns.p50", "ns"},
    {"obs.sink_ns.p99", "ns"}, {"obs.sink_ns.n", "count"},
    {"obs.sink_allocs_per_request", "count"},
    {"obs.spans_per_request", "count"},
    {"obs.retained_trace_share", "ratio"}, {"obs.retained_mb", "MB"},
    {"obs.export_ms", "ms"}, {"guard.shed_share", "ratio"},
    {"guard.deadline_exceeded", "count"},
    {"guard.retries_granted", "count"}, {"guard.retries_denied", "count"},
    {"reuse.hit_share", "ratio"}, {"reuse.coalesced_share", "ratio"},
    {"reuse.cache_admitted", "count"}, {"reuse.cache_rejected", "count"},
    {"reuse.cache_evictions", "count"}, {"chaos.faults_injected", "count"},
    {"chaos.recoveries", "count"}, {"ctrl.pushes_applied", "count"},
    {"bench.callback_ns_per_request", "ns"},
    {"bench.callback_ns.p50", "ns"}, {"bench.callback_ns.p99", "ns"},
    {"bench.callback_ns.n", "count"},
    {"bench.trace_overhead_share", "ratio"},
};

/// Per-layer metric samples, one per traced repetition where the metric
/// varies between them; each is reported as the median of its samples.
class LayerMetrics {
 public:
  void Set(const std::string& name, double v, const std::string& unit) {
    if (!samples_.count(name)) order_.push_back(name);
    samples_[name].push_back(v);
    units_[name] = unit;
  }

  /// The catalog in order (0 for metrics never set), then every other
  /// metric set, in the order first set.
  std::vector<Metric> Medians() const {
    std::vector<Metric> out;
    std::set<std::string> listed;
    for (const auto& [name, unit] : kLayerCatalog) {
      const std::string n(name);
      const auto it = samples_.find(n);
      out.push_back({n, it == samples_.end() ? 0 : Median(it->second),
                     std::string(unit)});
      listed.insert(n);
    }
    for (const std::string& n : order_) {
      if (!listed.count(n)) {
        out.push_back({n, Median(samples_.at(n)), units_.at(n)});
      }
    }
    return out;
  }

 private:
  std::vector<std::string> order_;
  std::map<std::string, std::vector<double>> samples_;
  std::map<std::string, std::string> units_;
};

/// The per-layer numbers of one traced invoke repetition.
void InvokeLayerSample(const Rep& rep, const SpanTrace& trace,
                       LayerMetrics* m) {
  const double requests = double(rep.outcome.offered);
  const KindSummary invoke = Summarize(trace.spans(), SpanKind::kInvoke);
  const KindSummary handler = Summarize(trace.spans(), SpanKind::kHandler);
  const KindSummary callback = Summarize(trace.spans(), SpanKind::kCallback);
  const KindSummary arrival = Summarize(trace.spans(), SpanKind::kArrival);
  const KindSummary run = Summarize(trace.spans(), SpanKind::kRun);
  const KindSummary exported = Summarize(trace.spans(), SpanKind::kExport);
  const InvokeLayerStats& s = rep.layers;

  m->Set("faas.invoke_ns.p50", invoke.p50_ns, "ns");
  m->Set("faas.invoke_ns.p99", invoke.p99_ns, "ns");
  m->Set("faas.invoke_ns.n", double(invoke.n), "count");
  m->Set("faas.invoke_allocs", Ratio(double(invoke.allocs), invoke.n), "count");
  m->Set("faas.loop_self_ns_per_request", Ratio(run.self_ns, requests), "ns");

  m->Set("fn.handler_ns_per_request", Ratio(handler.total_ns, requests), "ns");
  m->Set("fn.handler_ns.p50", handler.p50_ns, "ns");
  m->Set("fn.handler_ns.p99", handler.p99_ns, "ns");
  m->Set("fn.handler_ns.n", double(handler.n), "count");

  // Sink calls are summed per request (index 0 holds calls outside any
  // request, such as fault and config spans).
  std::vector<double> per_request(trace.sink_ns_by_request().begin() + 1,
                                  trace.sink_ns_by_request().begin() + 1 +
                                      int64_t(rep.outcome.offered));
  uint64_t sink_allocs = 0;
  for (uint64_t a : trace.sink_allocs_by_request()) sink_allocs += a;
  m->Set("obs.sink_ns_per_request", Ratio(trace.sink_ns_total(), requests),
         "ns");
  m->Set("obs.sink_ns.n", double(per_request.size()), "count");
  m->Set("obs.sink_ns.p50", taureau::ExactQuantile(per_request, 0.50), "ns");
  m->Set("obs.sink_ns.p99",
         taureau::ExactQuantile(std::move(per_request), 0.99), "ns");
  m->Set("obs.sink_allocs_per_request", Ratio(sink_allocs, requests), "count");
  m->Set("obs.export_ms", double(exported.total_ns) / 1e6, "ms");

  m->Set("bench.callback_ns_per_request",
         Ratio(callback.self_ns + arrival.self_ns, requests), "ns");
  m->Set("bench.callback_ns.p50", callback.p50_ns, "ns");
  m->Set("bench.callback_ns.p99", callback.p99_ns, "ns");
  m->Set("bench.callback_ns.n", double(callback.n), "count");

  // Modelled counts, identical in every repetition of a seed.
  m->Set("faas.attempts_per_request", Ratio(s.attempts, requests), "count");
  m->Set("faas.cold_start_share", Ratio(s.cold_starts, s.attempts), "ratio");
  m->Set("obs.spans_per_request", Ratio(s.spans_emitted, requests), "count");
  m->Set("obs.retained_trace_share",
         Ratio(s.traces_retained, s.traces_finalized), "ratio");
  m->Set("obs.retained_mb", double(s.retained_bytes) / (1 << 20), "MB");
  m->Set("guard.shed_share", Ratio(s.shed, requests), "ratio");
  m->Set("guard.deadline_exceeded", double(s.deadline_exceeded), "count");
  m->Set("guard.retries_granted", double(s.retries_granted), "count");
  m->Set("guard.retries_denied", double(s.retries_denied), "count");
  m->Set("reuse.hit_share", Ratio(s.reuse_hits, s.reuse_lookups), "ratio");
  m->Set("reuse.coalesced_share", Ratio(s.reuse_coalesced, s.reuse_lookups),
         "ratio");
  m->Set("reuse.cache_admitted", double(s.cache_admitted), "count");
  m->Set("reuse.cache_rejected", double(s.cache_rejected), "count");
  m->Set("reuse.cache_evictions", double(s.cache_evictions), "count");
  m->Set("chaos.faults_injected", double(s.faults_injected), "count");
  m->Set("chaos.recoveries", double(s.recoveries), "count");
  m->Set("ctrl.pushes_applied", double(s.pushes_applied), "count");
}

std::vector<double> TimedSeconds(const std::vector<Rep>& reps) {
  std::vector<double> out;
  for (const Rep& r : reps) out.push_back(r.timed_s);
  return out;
}

std::vector<double> RequestRates(const std::vector<Rep>& reps) {
  std::vector<double> out;
  for (const Rep& r : reps) out.push_back(r.requests_per_s());
  return out;
}

int RunTraced(const Workload& w, uint64_t seed, double seconds,
              unsigned threads, const std::string& trace_dir) {
  LayerMetrics m;
  Verdict v;

  // Untraced repetitions: the baseline the trace overhead is measured
  // against, and the source of every per-event host time.
  const std::vector<Rep> plain = RunFor(w, seed, threads, seconds / 3, 2);
  const uint64_t reference = plain.front().outcome.digest;
  Check(plain, reference, "untraced", &v);
  CheckGolden(w, seed, reference, &v);
  const Outcome& first = plain.front().outcome;
  const double plain_timed_s = Median(TimedSeconds(plain));
  const double requests = double(first.offered);
  m.Set("sim.events_per_request", Ratio(first.events, requests), "count");
  m.Set("sim.ns_per_event", Ratio(plain_timed_s * 1e9, first.events), "ns");

  std::vector<Rep> traced;
  const int64_t start = NowNs();
  if (w.diurnal) {
    const double epochs = double(plain.front().epochs);
    m.Set("psim.epochs", epochs, "count");
    m.Set("psim.events_per_epoch", Ratio(first.events, epochs), "count");
    m.Set("psim.ns_per_epoch", Ratio(plain_timed_s * 1e9, epochs), "ns");
    while (traced.empty() || SecondsSince(start) < seconds / 3) {
      traced.push_back(RunOne(w, seed, threads, nullptr, true));
      const Rep& r = traced.back();
      int64_t total = 0;
      int64_t most = 0;
      for (int64_t ns : r.shard_callback_ns) {
        total += ns;
        most = std::max(most, ns);
      }
      const double shards = double(r.shard_callback_ns.size());
      m.Set("psim.callback_share", Ratio(total, r.timed_s * 1e9 * threads),
            "ratio");
      m.Set("psim.shard_imbalance", Ratio(most, total / shards), "ratio");
      m.Set("bench.callback_ns_per_request", Ratio(total, requests), "ns");
    }
    // The same day at one thread: the speedup's base, and the proof that
    // the outcome does not depend on the thread count.
    const std::vector<Rep> serial = RunFor(w, seed, 1, seconds / 3, 1);
    Check(serial, reference, "1-thread", &v);
    m.Set("psim.speedup",
          Ratio(Median(RequestRates(plain)), Median(RequestRates(serial))),
          "x");
  } else {
    m.Set("faas.allocs_per_request",
          Ratio(plain.front().timed_allocs, requests), "count");
    const uint64_t max_requests = InvokeWorld::MaxRequests(*w.invoke);
    std::unique_ptr<SpanTrace> trace;
    while (traced.empty() || SecondsSince(start) < seconds / 3) {
      trace = std::make_unique<SpanTrace>(max_requests * 8, max_requests);
      traced.push_back(RunOne(w, seed, threads, trace.get(), false));
      InvokeLayerSample(traced.back(), *trace, &m);
    }
    if (!trace_dir.empty()) {
      const std::string path = trace_dir + "/" + w.name + ".spans.tsv";
      if (!trace->WriteTsv(path)) {
        std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
      }
    }
  }
  Check(traced, reference, "traced", &v);
  m.Set("bench.trace_overhead_share",
        Ratio(Median(TimedSeconds(traced)), plain_timed_s) - 1, "ratio");

  for (const StackRow& row :
       w.diurnal ? UnmeasuredStackRows()
                 : MeasureStackRows(seed, kStackInvokes, kStackRepeats)) {
    m.Set("stack." + row.name + ".ns_per_invoke", row.ns_per_invoke, "ns");
    m.Set("stack." + row.name + ".allocs_per_invoke", row.allocs_per_invoke,
          "count");
  }

  const std::vector<Metric> metrics = m.Medians();
  for (const Metric& x : metrics) {
    std::fprintf(stderr, "  %-36s %16.4f %s\n", x.name.c_str(), x.value,
                 x.unit.c_str());
  }
  PrintResult(v, metrics);
  return 0;
}

// ------------------------------------------------------------------ cli

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "overload|reuse_zipf|diurnal_day [--seed N] [--seconds S] "
               "[--trace 0|1] [--trace-dir DIR]\n",
               why);
  std::exit(2);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::string workload;
  uint64_t seed = kDefaultSeed;
  double seconds = 10;
  int trace = 0;
  std::string trace_dir;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (i + 1 >= argc) Usage("missing value after a flag");
    const char* val = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      workload = val;
    } else if (arg == "--seed") {
      seed = std::strtoull(val, &end, 10);
      if (*end != '\0') Usage("--seed takes a whole number");
    } else if (arg == "--seconds") {
      seconds = std::strtod(val, &end);
      if (*end != '\0' || !(seconds > 0 && seconds <= 600)) {
        Usage("--seconds takes a number in (0, 600]");
      }
    } else if (arg == "--trace") {
      if (std::string_view(val) != "0" && std::string_view(val) != "1") {
        Usage("--trace takes 0 or 1");
      }
      trace = val[0] - '0';
    } else if (arg == "--trace-dir") {
      trace_dir = val;
    } else {
      Usage("unknown flag");
    }
  }

  Workload w;
  w.name = workload;
  if (workload == "overload") {
    w.invoke = &OverloadShape();
    w.in_reference_seconds = true;
  } else if (workload == "reuse_zipf") {
    w.invoke = &ReuseZipfShape();
    w.in_reference_seconds = true;
  } else if (workload == "diurnal_day") {
    w.diurnal = true;
    w.day = &DiurnalDayShape();
  } else {
    Usage("unknown workload");
  }
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  const unsigned threads = w.diurnal ? std::min(kDiurnalThreads, nproc) : 1;

  PrintProvenance(w, seed, seconds, trace, threads);
  return trace ? RunTraced(w, seed, seconds, threads, trace_dir)
               : RunUntraced(w, seed, seconds, threads);
}
