// The benchmark's own tests, on short ".tiny" shapes that never report a
// measurement:
//   - each generator is a pure function of its seed;
//   - the outcome digest repeats across repetitions, traced and untraced
//     runs and psim thread counts, and changes with the seed;
//   - a traced run records nothing from set-up;
//   - a deliberately broken invariant (a callback delivered twice) fails
//     the check;
//   - the grouped-data latency quantile.
// Run: perfbench_selftest (exit code 0 when every check passes).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "diurnal.h"
#include "outcome.h"
#include "span_trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

int g_failures = 0;

void Expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++g_failures;
}

std::vector<Arrival> InvokeStream(const InvokeShape& shape, uint64_t seed,
                                  int n) {
  InvokeArrivals gen(shape, seed);
  std::vector<Arrival> out;
  Arrival a;
  while (int(out.size()) < n && gen.Next(&a)) out.push_back(a);
  return out;
}

std::vector<DiurnalRequest> DiurnalStream(uint64_t seed, uint32_t cell,
                                          int n) {
  DiurnalArrivals gen(DiurnalDayShape(), seed, cell);
  std::vector<DiurnalRequest> out;
  DiurnalRequest r;
  while (int(out.size()) < n && gen.Next(&r)) out.push_back(r);
  return out;
}

void TestGeneratorsArePure() {
  for (const InvokeShape* shape : {&OverloadShape(), &ReuseZipfShape()}) {
    const auto a = InvokeStream(*shape, 5, 5000);
    const std::string name = shape->name;
    Expect(a.size() == 5000, name + " generator yields 5000 arrivals");
    Expect(a == InvokeStream(*shape, 5, 5000),
           name + " generator repeats for a seed");
    Expect(a != InvokeStream(*shape, 6, 5000),
           name + " generator changes with the seed");
  }
  for (uint32_t cell : {0u, 5u}) {
    const auto a = DiurnalStream(5, cell, 5000);
    const std::string name = "diurnal_day cell " + std::to_string(cell);
    Expect(a.size() == 5000, name + " generator yields 5000 requests");
    Expect(a == DiurnalStream(5, cell, 5000),
           name + " generator repeats for a seed");
    Expect(a != DiurnalStream(6, cell, 5000),
           name + " generator changes with the seed");
  }
}

Outcome RunInvoke(const InvokeShape& shape, uint64_t seed,
                  InvokeOptions options = {}) {
  InvokeWorld world(shape, seed, options);
  world.Run();
  return world.Finish();
}

Outcome RunDay(uint64_t seed, unsigned threads) {
  DiurnalWorld world(DiurnalTinyShape(), seed, threads, threads > 1);
  world.Run();
  return world.Finish();
}

void ExpectClean(const Outcome& o, const std::string& what) {
  std::string why;
  for (const std::string& v : o.violations) why += " [" + v + "]";
  Expect(o.violations.empty() && o.offered > 0 && o.terminal == o.offered,
         what + " passes its checks" + why);
}

void TestDigests() {
  for (const InvokeShape* full : {&OverloadShape(), &ReuseZipfShape()}) {
    const InvokeShape& shape = TinyShape(*full);
    const std::string name = shape.name;
    const Outcome a = RunInvoke(shape, 5);
    ExpectClean(a, name);
    Expect(a.digest == RunInvoke(shape, 5).digest,
           name + " digest repeats across repetitions");
    SpanTrace trace(InvokeWorld::MaxRequests(shape) * 8,
                    InvokeWorld::MaxRequests(shape));
    const Outcome traced = RunInvoke(shape, 5, {&trace, 0});
    ExpectClean(traced, name + " traced");
    Expect(traced.digest == a.digest, name + " traced digest == untraced");
    Expect(!trace.spans().empty() && trace.sink_calls() > 0,
           name + " traced run records spans and sink calls");
    int64_t run_start = 0;
    int64_t first_start = std::numeric_limits<int64_t>::max();
    for (const SpanRecord& s : trace.spans()) {
      if (s.kind == SpanKind::kRun) run_start = s.start_ns;
      first_start = std::min(first_start, s.start_ns);
    }
    Expect(first_start >= run_start,
           name + " traced run records nothing from set-up");
    Expect(RunInvoke(shape, 6).digest != a.digest,
           name + " digest changes with the seed");
  }
  const Outcome serial = RunDay(5, 1);
  ExpectClean(serial, "diurnal_day.tiny");
  Expect(serial.digest == RunDay(5, 1).digest,
         "diurnal_day.tiny digest repeats across repetitions");
  Expect(serial.digest == RunDay(5, 4).digest,
         "diurnal_day.tiny digest identical at 1 and 4 threads");
  Expect(serial.digest != RunDay(6, 1).digest,
         "diurnal_day.tiny digest changes with the seed");
}

void TestBrokenInvariantFails() {
  const InvokeShape& shape = TinyShape(OverloadShape());
  const Outcome o = RunInvoke(shape, 5, {nullptr, /*double_fire=*/3});
  Expect(!o.violations.empty(),
         "a callback delivered twice fails the exactly-once check");
}

void TestLatencyQuantile() {
  LatencyCounts c;
  for (int v = 1; v <= 100; ++v) c.Add(v);
  // Each whole-microsecond value v stands for [v, v + 1).
  Expect(std::abs(c.Quantile(0.5) - 51.0) < 1e-9,
         "grouped quantile of 1..100 at 0.5 is 51");
  LatencyCounts same;
  for (int i = 0; i < 1000; ++i) same.Add(10);
  Expect(std::abs(same.Quantile(0.5) - 10.5) < 1e-9,
         "grouped median of a constant v is v + 0.5");
  LatencyCounts wide;
  wide.Add(5);
  wide.Add(LatencyCounts::kDenseUs + 7);
  Expect(std::abs(wide.Quantile(1.0) - (LatencyCounts::kDenseUs + 8)) < 1e-9,
         "quantiles reach values beyond the dense range");
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::TestGeneratorsArePure();
  perfbench::TestLatencyQuantile();
  perfbench::TestDigests();
  perfbench::TestBrokenInvariantFails();
  std::printf("%d failure(s)\n", perfbench::g_failures);
  return perfbench::g_failures == 0 ? 0 : 1;
}
