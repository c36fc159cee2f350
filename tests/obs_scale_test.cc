// Tests for the production-scale observability layer (E22): the sampling
// pipeline (head + tail retention, bounded store), the flame-profile
// aggregator (exact self-time partition), the SLO burn-rate engine, and
// the Observability::EnableScale wiring.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <deque>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "chaos/fault_plan.h"
#include "chaos/injector.h"
#include "chaos/retry_policy.h"
#include "cluster/cluster.h"
#include "common/rng.h"
#include "faas/platform.h"
#include "obs/critical_path.h"
#include "obs/flame.h"
#include "obs/observability.h"
#include "obs/sampler.h"
#include "obs/slo.h"
#include "obs/trace.h"
#include "sim/simulation.h"

namespace taureau::obs {
namespace {

using taureau::Rng;
using taureau::SimDuration;
using taureau::SimTime;

// ------------------------------------------------------------- helpers

/// Emits one three-span trace (root + exec child [+ optional marker
/// attrs on the root]) through `o.tracer` and returns its trace id.
uint64_t EmitTrace(Observability* o, SimTime start, SimDuration dur,
                   const std::string& outcome = "") {
  auto root = o->tracer.StartSpanAt("req", "svc", {}, start);
  o->tracer.EmitSpan("exec", "svc", root, start, start + dur,
                     {{kCategoryAttr, "exec"}});
  if (!outcome.empty()) o->tracer.SetAttr(root, kOutcomeAttr, outcome);
  o->tracer.EndSpanAt(root, start + dur);
  return root.trace_id;
}

ScaleConfig Config(double head_rate, SimDuration slow_us = -1) {
  ScaleConfig cfg;
  cfg.sampler.head_rate = head_rate;
  cfg.sampler.seed = 7;
  cfg.sampler.slow_threshold_us = slow_us;
  return cfg;
}

/// Small E20-style faulty FaaS world; returns the full export and copies
/// out the sampler stats. Chaos kills force fault/error/slow traces.
std::string RunFaultyWorld(uint64_t seed, double head_rate,
                           SamplingPipeline::Stats* stats_out = nullptr) {
  sim::Simulation sim;
  Observability o(&sim);
  ScaleConfig cfg = Config(head_rate);
  SloObjective latency;
  latency.name = "faas-latency";
  latency.module = "faas";
  latency.target = 0.99;
  latency.latency_budget_us = 50 * kMillisecond;
  cfg.objectives.push_back(std::move(latency));
  EXPECT_TRUE(o.EnableScale(cfg));

  cluster::Cluster cluster(4, {32000, 65536});
  faas::FaasConfig config;
  config.seed = seed;
  config.keep_alive_us = 10 * kMinute;
  config.retry = chaos::RetryPolicy::ExponentialJitter(4);
  faas::FaasPlatform platform(&sim, &cluster, config);
  platform.AttachObservability(&o);

  chaos::InjectorRegistry registry(&sim);
  cluster.AttachChaos(&registry);
  platform.AttachChaos(&registry);
  registry.AttachObservability(&o);
  chaos::FaultPlanConfig plan_cfg;
  plan_cfg.horizon_us = 5 * kSecond;
  plan_cfg.num_machines = 4;
  plan_cfg.container_kill_per_s = 4.0;
  Rng plan_rng(seed + 1);
  registry.Arm(chaos::FaultPlan::Generate(plan_cfg, &plan_rng));

  faas::FunctionSpec spec;
  spec.name = "serve";
  spec.exec = {faas::ExecTimeModel::Kind::kFixed, 15 * kMillisecond, 0, 0};
  spec.init_us = 120 * kMillisecond;
  platform.RegisterFunction(spec);
  for (int i = 0; i < 100; ++i) {
    sim.ScheduleAt(SimTime(i) * 40 * kMillisecond, [&platform] {
      platform.Invoke("serve", "req", [](const faas::InvocationResult&) {});
    });
  }
  sim.Run();
  o.Flush();
  if (stats_out != nullptr) *stats_out = o.pipeline()->stats();
  return o.ExportAll();
}

// ------------------------------------------------------------- sampler

TEST(SamplerTest, HeadDecisionDeterministicAndSeedDependent) {
  SamplerConfig a;
  a.head_rate = 0.3;
  a.seed = 1;
  SamplerConfig b = a;
  SamplerConfig c = a;
  c.seed = 2;
  SamplingPipeline pa(a, nullptr, nullptr);
  SamplingPipeline pb(b, nullptr, nullptr);
  SamplingPipeline pc(c, nullptr, nullptr);
  bool seed_changes_some = false;
  for (uint64_t id = 1; id <= 500; ++id) {
    EXPECT_EQ(pa.HeadKeeps(id), pb.HeadKeeps(id));
    if (pa.HeadKeeps(id) != pc.HeadKeeps(id)) seed_changes_some = true;
  }
  EXPECT_TRUE(seed_changes_some);
}

TEST(SamplerTest, HeadRateZeroAndOneAreAbsolute) {
  SamplerConfig none;
  none.head_rate = 0.0;
  SamplerConfig all;
  all.head_rate = 1.0;
  SamplingPipeline p_none(none, nullptr, nullptr);
  SamplingPipeline p_all(all, nullptr, nullptr);
  for (uint64_t id = 1; id <= 200; ++id) {
    EXPECT_FALSE(p_none.HeadKeeps(id));
    EXPECT_TRUE(p_all.HeadKeeps(id));
  }
}

TEST(SamplerTest, HeadRateApproximatesFraction) {
  SamplerConfig cfg;
  cfg.head_rate = 0.2;
  SamplingPipeline p(cfg, nullptr, nullptr);
  int kept = 0;
  for (uint64_t id = 1; id <= 10000; ++id) {
    if (p.HeadKeeps(id)) ++kept;
  }
  EXPECT_GT(kept, 1700);
  EXPECT_LT(kept, 2300);
}

TEST(SamplerTest, TailKeepsErrorFaultAndSlowAtHeadRateZero) {
  sim::Simulation sim;
  Observability o(&sim);
  ASSERT_TRUE(o.EnableScale(Config(0.0, /*slow_us=*/100)));
  const uint64_t healthy = EmitTrace(&o, 0, 50);
  const uint64_t err = EmitTrace(&o, 100, 50, kOutcomeError);
  const uint64_t fault = EmitTrace(&o, 200, 50, kOutcomeFault);
  const uint64_t slow = EmitTrace(&o, 300, 500);
  const SamplingPipeline* p = o.pipeline();
  EXPECT_EQ(p->DecisionFor(healthy), RetainReason::kDropped);
  EXPECT_EQ(p->DecisionFor(err), RetainReason::kError);
  EXPECT_EQ(p->DecisionFor(fault), RetainReason::kFault);
  EXPECT_EQ(p->DecisionFor(slow), RetainReason::kSlow);
  EXPECT_EQ(p->stats().important_seen, 3u);
  EXPECT_EQ(p->stats().important_retained, 3u);
  EXPECT_EQ(p->stats().traces_dropped, 1u);
}

TEST(SamplerTest, ErrorOutranksFaultOutranksSlow) {
  sim::Simulation sim;
  Observability o(&sim);
  ASSERT_TRUE(o.EnableScale(Config(0.0, /*slow_us=*/100)));
  // Slow AND fault AND error: one marker anywhere decides the reason.
  auto root = o.tracer.StartSpanAt("req", "svc", {}, 0);
  o.tracer.EmitSpan("mark", "svc", root, 0, 1, {{kOutcomeAttr, kOutcomeFault}});
  o.tracer.SetAttr(root, kOutcomeAttr, kOutcomeError);
  o.tracer.EndSpanAt(root, 500);
  EXPECT_EQ(o.pipeline()->DecisionFor(root.trace_id), RetainReason::kError);
}

TEST(SamplerTest, SloBudgetDrivesSlowThreshold) {
  sim::Simulation sim;
  Observability o(&sim);
  ScaleConfig cfg = Config(0.0);  // no global slow threshold
  SloObjective objective;
  objective.name = "svc-latency";
  objective.module = "svc";
  objective.latency_budget_us = 200;
  cfg.objectives.push_back(std::move(objective));
  ASSERT_TRUE(o.EnableScale(cfg));
  const uint64_t fast = EmitTrace(&o, 0, 150);
  const uint64_t slow = EmitTrace(&o, 1000, 300);
  EXPECT_EQ(o.pipeline()->DecisionFor(fast), RetainReason::kDropped);
  EXPECT_EQ(o.pipeline()->DecisionFor(slow), RetainReason::kSlow);
}

TEST(SamplerTest, DroppedTracesStillFoldedIntoFlame) {
  sim::Simulation sim;
  Observability o(&sim);
  ASSERT_TRUE(o.EnableScale(Config(0.0)));
  for (int i = 0; i < 10; ++i) {
    EmitTrace(&o, SimTime(i) * 100, 50);
  }
  EXPECT_EQ(o.pipeline()->stats().traces_retained, 0u);
  EXPECT_EQ(o.pipeline()->retained_span_count(), 0u);
  EXPECT_EQ(o.flame()->folded_traces(), 10u);
  const auto& by_root = o.flame()->by_root();
  ASSERT_TRUE(by_root.count("req"));
  EXPECT_EQ(by_root.at("req").count, 10u);
  EXPECT_EQ(by_root.at("req").breakdown.total_us, 10 * 50);
}

TEST(SamplerTest, BoundedStoreEvictsHealthyBeforeImportant) {
  sim::Simulation sim;
  Observability o(&sim);
  ScaleConfig cfg = Config(1.0, /*slow_us=*/1000);
  cfg.sampler.max_retained_spans = 8;  // four 2-span traces
  ASSERT_TRUE(o.EnableScale(cfg));
  const uint64_t err = EmitTrace(&o, 0, 50, kOutcomeError);
  for (int i = 1; i <= 5; ++i) {
    EmitTrace(&o, SimTime(i) * 100, 50);
  }
  const SamplingPipeline* p = o.pipeline();
  EXPECT_GT(p->stats().evicted_traces, 0u);
  EXPECT_EQ(p->stats().evicted_important, 0u);
  EXPECT_LE(p->retained_span_count(), 8u);
  // The error trace is still in the retained export.
  const std::string text = p->ExportText();
  EXPECT_NE(text.find("trace=" + std::to_string(err) + " reason=error"),
            std::string::npos);
}

TEST(SamplerTest, LateSpanGroupsFollowTraceDecision) {
  sim::Simulation sim;
  Observability o(&sim);
  ASSERT_TRUE(o.EnableScale(Config(0.0)));
  // Retained trace (error); a late async span arrives after the decision.
  auto kept = o.tracer.StartSpanAt("req", "svc", {}, 0);
  o.tracer.SetAttr(kept, kOutcomeAttr, kOutcomeError);
  o.tracer.EndSpanAt(kept, 100);
  auto late_kept = o.tracer.StartSpanAt("deliver", "svc", kept, 150);
  o.tracer.EndSpanAt(late_kept, 200);
  // Dropped trace; its late span must not resurrect it.
  auto dropped = o.tracer.StartSpanAt("req", "svc", {}, 300);
  o.tracer.EndSpanAt(dropped, 400);
  auto late_dropped = o.tracer.StartSpanAt("deliver", "svc", dropped, 450);
  o.tracer.EndSpanAt(late_dropped, 500);

  const SamplingPipeline* p = o.pipeline();
  EXPECT_EQ(p->stats().late_groups, 2u);
  const std::string text = p->ExportText();
  EXPECT_NE(text.find("deliver"), std::string::npos);
  EXPECT_EQ(p->retained_span_count(), 2u);  // root + late span, kept trace
  // Late groups still fold into the flame regardless of retention.
  EXPECT_EQ(o.flame()->folded_spans(), 4u);
}

TEST(SamplerTest, StreamModeKeepsTracerEmptyAndCountsEmitted) {
  sim::Simulation sim;
  Observability o(&sim);
  ASSERT_TRUE(o.EnableScale(Config(1.0)));
  for (int i = 0; i < 5; ++i) EmitTrace(&o, SimTime(i) * 100, 50);
  EXPECT_EQ(o.tracer.stored_span_count(), 0u);
  EXPECT_EQ(o.tracer.span_count(), 10u);
  EXPECT_EQ(o.pipeline()->retained_span_count(), 10u);
}

TEST(SamplerTest, FlushFinalizesOpenTracesAsIncomplete) {
  sim::Simulation sim;
  Observability o(&sim);
  ASSERT_TRUE(o.EnableScale(Config(1.0)));
  auto root = o.tracer.StartSpanAt("req", "svc", {}, 0);
  o.tracer.EmitSpan("exec", "svc", root, 0, 10, {});
  // Root never closes; Flush must still account for the trace.
  o.Flush();
  EXPECT_EQ(o.pipeline()->stats().incomplete_traces, 1u);
  EXPECT_EQ(o.pipeline()->stats().traces_finalized, 1u);
}

TEST(SamplerTest, RetainedBytesTrackStoreContent) {
  sim::Simulation sim;
  Observability o(&sim);
  ASSERT_TRUE(o.EnableScale(Config(1.0)));
  EXPECT_EQ(o.pipeline()->retained_bytes(), 0u);
  EmitTrace(&o, 0, 50);
  const size_t one = o.pipeline()->retained_bytes();
  EXPECT_GT(one, 0u);
  EmitTrace(&o, 100, 50);
  EXPECT_GT(o.pipeline()->retained_bytes(), one);
}

TEST(SamplerTest, RecycledGroupCarriesNoStaleSpans) {
  // A finalized group's storage serves the next trace: a dropped 4-span
  // trace with many attributes, then a 2-span error trace in the same
  // recycled group. Only the second trace's spans may be retained or
  // folded a second time.
  sim::Simulation sim;
  Observability o(&sim);
  ASSERT_TRUE(o.EnableScale(Config(0.0)));
  auto a = o.tracer.StartSpanAt("req", "svc", {}, 0);
  o.tracer.SetAttr(a, kTenantAttr, "acme");
  o.tracer.SetAttr(a, "status", "OK");
  o.tracer.SetAttr(a, kOutcomeAttr, kOutcomeOk);
  o.tracer.SetAttr(a, kSeverityAttr, "info");
  o.tracer.EmitSpan("a", "svc", a, 0, 30,
                    {{kCategoryAttr, "queue"}, {"attempt", "0"},
                     {"owner", "acme"}, {"zone", "z1"}});
  o.tracer.EmitSpan("b", "svc", a, 30, 90,
                    {{kCategoryAttr, "exec"}, {"attempt", "0"},
                     {"status", "OK"}, {"owner", "acme"}, {"killed", "0"}});
  o.tracer.EmitSpan("c", "svc", a, 90, 100,
                    {{kCategoryAttr, "retry"}, {"after_attempt", "0"}});
  o.tracer.EndSpanAt(a, 100);
  ASSERT_EQ(o.pipeline()->DecisionFor(a.trace_id), RetainReason::kDropped);

  auto b = o.tracer.StartSpanAt("req", "svc", {}, 200);
  o.tracer.EmitSpan("exec", "svc", b, 200, 280, {{kCategoryAttr, "exec"}});
  o.tracer.SetAttr(b, kTenantAttr, "beta");
  o.tracer.SetAttr(b, kOutcomeAttr, kOutcomeError);
  o.tracer.EndSpanAt(b, 300);

  const SamplingPipeline* p = o.pipeline();
  EXPECT_EQ(p->ExportText(),
            "trace=2 reason=error\n"
            "span=5 parent=0 trace=2 [200,300] svc/req outcome=error "
            "tenant=beta\n"
            "span=6 parent=5 trace=2 [200,280] svc/exec cat=exec\n");
  EXPECT_EQ(p->retained_span_count(), 2u);
  EXPECT_EQ(p->pending_span_count(), 0u);

  const FlameProfile* flame = o.flame();
  EXPECT_EQ(flame->folded_traces(), 2u);
  EXPECT_EQ(flame->folded_spans(), 6u);
  const std::map<std::string, std::vector<SimDuration>> want = {
      // path: count, total, self
      {"req", {2, 200, 20}},     {"req;a", {1, 30, 30}},
      {"req;b", {1, 60, 60}},    {"req;c", {1, 10, 10}},
      {"req;exec", {1, 80, 80}},
  };
  ASSERT_EQ(flame->paths().size(), want.size());
  for (const auto& [path, stat] : flame->paths()) {
    ASSERT_EQ(want.count(path), 1u) << path;
    EXPECT_EQ(SimDuration(stat.count), want.at(path)[0]) << path;
    EXPECT_EQ(stat.total_us, want.at(path)[1]) << path;
    EXPECT_EQ(stat.self_us, want.at(path)[2]) << path;
  }
  ASSERT_EQ(flame->by_root().size(), 1u);
  const RootAggregate& req = flame->by_root().at("req");
  EXPECT_EQ(req.count, 2u);
  EXPECT_EQ(req.breakdown.total_us, 200);
  EXPECT_EQ(req.breakdown.Get(Category::kQueue), 30);
  EXPECT_EQ(req.breakdown.Get(Category::kExec), 140);
  EXPECT_EQ(req.breakdown.Get(Category::kRetry), 10);
  EXPECT_EQ(req.breakdown.Get(Category::kOther), 20);
  ASSERT_EQ(flame->by_tenant().size(), 2u);
  EXPECT_EQ(flame->by_tenant().at("acme").count, 1u);
  EXPECT_EQ(flame->by_tenant().at("beta").count, 1u);
  EXPECT_EQ(flame->by_tenant().at("beta").breakdown.total_us, 100);
}

// ------------------------------------------------- sampler properties

TEST(SamplerPropertyTest, ImportantTracesAlwaysRetainedAcrossChaosSeeds) {
  bool saw_important = false;
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    SamplingPipeline::Stats stats;
    RunFaultyWorld(seed, /*head_rate=*/0.02, &stats);
    EXPECT_EQ(stats.important_retained, stats.important_seen)
        << "seed " << seed;
    if (stats.important_seen > 0) saw_important = true;
  }
  EXPECT_TRUE(saw_important) << "chaos plans never produced an incident";
}

TEST(SamplerPropertyTest, SameSeedSampledExportsByteIdentical) {
  const std::string a = RunFaultyWorld(3, 0.05);
  const std::string b = RunFaultyWorld(3, 0.05);
  const std::string c = RunFaultyWorld(4, 0.05);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

// ---------------------------------------- retained store reference model

/// SamplingPipeline's retained store as it was before retained traces were
/// held as their rendered lines: a std::map of span copies, a std::set of
/// head-sampled ids and an eviction loop over both. Fed each finalized
/// group with the pipeline's own decision, it pins the store: export order
/// and bytes, where late lines go, which trace is evicted, and the counts
/// eviction takes off.
class ReferenceRetainedStore {
 public:
  explicit ReferenceRetainedStore(size_t max_spans) : max_spans_(max_spans) {}

  void Retain(uint64_t trace, RetainReason reason, std::vector<Span> spans) {
    for (const Span& s : spans) Count(s);
    retained_.insert_or_assign(trace, Entry{reason, std::move(spans)});
    if (reason == RetainReason::kHead) healthy_.insert(trace);
    EvictIfOver();
  }

  /// A late group of `trace`; an evicted trace takes nothing.
  void AppendLate(uint64_t trace, const std::vector<Span>& spans) {
    const auto it = retained_.find(trace);
    if (it == retained_.end()) return;
    for (const Span& s : spans) {
      Count(s);
      it->second.spans.push_back(s);
    }
    EvictIfOver();
  }

  std::string ExportText() const {
    std::string out;
    for (const auto& [trace, entry] : retained_) {
      out += "trace=" + std::to_string(trace) + " reason=";
      out += RetainReasonName(entry.reason);
      out += '\n';
      for (const Span& s : entry.spans) AppendSpanLine(s, &out);
    }
    return out;
  }

  size_t span_count() const { return span_count_; }
  size_t bytes() const { return bytes_; }
  uint64_t spans_retained() const { return spans_retained_; }
  uint64_t evicted_traces() const { return evicted_traces_; }
  uint64_t evicted_important() const { return evicted_important_; }

 private:
  struct Entry {
    RetainReason reason;
    std::vector<Span> spans;
  };

  /// The store's byte estimate: a fixed 104-byte span base plus name,
  /// module and each attribute with 32 bytes of node overhead.
  static size_t ApproxBytes(const Span& s) {
    size_t bytes = 104 + s.name.size() + s.module.size();
    for (const auto& [k, v] : s.attrs) bytes += k.size() + v.size() + 32;
    return bytes;
  }

  void Count(const Span& s) {
    ++span_count_;
    bytes_ += ApproxBytes(s);
    ++spans_retained_;
  }

  void EvictIfOver() {
    while (span_count_ > max_spans_ && !retained_.empty()) {
      uint64_t victim;
      bool important = false;
      if (!healthy_.empty()) {
        victim = *healthy_.begin();
        healthy_.erase(healthy_.begin());
      } else {
        victim = retained_.begin()->first;
        important = true;
      }
      const auto it = retained_.find(victim);
      for (const Span& s : it->second.spans) {
        --span_count_;
        bytes_ -= ApproxBytes(s);
      }
      retained_.erase(it);
      ++evicted_traces_;
      if (important) ++evicted_important_;
    }
  }

  size_t max_spans_;
  std::map<uint64_t, Entry> retained_;
  std::set<uint64_t> healthy_;
  size_t span_count_ = 0;
  size_t bytes_ = 0;
  uint64_t spans_retained_ = 0;
  uint64_t evicted_traces_ = 0;
  uint64_t evicted_important_ = 0;
};

/// Forwards to the pipeline, keeping a copy of every closed span until the
/// harness hands its group to the reference.
class RecordingSink : public SpanSink {
 public:
  explicit RecordingSink(SpanSink* next) : next_(next) {}

  void OnSpanStart(const Span& span) override { next_->OnSpanStart(span); }
  void OnSpanEnd(const Span& span) override {
    ++spans_seen;
    closed_[span.trace].push_back(span);
    next_->OnSpanEnd(span);
  }

  /// The closed spans of `trace`'s finalized group, in id order.
  std::vector<Span> TakeGroup(uint64_t trace) {
    std::vector<Span> spans = std::move(closed_[trace]);
    closed_.erase(trace);
    std::sort(spans.begin(), spans.end(),
              [](const Span& a, const Span& b) { return a.id < b.id; });
    return spans;
  }

  uint64_t spans_seen = 0;

 private:
  SpanSink* next_;
  std::map<uint64_t, std::vector<Span>> closed_;
};

/// The reference store plus the decision counters of Stats, driven by the
/// pipeline's decision for each trace.
struct ReferenceSampler {
  explicit ReferenceSampler(size_t max_spans) : store(max_spans) {}

  /// `spans` is a group the pipeline just finalized. Returns the rendered
  /// size of what the store took in.
  size_t Finalized(const SamplingPipeline& p, uint64_t trace,
                   std::vector<Span> spans, bool complete) {
    const RetainReason reason = p.DecisionFor(trace);
    EXPECT_NE(reason, RetainReason::kPending) << "trace " << trace;
    std::string rendered;
    if (reason != RetainReason::kDropped) {
      for (const Span& s : spans) AppendSpanLine(s, &rendered);
    }
    if (!decided.insert(trace).second) {
      ++stats.late_groups;
      if (reason != RetainReason::kDropped) store.AppendLate(trace, spans);
      return rendered.size();
    }
    ++stats.traces_finalized;
    if (!complete) ++stats.incomplete_traces;
    const bool important = reason == RetainReason::kError ||
                           reason == RetainReason::kFault ||
                           reason == RetainReason::kSlow;
    if (important) ++stats.important_seen;
    if (reason == RetainReason::kDropped) {
      ++stats.traces_dropped;
      return 0;
    }
    ++stats.traces_retained;
    if (important) ++stats.important_retained;
    store.Retain(trace, reason, std::move(spans));
    return rendered.size();
  }

  SamplingPipeline::Stats Expected(uint64_t spans_seen) const {
    SamplingPipeline::Stats s = stats;
    s.spans_seen = spans_seen;
    s.spans_retained = store.spans_retained();
    s.evicted_traces = store.evicted_traces();
    s.evicted_important = store.evicted_important();
    return s;
  }

  ReferenceRetainedStore store;
  SamplingPipeline::Stats stats;
  std::set<uint64_t> decided;
};

std::string SummaryText(const SamplingPipeline::Stats& s, size_t span_count,
                        size_t bytes) {
  std::string out;
  const auto line = [&out](const char* name, uint64_t v) {
    out += std::string(name) + " " + std::to_string(v) + "\n";
  };
  line("spans_seen", s.spans_seen);
  line("traces_finalized", s.traces_finalized);
  line("traces_retained", s.traces_retained);
  line("traces_dropped", s.traces_dropped);
  line("spans_retained", s.spans_retained);
  line("important_seen", s.important_seen);
  line("important_retained", s.important_retained);
  line("late_groups", s.late_groups);
  line("incomplete_traces", s.incomplete_traces);
  line("evicted_traces", s.evicted_traces);
  line("evicted_important", s.evicted_important);
  line("retained_span_count", span_count);
  line("retained_bytes", bytes);
  return out;
}

void ExpectMatchesReference(const SamplingPipeline& p,
                            const ReferenceSampler& ref, uint64_t spans_seen,
                            const std::string& where) {
  ASSERT_EQ(p.ExportText(), ref.store.ExportText()) << where;
  ASSERT_EQ(p.retained_span_count(), ref.store.span_count()) << where;
  ASSERT_EQ(p.retained_bytes(), ref.store.bytes()) << where;
  const SamplingPipeline::Stats want = ref.Expected(spans_seen);
  const SamplingPipeline::Stats& got = p.stats();
  ASSERT_EQ(SummaryText(got, p.retained_span_count(), p.retained_bytes()),
            SummaryText(want, ref.store.span_count(), ref.store.bytes()))
      << where;
  ASSERT_EQ(p.ExportSummaryText(),
            SummaryText(want, ref.store.span_count(), ref.store.bytes()))
      << where;
}

TEST(SamplerReferenceTest, RetainedStoreMatchesMapOfSpanCopies) {
  // Seeded traces through a real pipeline: head rate 0.3, error/fault/slow
  // outcomes in bursts, several traces open at once so they finalize out
  // of id order, and late groups for kept and for dropped traces. The
  // store holds 48 spans, so every retain evicts, both eviction branches
  // run, and the text arena is compacted many times over.
  constexpr size_t kMaxSpans = 48;
  constexpr SimDuration kSlowUs = 1500;
  sim::Simulation sim;
  SamplerConfig cfg;
  cfg.head_rate = 0.3;
  cfg.seed = 11;
  cfg.slow_threshold_us = kSlowUs;
  cfg.max_retained_spans = kMaxSpans;
  SamplingPipeline pipeline(cfg, nullptr, nullptr);
  RecordingSink recorder(&pipeline);
  Tracer tracer(&sim);
  ASSERT_TRUE(tracer.SetStoreMode(Tracer::StoreMode::kStream));
  tracer.SetSink(&recorder);
  ReferenceSampler ref(kMaxSpans);

  struct Open {
    TraceContext top;  ///< The group's first span: a root or a late span.
    SimTime start;
  };
  std::vector<Open> open;
  std::vector<TraceContext> finished_roots;
  Rng rng(20260);
  SimTime now = 0;
  size_t rendered_in = 0;
  size_t peak_store_bytes = 0;
  const char* const kOutcomes[] = {kOutcomeOk, kOutcomeError, kOutcomeFault};

  const auto close = [&](size_t i) {
    const Open group = open[i];
    open.erase(open.begin() + ptrdiff_t(i));
    const bool late = ref.decided.count(group.top.trace_id) > 0;
    now += 1 + SimTime(rng.NextBounded(20));
    // One root in ten runs past the slow threshold.
    const SimTime end =
        late || !rng.NextBool(0.1) ? now : group.start + kSlowUs + 1;
    now = std::max(now, end);
    tracer.EndSpanAt(group.top, end);
    if (!late) finished_roots.push_back(group.top);
    rendered_in += ref.Finalized(pipeline, group.top.trace_id,
                                 recorder.TakeGroup(group.top.trace_id),
                                 /*complete=*/true);
    peak_store_bytes =
        std::max(peak_store_bytes, pipeline.retained_store_bytes());
    ExpectMatchesReference(pipeline, ref, recorder.spans_seen,
                           "after trace " +
                               std::to_string(group.top.trace_id));
  };

  for (int step = 0; step < 10000 && !HasFatalFailure(); ++step) {
    // Error and fault outcomes come in bursts, so that the store sometimes
    // holds no head-sampled trace and must evict an important one.
    const bool burst = (step / 500) % 3 == 2;
    const uint64_t roll = rng.NextBounded(10);
    if (open.size() < 2 || (roll < 3 && open.size() < 6)) {
      now += SimTime(rng.NextBounded(5));
      const TraceContext root = tracer.StartSpanAt("req", "svc", {}, now);
      if (rng.NextBool(0.5)) tracer.SetAttr(root, kTenantAttr, "acme");
      open.push_back({root, now});
    } else if (roll < 6) {
      // A child of an open group, with up to three attributes and
      // sometimes the trace's outcome marker.
      Open& group = open[rng.NextBounded(open.size())];
      const SimTime start = now + SimTime(rng.NextBounded(10));
      SpanAttrList attrs;
      attrs.Add(kCategoryAttr, rng.NextBool(0.5) ? "exec" : "queue");
      if (rng.NextBool(0.3)) attrs.Add("attempt", "1");
      if (rng.NextBool(burst ? 0.5 : 0.03)) {
        attrs.Add(kOutcomeAttr, kOutcomes[1 + rng.NextBounded(2)]);
      }
      tracer.EmitSpan(rng.NextBool(0.5) ? "exec" : "cold", "svc", group.top,
                      start, start + SimTime(rng.NextBounded(50)), attrs);
    } else if (roll < 9 || finished_roots.empty()) {
      const size_t i = rng.NextBounded(open.size());
      if (ref.decided.count(open[i].top.trace_id) == 0 &&
          rng.NextBool(burst ? 0.4 : 0.03)) {
        tracer.SetAttr(open[i].top, kOutcomeAttr,
                       kOutcomes[rng.NextBounded(3)]);
      }
      close(i);
    } else {
      // A late group: follow-from work on a trace that already finished,
      // kept or dropped, recent or long gone.
      const TraceContext parent =
          rng.NextBool(0.7)
              ? finished_roots[finished_roots.size() - 1 -
                               rng.NextBounded(
                                   std::min<size_t>(8, finished_roots.size()))]
              : finished_roots[rng.NextBounded(finished_roots.size())];
      // Spans of one trace share one group, so a trace gets one late group
      // at a time.
      if (std::any_of(open.begin(), open.end(), [&](const Open& group) {
            return group.top.trace_id == parent.trace_id;
          })) {
        continue;
      }
      const TraceContext top = tracer.StartSpanAt("deliver", "svc", parent,
                                                  now);
      tracer.SetAttr(top, kAsyncAttr, "1");
      open.push_back({top, now});
      if (rng.NextBool(0.5)) {
        tracer.EmitSpan("handle", "svc", top, now, now + 3,
                        {{kCategoryAttr, "exec"}});
      }
      if (rng.NextBool(0.5)) close(open.size() - 1);
    }
  }
  ASSERT_FALSE(HasFatalFailure());

  // Flush what is still open: first groups (one with no closed span at
  // all) and late groups alike, in trace-id order.
  for (bool kept = false; !kept;) {
    const TraceContext bare = tracer.StartSpanAt("req", "svc", {}, now);
    open.push_back({bare, now});
    kept = pipeline.HeadKeeps(bare.trace_id);
  }
  std::vector<uint64_t> pending;
  for (const Open& group : open) pending.push_back(group.top.trace_id);
  std::sort(pending.begin(), pending.end());
  pipeline.Flush();
  for (uint64_t trace : pending) {
    ref.Finalized(pipeline, trace, recorder.TakeGroup(trace),
                  /*complete=*/false);
  }
  ExpectMatchesReference(pipeline, ref, recorder.spans_seen, "after Flush");

  // The run covered what it is meant to cover.
  const SamplingPipeline::Stats& s = pipeline.stats();
  EXPECT_GT(s.late_groups, 300u);
  EXPECT_GT(s.evicted_important, 100u);
  EXPECT_GT(s.evicted_traces - s.evicted_important, 100u);
  EXPECT_GT(s.incomplete_traces, 0u);
  // Far more text went through the store than it ever held at once, so
  // the arena was compacted and reused many times.
  EXPECT_GT(rendered_in, 20 * peak_store_bytes);
}

// --------------------------------------------------------------- flame

Span MakeSpan(uint64_t id, uint64_t parent, uint64_t trace,
              const std::string& name, SimTime start, SimTime end,
              const std::string& cat = "") {
  Span s;
  s.id = id;
  s.parent = parent;
  s.trace = trace;
  s.name = name;
  s.module = "t";
  s.start_us = start;
  s.end_us = end;
  if (!cat.empty()) s.attrs.Set(kCategoryAttr, cat);
  return s;
}

TEST(FlameTest, SelfTimesSumToRootWallTimeOnRandomTrees) {
  Rng rng(99);
  FlameProfile flame;
  SimDuration total_roots = 0;
  for (int t = 1; t <= 50; ++t) {
    std::vector<Span> spans;
    const SimDuration root_dur = 100 + SimDuration(rng.NextBounded(900));
    spans.push_back(
        MakeSpan(1, 0, uint64_t(t), "root", 0, SimTime(root_dur)));
    total_roots += root_dur;
    uint64_t next_id = 2;
    // Random children nested under random earlier spans, clipped inside
    // the parent's window; overlapping siblings are allowed on purpose.
    const int n = 1 + int(rng.NextBounded(6));
    for (int c = 0; c < n; ++c) {
      const size_t pi = size_t(rng.NextBounded(spans.size()));
      const Span& parent = spans[pi];
      if (parent.end_us - parent.start_us < 2) continue;
      const SimTime lo =
          parent.start_us +
          SimTime(rng.NextBounded(
              uint64_t(parent.end_us - parent.start_us - 1)));
      const SimTime hi =
          lo + 1 + SimTime(rng.NextBounded(uint64_t(parent.end_us - lo)));
      const char* cats[] = {"exec", "queue", "shuffle", ""};
      spans.push_back(MakeSpan(next_id, parent.id, uint64_t(t),
                               "c" + std::to_string(c), lo, hi,
                               cats[rng.NextBounded(4)]));
      ++next_id;
    }
    flame.FoldTrace(spans);
  }
  SimDuration total_self = 0;
  for (const auto& [path, stat] : flame.paths()) total_self += stat.self_us;
  EXPECT_EQ(total_self, total_roots);
}

TEST(FlameTest, ByRootBreakdownMatchesAnalyzeCriticalPath) {
  sim::Simulation sim;
  Tracer tracer(&sim);
  auto root = tracer.EmitSpan("req", "t", {}, 0, 100);
  tracer.EmitSpan("queue", "t", root, 0, 30, {{kCategoryAttr, "queue"}});
  tracer.EmitSpan("exec", "t", root, 30, 90, {{kCategoryAttr, "exec"}});
  auto oracle = AnalyzeCriticalPath(tracer, root.span_id);
  ASSERT_TRUE(oracle.ok());

  FlameProfile flame;
  flame.FoldTrace(tracer.spans());
  const auto& agg = flame.by_root().at("req");
  EXPECT_EQ(agg.count, 1u);
  EXPECT_EQ(agg.breakdown.total_us, oracle->total_us);
  for (size_t c = 0; c < kCategoryCount; ++c) {
    EXPECT_EQ(agg.breakdown.by_category[c], oracle->by_category[c]);
  }
}

TEST(FlameTest, PathKeysAreSemicolonJoinedFromGroupRoot) {
  FlameProfile flame;
  std::vector<Span> spans;
  spans.push_back(MakeSpan(1, 0, 1, "a", 0, 100));
  spans.push_back(MakeSpan(2, 1, 1, "b", 10, 60));
  spans.push_back(MakeSpan(3, 2, 1, "c", 20, 40));
  flame.FoldTrace(spans);
  EXPECT_TRUE(flame.paths().count("a"));
  EXPECT_TRUE(flame.paths().count("a;b"));
  EXPECT_TRUE(flame.paths().count("a;b;c"));
  EXPECT_EQ(flame.paths().at("a;b;c").self_us, 20);
  EXPECT_EQ(flame.paths().at("a;b").self_us, 30);  // 50 minus c's 20
  EXPECT_EQ(flame.paths().at("a").self_us, 50);
}

TEST(FlameTest, AbsentParentStartsSubtreeAndUnfinishedSpansSkip) {
  // A late group: ids 3 and 4 are not in it, so span 5 (parent 3) roots
  // one subtree and span 7 (a root) another; span 8 never finished.
  FlameProfile flame;
  std::vector<Span> spans;
  spans.push_back(MakeSpan(5, 3, 1, "late", 100, 200));
  spans.push_back(MakeSpan(6, 5, 1, "work", 120, 180, "exec"));
  spans.push_back(MakeSpan(7, 0, 1, "marker", 150, 190));
  Span open = MakeSpan(8, 5, 1, "pending", 130, 0);
  open.end_us = -1;
  spans.push_back(open);
  spans.push_back(MakeSpan(9, 7, 1, "tail", 160, 170, "exec"));
  flame.FoldTrace(spans);

  const auto& paths = flame.paths();
  ASSERT_EQ(paths.size(), 4u);
  EXPECT_EQ(paths.at("late").self_us + paths.at("late;work").self_us, 100);
  EXPECT_EQ(paths.at("late;work").self_us, 60);
  EXPECT_EQ(paths.at("marker").self_us + paths.at("marker;tail").self_us,
            40);
  EXPECT_EQ(paths.at("marker;tail").self_us, 10);
  EXPECT_EQ(paths.count("late;pending"), 0u);
  EXPECT_EQ(flame.folded_spans(), 4u);
  EXPECT_EQ(flame.folded_traces(), 1u);

  ASSERT_EQ(flame.by_root().size(), 2u);
  EXPECT_EQ(flame.by_root().at("late").count, 1u);
  EXPECT_EQ(flame.by_root().at("late").breakdown.Get(Category::kExec), 60);
  EXPECT_EQ(flame.by_root().at("marker").count, 1u);
  EXPECT_EQ(flame.by_root().at("marker").breakdown.total_us, 40);
}

TEST(FlameTest, TopKBySelfIsDeterministicWithLexicalTieBreak) {
  FlameProfile flame;
  std::vector<Span> spans;
  spans.push_back(MakeSpan(1, 0, 1, "root", 0, 100));
  spans.push_back(MakeSpan(2, 1, 1, "bb", 0, 40));
  spans.push_back(MakeSpan(3, 1, 1, "aa", 40, 80));
  flame.FoldTrace(spans);
  auto top = flame.TopKBySelf(2);
  ASSERT_EQ(top.size(), 2u);
  // bb and aa both have 40us self; the tie breaks lexicographically.
  EXPECT_EQ(top[0].first, "root;aa");
  EXPECT_EQ(top[1].first, "root;bb");
}

TEST(FlameTest, FoldIsExactWhenASymbolAddressChangesMeaning) {
  // A three-span trace (root with a tenant, a child, a grandchild) whose
  // names come from wherever the caller's Interned points.
  auto make = [](uint64_t trace, const Interned& root, const Interned& child,
                 const Interned& grandchild) {
    std::vector<Span> spans;
    spans.push_back(MakeSpan(1, 0, trace, "", 0, 100));
    spans.push_back(MakeSpan(2, 1, trace, "", 10, 60, "exec"));
    spans.push_back(MakeSpan(3, 2, trace, "", 20, 40, "queue"));
    spans[0].name = root;
    spans[1].name = child;
    spans[2].name = grandchild;
    spans[0].attrs.Set(kTenantAttr, "t" + std::to_string(trace % 2));
    return spans;
  };
  auto plain = [](const std::string& s) {
    Interned i;
    i = s;  // the global table
    return i;
  };

  // One string renamed between folds: the address a symbol-keyed index
  // saw stands for another name, as when a freed table's address is reused.
  std::string symbol = "alpha";
  const Interned reused(&symbol);
  // A tracer's own table holds the same names at other addresses.
  sim::Simulation sim;
  Tracer tracer(&sim);
  auto root = tracer.EmitSpan("alpha", "t", {}, 0, 100);
  auto child = tracer.EmitSpan("exec", "t", root, 10, 60);
  tracer.EmitSpan("alpha", "t", child, 20, 40);
  const Interned own_alpha = tracer.spans()[0].name;
  const Interned own_exec = tracer.spans()[1].name;
  ASSERT_NE(&own_alpha.str(), &plain("alpha").str());

  FlameProfile flame;
  FlameProfile reference;
  const char* names[] = {"alpha", "beta", "exec", "alpha", "gamma"};
  uint64_t trace = 0;
  for (const char* name : names) {
    symbol = name;
    ++trace;
    flame.FoldTrace(make(trace, reused, plain("exec"), reused));
    reference.FoldTrace(make(trace, plain(name), plain("exec"), plain(name)));
    ++trace;
    flame.FoldTrace(make(trace, own_alpha, reused, own_exec));
    reference.FoldTrace(
        make(trace, plain("alpha"), plain(name), plain("exec")));
  }

  ASSERT_EQ(flame.paths().size(), reference.paths().size());
  for (const auto& [path, stat] : reference.paths()) {
    ASSERT_TRUE(flame.paths().count(path)) << path;
    const PathStat& got = flame.paths().at(path);
    EXPECT_EQ(got.count, stat.count) << path;
    EXPECT_EQ(got.total_us, stat.total_us) << path;
    EXPECT_EQ(got.self_us, stat.self_us) << path;
  }
  EXPECT_TRUE(reference.paths().count("beta;exec;beta"));
  EXPECT_TRUE(reference.paths().count("exec;exec;exec"));
  EXPECT_EQ(FormatRootAggregates(flame.by_root()),
            FormatRootAggregates(reference.by_root()));
  EXPECT_EQ(flame.by_root().size(), 4u);  // alpha, beta, exec, gamma
  EXPECT_EQ(FormatRootAggregates(flame.by_tenant()),
            FormatRootAggregates(reference.by_tenant()));
  EXPECT_EQ(flame.ExportText(), reference.ExportText());
  EXPECT_EQ(flame.folded_spans(), reference.folded_spans());
}

TEST(FlameTest, AggregatesIdenticalRegardlessOfSamplingRate) {
  auto run = [](double head_rate) {
    sim::Simulation sim;
    Observability o(&sim);
    EXPECT_TRUE(o.EnableScale(Config(head_rate)));
    Rng rng(5);
    for (int i = 0; i < 40; ++i) {
      EmitTrace(&o, SimTime(i) * 1000, 50 + SimDuration(rng.NextBounded(100)));
    }
    return FormatRootAggregates(o.flame()->by_root()) +
           o.flame()->ExportText();
  };
  EXPECT_EQ(run(1.0), run(0.05));
  EXPECT_EQ(run(1.0), run(0.0));
}

// ----------------------------------------------------------------- slo

SloObjective Availability(const std::string& name, double target,
                          std::vector<BurnRatePolicy> policies) {
  SloObjective o;
  o.name = name;
  o.module = "svc";
  o.target = target;
  o.policies = std::move(policies);
  return o;
}

TEST(SloTest, BurnRateIsBadFractionOverBudget) {
  SloEngine slo;
  slo.AddObjective(Availability("a", 0.99, {{"page", 1000, 100, 1e9}}));
  for (int i = 0; i < 90; ++i) slo.Record("svc", SimTime(i), 10, true);
  for (int i = 90; i < 100; ++i) slo.Record("svc", SimTime(i), 10, false);
  // 10 bad / 100 events over the window, budget 0.01 -> burn 10.
  EXPECT_NEAR(slo.BurnRate("a", 1000, 99), 10.0, 1e-9);
  EXPECT_EQ(slo.TotalEvents("a"), 100u);
  EXPECT_EQ(slo.BadEvents("a"), 10u);
}

TEST(SloTest, LatencyObjectiveCountsSlowAsBad) {
  SloEngine slo;
  SloObjective o;
  o.name = "lat";
  o.module = "svc";
  o.target = 0.9;
  o.latency_budget_us = 100;
  slo.AddObjective(std::move(o));
  slo.Record("svc", 0, 50, true);    // good
  slo.Record("svc", 1, 150, true);   // ok but slow -> bad
  slo.Record("svc", 2, 50, false);   // failed -> bad
  EXPECT_EQ(slo.BadEvents("lat"), 2u);
  EXPECT_EQ(slo.SlowBudgetFor("svc"), 100);
  EXPECT_EQ(slo.SlowBudgetFor("other"), -1);
}

TEST(SloTest, MultiWindowAlertRequiresBothWindowsBurning) {
  SloEngine slo;
  // Long 1000us, short 100us, threshold 5 (target 0.99 -> 5% bad fires).
  slo.AddObjective(Availability("a", 0.99, {{"page", 1000, 100, 5.0}}));
  // An incident: both windows burn -> one rising edge.
  for (int i = 0; i < 20; ++i) slo.Record("svc", SimTime(i), 10, false);
  EXPECT_TRUE(slo.IsFiring("a", "page"));
  // The incident stops. The long window still burns far above threshold,
  // but the short window has drained -> the alert clears. This is the
  // multi-window rule: significance alone (long) does not hold the page
  // once the problem stopped happening (short).
  for (int i = 0; i < 40; ++i) {
    slo.Record("svc", SimTime(420 + i), 10, true);
  }
  EXPECT_GE(slo.BurnRate("a", 1000, 459), 5.0);
  EXPECT_LT(slo.BurnRate("a", 100, 459), 5.0);
  EXPECT_FALSE(slo.IsFiring("a", "page"));
  // Exactly one rising and one falling edge were logged.
  size_t rising = 0;
  size_t falling = 0;
  for (const AlertEvent& a : slo.alerts()) {
    (a.firing ? rising : falling) += 1;
  }
  EXPECT_EQ(rising, 1u);
  EXPECT_EQ(falling, 1u);
}

TEST(SloTest, WindowBoundaryExcludesEventsExactlyWindowOld) {
  SloEngine slo;
  slo.AddObjective(Availability("a", 0.9, {{"page", 100, 10, 1e9}}));
  slo.Record("svc", 0, 10, false);
  slo.Record("svc", 50, 10, true);
  // Window (now-100, now] at now=100 excludes the t=0 bad event.
  EXPECT_DOUBLE_EQ(slo.BurnRate("a", 100, 100), 0.0);
  // At now=99 the t=0 event is still inside: 1 bad / 2 events.
  EXPECT_DOUBLE_EQ(slo.BurnRate("a", 100, 99), 5.0);
}

/// The events one SloEngine track keeps, rebuilt by the test: a copy of
/// each (clamped) event, aged only when the track itself takes an event.
struct NaiveTrack {
  std::deque<std::pair<SimTime, bool>> events;

  void Push(SimTime at_us, bool good, SimDuration max_window_us) {
    events.push_back({at_us, good});
    while (events.front().first <= at_us - max_window_us) events.pop_front();
  }
  double Burn(double target, SimDuration window_us, SimTime now_us) const {
    uint64_t total = 0;
    uint64_t bad = 0;
    for (const auto& [at_us, good] : events) {
      if (at_us <= now_us - window_us) continue;
      ++total;
      if (!good) ++bad;
    }
    if (total == 0) return 0.0;
    return double(bad) / double(total) / (1.0 - target);
  }
};

/// A seeded SLO event stream: repeated timestamps, optionally back-dated
/// events (which the engine clamps), and tenants that, against an objective
/// with max_tenant_series = 2, force demotions. 1,500 events about 10.5 us
/// apart against a 3,000 us longest window make each track's window compact
/// (drop its aged-out prefix) several times.
struct SloStream {
  static constexpr int kEvents = 1500;
  static constexpr SimDuration kMaxWindow = 3000;

  Rng rng;
  bool back_date;
  SimTime t = 0;
  SimTime last = 0;
  // The next event.
  SimTime sent = 0;  ///< The timestamp passed to Record.
  SimTime at = 0;    ///< After the engine's clamp.
  std::string tenant;
  SimDuration latency = 0;
  bool ok = false;

  SloStream(uint64_t seed, bool clamp_some)
      : rng(seed), back_date(clamp_some) {}

  void Next() {
    static const char* kTenants[] = {"",   "t0", "t0", "t0",
                                     "t1", "t1", "t2", "t3"};
    t += SimTime(rng.NextBounded(4)) * 7;
    sent = t;
    if (back_date && rng.NextBool(0.1)) {
      sent = t - SimTime(rng.NextBounded(60));
    }
    at = std::max(sent, last);
    last = at;
    tenant = kTenants[rng.NextBounded(8)];
    latency = SimDuration(rng.NextBounded(80));
    ok = rng.NextBool(0.85);
  }
};

TEST(SloTest, WindowBurnMatchesNaiveScan) {
  constexpr SimDuration kMaxWindow = SloStream::kMaxWindow;
  const std::vector<BurnRatePolicy> policies = {
      {"page", 1000, 100, 5.0}, {"ticket", kMaxWindow, 300, 2.0}};
  const SimDuration windows[] = {50, 100, 1000, kMaxWindow, 5000};

  auto run = [&](uint64_t seed, bool back_date) {
    SloEngine slo;
    slo.AllowClockRegression(back_date);
    slo.AddObjective(Availability("avail", 0.99, policies));
    SloObjective lat = Availability("lat", 0.9, policies);
    lat.latency_budget_us = 50;
    lat.per_tenant = true;
    lat.max_tenant_series = 2;
    slo.AddObjective(lat);

    NaiveTrack avail;
    NaiveTrack lat_agg;
    std::map<std::string, NaiveTrack> lat_tenants;
    SloStream stream(seed, back_date);
    for (int i = 0; i < SloStream::kEvents; ++i) {
      stream.Next();
      const SimTime at = stream.at;
      const std::string& tenant = stream.tenant;
      const bool ok = stream.ok;
      const bool lat_good = ok && stream.latency <= 50;

      slo.Record("svc", tenant, stream.sent, stream.latency, ok);
      const auto after = slo.MaterializedTenants("lat");
      // Demoted tenants lose their track; new tracks (a newly materialized
      // tenant, or kOtherTenant made by a demotion) start empty.
      std::map<std::string, NaiveTrack> kept;
      for (const std::string& name : after) kept[name] = lat_tenants[name];
      lat_tenants = std::move(kept);
      const bool own_track =
          !tenant.empty() &&
          std::find(after.begin(), after.end(), tenant) != after.end();
      avail.Push(at, ok, kMaxWindow);
      lat_agg.Push(at, lat_good, kMaxWindow);
      lat_tenants.at(own_track ? tenant : std::string(kOtherTenant))
          .Push(at, lat_good, kMaxWindow);

      for (SimDuration w : windows) {
        for (SimTime now : {at, at - 40, at - 1700}) {
          EXPECT_DOUBLE_EQ(slo.BurnRate("avail", w, now),
                           avail.Burn(0.99, w, now));
          EXPECT_DOUBLE_EQ(slo.BurnRate("lat", w, now),
                           lat_agg.Burn(0.9, w, now));
          for (const auto& [name, track] : lat_tenants) {
            EXPECT_DOUBLE_EQ(slo.TenantBurnRate("lat", name, w, now),
                             track.Burn(0.9, w, now))
                << name;
          }
        }
      }
      if (::testing::Test::HasFailure()) return;
    }
    EXPECT_GT(slo.TenantDemotions("lat"), 0u);
    EXPECT_EQ(slo.clamped_events() > 0, back_date);
  };
  run(11, false);
  run(12, false);
  run(13, true);
}

TEST(SloTest, AlertLogMatchesNaiveEvaluation) {
  constexpr SimDuration kMaxWindow = SloStream::kMaxWindow;
  // Two policies named "page" share one alert flag; "instant" has a 0 us
  // long window (burn 0, threshold 0: it fires once and stays firing);
  // "ticket" and "sustained" have windows equal to the longest.
  const std::vector<BurnRatePolicy> policies = {
      {"page", 1000, 100, 5.0},
      {"ticket", kMaxWindow, 300, 2.0},
      {"page", 300, 30, 12.0},
      {"instant", 0, 200, 0.0},
      {"sustained", 2000, kMaxWindow, 4.0}};

  /// One engine track rebuilt by the test: its kept events, rescanned for
  /// every policy, and its alert state by policy name.
  struct RefTrack {
    NaiveTrack events;
    std::map<std::string, bool> firing;
  };
  auto burn = [](const NaiveTrack& tr, double target, SimDuration window_us,
                 SimTime now_us) {
    uint64_t total = 0;
    uint64_t bad = 0;
    for (const auto& [at_us, good] : tr.events) {
      if (at_us <= now_us - window_us) continue;
      ++total;
      if (!good) ++bad;
    }
    if (total == 0) return 0.0;
    return double(bad) / double(total) / (1.0 - target);
  };

  auto run = [&](uint64_t seed, bool back_date) {
    SloEngine slo;
    slo.AllowClockRegression(back_date);
    slo.AddObjective(Availability("avail", 0.99, policies));
    SloObjective lat = Availability("lat", 0.9, policies);
    lat.latency_budget_us = 50;
    lat.per_tenant = true;
    lat.max_tenant_series = 2;
    slo.AddObjective(lat);

    std::vector<AlertEvent> ref;
    auto score = [&](RefTrack* tr, const std::string& objective,
                     double target, const std::string& tenant, SimTime at,
                     bool good) {
      tr->events.Push(at, good, kMaxWindow);
      for (const BurnRatePolicy& p : policies) {
        const double burn_long = burn(tr->events, target, p.long_window_us, at);
        const double burn_short =
            burn(tr->events, target, p.short_window_us, at);
        const bool fire =
            burn_long >= p.burn_threshold && burn_short >= p.burn_threshold;
        bool& firing = tr->firing[p.name];
        if (fire == firing) continue;
        firing = fire;
        ref.push_back(
            {at, objective, p.name, tenant, fire, burn_long, burn_short});
      }
    };

    RefTrack avail;
    RefTrack lat_agg;
    std::map<std::string, RefTrack> lat_tenants;
    SloStream stream(seed, back_date);
    size_t checked = 0;
    for (int i = 0; i < SloStream::kEvents; ++i) {
      stream.Next();
      const SimTime at = stream.at;
      slo.Record("svc", stream.tenant, stream.sent, stream.latency, stream.ok);

      // Objectives score in name order, the aggregate before the tenant; a
      // demotion clears the victim's firing alerts (in policy-name order)
      // before the tenant's track scores.
      score(&avail, "avail", 0.99, "", at, stream.ok);
      const bool lat_good = stream.ok && stream.latency <= 50;
      score(&lat_agg, "lat", 0.9, "", at, lat_good);
      const auto after = slo.MaterializedTenants("lat");
      for (auto it = lat_tenants.begin(); it != lat_tenants.end();) {
        if (std::find(after.begin(), after.end(), it->first) != after.end()) {
          ++it;
          continue;
        }
        for (const auto& [policy, firing] : it->second.firing) {
          if (!firing) continue;
          ref.push_back({at, "lat", policy, it->first, false, 0, 0});
        }
        it = lat_tenants.erase(it);
      }
      const bool own_track = !stream.tenant.empty() &&
                             std::find(after.begin(), after.end(),
                                       stream.tenant) != after.end();
      const std::string track = own_track ? stream.tenant : kOtherTenant;
      score(&lat_tenants[track], "lat", 0.9, track, at, lat_good);

      // Edges before `checked` matched after an earlier event.
      const std::vector<AlertEvent>& got = slo.alerts();
      ASSERT_EQ(got.size(), ref.size()) << "event " << i;
      for (size_t k = checked; k < ref.size(); ++k) {
        const AlertEvent& a = got[k];
        const AlertEvent& b = ref[k];
        ASSERT_EQ(a.at_us, b.at_us) << "edge " << k;
        ASSERT_EQ(a.objective, b.objective) << "edge " << k;
        ASSERT_EQ(a.policy, b.policy) << "edge " << k;
        ASSERT_EQ(a.tenant, b.tenant) << "edge " << k;
        ASSERT_EQ(a.firing, b.firing) << "edge " << k;
        ASSERT_EQ(std::bit_cast<uint64_t>(a.burn_long),
                  std::bit_cast<uint64_t>(b.burn_long))
            << "edge " << k;
        ASSERT_EQ(std::bit_cast<uint64_t>(a.burn_short),
                  std::bit_cast<uint64_t>(b.burn_short))
            << "edge " << k;
      }
      checked = ref.size();
    }
    EXPECT_GT(slo.TenantDemotions("lat"), 0u);
    EXPECT_EQ(slo.clamped_events() > 0, back_date);
    // The stream exercises both edge directions, tenant edges and
    // demotion clears.
    size_t rising = 0;
    size_t tenant_edges = 0;
    for (const AlertEvent& a : ref) {
      rising += a.firing ? 1 : 0;
      tenant_edges += a.tenant.empty() ? 0 : 1;
    }
    EXPECT_GT(rising, 10u);
    EXPECT_GT(ref.size() - rising, 10u);
    EXPECT_GT(tenant_edges, 10u);
    for (const auto& [name, tr] : lat_tenants) {
      for (const auto& [policy, firing] : tr.firing) {
        EXPECT_EQ(slo.IsTenantFiring("lat", name, policy), firing)
            << name << "/" << policy;
      }
    }
    for (const auto& [policy, firing] : avail.firing) {
      EXPECT_EQ(slo.IsFiring("avail", policy), firing) << policy;
    }
  };
  run(11, false);
  run(12, false);
  run(13, true);
}

TEST(SloTest, BudgetExhaustionClampsAtZero) {
  SloEngine slo;
  slo.AddObjective(Availability("a", 0.9, {}));
  EXPECT_DOUBLE_EQ(slo.BudgetRemaining("a"), 1.0);
  for (int i = 0; i < 9; ++i) slo.Record("svc", SimTime(i), 10, true);
  slo.Record("svc", 9, 10, false);
  // 1 bad of 10 with 10% budget: exactly exhausted.
  EXPECT_DOUBLE_EQ(slo.BudgetRemaining("a"), 0.0);
  slo.Record("svc", 10, 10, false);
  EXPECT_DOUBLE_EQ(slo.BudgetRemaining("a"), 0.0);  // clamped, not negative
}

TEST(SloTest, ExportTextIsDeterministic) {
  auto build = [] {
    SloEngine slo;
    slo.AddObjective(Availability("a", 0.99, {{"page", 100, 10, 2.0}}));
    for (int i = 0; i < 20; ++i) {
      slo.Record("svc", SimTime(i), 10, i % 4 != 0);
    }
    return slo.ExportText();
  };
  const std::string a = build();
  EXPECT_EQ(a, build());
  EXPECT_NE(a.find("module=svc"), std::string::npos);
  EXPECT_NE(a.find("alert a/page FIRING"), std::string::npos);
}

// ------------------------------------------------------- observability

std::string Section(const std::string& all, const std::string& header) {
  const size_t start = all.find(header);
  if (start == std::string::npos) return "";
  const size_t body = start + header.size();
  const size_t end = all.find("== ", body);
  return all.substr(body, end == std::string::npos ? std::string::npos
                                                   : end - body);
}

TEST(ObservabilityTest, ExportAllHasCriticalPathSectionInRetainMode) {
  sim::Simulation sim;
  Observability o(&sim);  // no scale layer: legacy retain mode
  auto root = o.tracer.EmitSpan("req", "svc", {}, 0, 100);
  o.tracer.EmitSpan("exec", "svc", root, 0, 80, {{kCategoryAttr, "exec"}});
  const std::string all = o.ExportAll();
  const std::string section = Section(all, "== critical-path ==\n");
  EXPECT_NE(section.find("req count=1"), std::string::npos);
  EXPECT_NE(section.find("exec="), std::string::npos);
}

TEST(ObservabilityTest, CriticalPathSectionIdenticalRetainVsStream) {
  auto run = [](bool scale) {
    sim::Simulation sim;
    Observability o(&sim);
    if (scale) {
      EXPECT_TRUE(o.EnableScale(Config(1.0)));
    }
    Rng rng(11);
    for (int i = 0; i < 25; ++i) {
      const SimTime start = SimTime(i) * 500;
      auto root = o.tracer.StartSpanAt("req", "svc", {}, start);
      const SimDuration q = SimDuration(rng.NextBounded(40));
      const SimDuration e = 20 + SimDuration(rng.NextBounded(60));
      o.tracer.EmitSpan("queue", "svc", root, start, start + q,
                        {{kCategoryAttr, "queue"}});
      o.tracer.EmitSpan("exec", "svc", root, start + q, start + q + e,
                        {{kCategoryAttr, "exec"}});
      o.tracer.EndSpanAt(root, start + q + e);
    }
    o.Flush();
    return Section(o.ExportAll(), "== critical-path ==\n");
  };
  const std::string retain = run(false);
  const std::string stream = run(true);
  EXPECT_FALSE(retain.empty());
  EXPECT_EQ(retain, stream);
}

TEST(ObservabilityTest, ExportAllScaleSectionsPresent) {
  sim::Simulation sim;
  Observability o(&sim);
  ScaleConfig cfg = Config(1.0);
  cfg.objectives.push_back(Availability("a", 0.99, {}));
  cfg.objectives.back().module = "svc";
  ASSERT_TRUE(o.EnableScale(cfg));
  EmitTrace(&o, 0, 50);
  o.Flush();
  const std::string all = o.ExportAll();
  EXPECT_NE(all.find("== sampler ==\n"), std::string::npos);
  EXPECT_NE(all.find("== flame ==\n"), std::string::npos);
  EXPECT_NE(all.find("== slo ==\n"), std::string::npos);
  EXPECT_NE(Section(all, "== sampler ==\n").find("traces_retained 1"),
            std::string::npos);
}

TEST(ObservabilityTest, EnableScaleRefusedAfterSpansEmitted) {
  sim::Simulation sim;
  Observability o(&sim);
  o.tracer.EmitSpan("req", "svc", {}, 0, 10);
  EXPECT_FALSE(o.EnableScale(Config(1.0)));
}

}  // namespace
}  // namespace taureau::obs
