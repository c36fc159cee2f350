// Tests for taureau::guard — overload protection: deadline propagation,
// admission control, retry budgets, hedging — plus the satellites that ride
// with it (bounded idempotency cache, configurable breaker probes).
//
// The three ISSUE-mandated properties live here:
//   1. a child span's deadline never exceeds any enclosing stage's
//      remaining budget, at any composition depth;
//   2. retry-budget token accounting is exact (integer milli-tokens) under
//      arbitrary interleavings of successes and failures;
//   3. a hedged request never double-bills or double-applies: one delivered
//      result, the loser's burn billed as duplicate work, dedupe absorbing
//      late completions.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "chaos/circuit_breaker.h"
#include "chaos/idempotency.h"
#include "cluster/cluster.h"
#include "faas/platform.h"
#include "faas/server_pool.h"
#include "guard/admission.h"
#include "guard/deadline.h"
#include "guard/guard.h"
#include "guard/hedging.h"
#include "guard/retry_budget.h"
#include "jiffy/controller.h"
#include "obs/critical_path.h"
#include "obs/observability.h"
#include "orchestration/composition.h"
#include "orchestration/orchestrator.h"
#include "pubsub/broker.h"
#include "sim/simulation.h"

namespace taureau {
namespace {

using guard::AdmissionConfig;
using guard::AdmissionController;
using guard::AdmissionDecision;
using guard::Deadline;
using guard::Guard;
using guard::GuardConfig;
using guard::HedgeConfig;
using guard::HedgeDelayTracker;
using guard::RetryBudget;
using guard::RetryBudgetConfig;

/// Deterministic mixer for the property tests (no std:: randomness).
uint64_t NextLcg(uint64_t* s) {
  *s = *s * 6364136223846793005ull + 1442695040888963407ull;
  return *s >> 33;
}

// ------------------------------------------------------------- Deadline

TEST(DeadlineTest, DefaultMeansNoDeadline) {
  Deadline d;
  EXPECT_FALSE(d.has_deadline());
  EXPECT_FALSE(d.Expired(1'000'000'000));
  EXPECT_EQ(d.Remaining(123), std::numeric_limits<SimDuration>::max());
}

TEST(DeadlineTest, RemainingAndExpiry) {
  Deadline d = Deadline::In(100, 50);
  EXPECT_TRUE(d.has_deadline());
  EXPECT_EQ(d.Remaining(100), 50);
  EXPECT_EQ(d.Remaining(149), 1);
  EXPECT_FALSE(d.Expired(149));
  EXPECT_TRUE(d.Expired(150));
  EXPECT_EQ(d.Remaining(200), 0);  // never negative
}

TEST(DeadlineTest, CappedOnlyEverTightens) {
  uint64_t seed = 7;
  for (int i = 0; i < 1000; ++i) {
    const SimTime now = SimTime(NextLcg(&seed) % 1'000'000);
    const SimDuration parent_budget = SimDuration(NextLcg(&seed) % 100'000);
    const SimDuration child_budget = SimDuration(NextLcg(&seed) % 100'000);
    const Deadline parent = Deadline::In(now, parent_budget);
    const Deadline child = parent.Capped(now, child_budget);
    EXPECT_LE(child.at_us, parent.at_us);
    EXPECT_LE(child.Remaining(now), parent.Remaining(now));
    EXPECT_LE(child.Remaining(now), child_budget);
    // Capping an unbounded deadline produces exactly the budget.
    EXPECT_EQ(Deadline::None().Capped(now, child_budget).at_us,
              now + child_budget);
  }
}

// ------------------------------------------------------------ Admission

TEST(AdmissionTest, QueueDepthBoundSheds) {
  AdmissionConfig cfg;
  cfg.max_queue_depth = 2;
  AdmissionController ac(cfg);
  EXPECT_EQ(ac.Admit(0, 1, Deadline::None(), 0), AdmissionDecision::kAdmit);
  EXPECT_EQ(ac.Admit(1, 1, Deadline::None(), 0), AdmissionDecision::kAdmit);
  EXPECT_EQ(ac.Admit(2, 1, Deadline::None(), 0),
            AdmissionDecision::kShedQueueFull);
  EXPECT_EQ(ac.admitted(), 2u);
  EXPECT_EQ(ac.shed_queue_full(), 1u);
  EXPECT_EQ(ac.shed_total(), 1u);
}

TEST(AdmissionTest, DeadlineAwareShedding) {
  AdmissionConfig cfg;
  cfg.expected_service_us = 10 * kMillisecond;
  AdmissionController ac(cfg);
  // Plenty of time: admitted even with a deep queue.
  EXPECT_EQ(ac.Admit(10, 1, Deadline::In(0, kSecond), 0),
            AdmissionDecision::kAdmit);
  // 10 queued ahead at 10ms each, 50ms left: reject on arrival.
  EXPECT_EQ(ac.Admit(10, 1, Deadline::In(0, 50 * kMillisecond), 0),
            AdmissionDecision::kShedDeadline);
  // Same depth across 10 servers: expected wait shrinks, admitted.
  EXPECT_EQ(ac.Admit(10, 10, Deadline::In(0, 50 * kMillisecond), 0),
            AdmissionDecision::kAdmit);
  EXPECT_EQ(ac.shed_deadline(), 1u);
}

TEST(AdmissionTest, EwmaTracksObservedService) {
  AdmissionConfig cfg;
  cfg.expected_service_us = 10 * kMillisecond;
  cfg.ewma_alpha = 0.5;
  AdmissionController ac(cfg);
  EXPECT_EQ(ac.expected_service_us(), 10 * kMillisecond);  // prior
  ac.RecordService(2 * kMillisecond);  // first sample replaces the prior
  EXPECT_EQ(ac.expected_service_us(), 2 * kMillisecond);
  ac.RecordService(4 * kMillisecond);
  EXPECT_EQ(ac.expected_service_us(), 3 * kMillisecond);
}

TEST(AdmissionTest, AdmitWithWaitUsesDirectWait) {
  AdmissionConfig cfg;
  cfg.max_wait_us = 5 * kMillisecond;
  cfg.expected_service_us = kMillisecond;
  AdmissionController ac(cfg);
  EXPECT_EQ(ac.AdmitWithWait(4 * kMillisecond, Deadline::None(), 0),
            AdmissionDecision::kAdmit);
  EXPECT_EQ(ac.AdmitWithWait(6 * kMillisecond, Deadline::None(), 0),
            AdmissionDecision::kShedQueueFull);
  EXPECT_EQ(ac.AdmitWithWait(0, Deadline::In(0, kMillisecond / 2), 0),
            AdmissionDecision::kShedDeadline);
}

// ------------------------------------------- RetryBudget (property test)

TEST(RetryBudgetTest, ExactAccountingUnderInterleavedSuccessAndFailure) {
  RetryBudgetConfig cfg;
  cfg.refill_ratio = 0.1;
  cfg.max_tokens = 3.0;
  cfg.initial_tokens = 1.0;
  RetryBudget budget(cfg);

  // Mirror the documented integer arithmetic exactly and check it holds at
  // every step of a long deterministic interleaving.
  const int64_t refill = budget.refill_milli();
  const int64_t max_milli = budget.max_milli();
  ASSERT_EQ(refill, 100);
  ASSERT_EQ(max_milli, 3000);
  int64_t tokens = 1000;
  uint64_t granted = 0, denied = 0;

  uint64_t seed = 42;
  for (int i = 0; i < 100000; ++i) {
    if (NextLcg(&seed) % 3 == 0) {
      budget.RecordSuccess();
      tokens = std::min(tokens + refill, max_milli);
    } else {
      const bool got = budget.TryAcquire();
      if (tokens >= RetryBudget::kMilliPerToken) {
        tokens -= RetryBudget::kMilliPerToken;
        ++granted;
        ASSERT_TRUE(got) << "step " << i;
      } else {
        ++denied;
        ASSERT_FALSE(got) << "step " << i;
      }
    }
    ASSERT_EQ(budget.tokens_milli(), tokens) << "step " << i;
  }
  EXPECT_EQ(budget.granted(), granted);
  EXPECT_EQ(budget.denied(), denied);
  EXPECT_GT(denied, 0u);  // the interleaving actually exhausted the bucket
  EXPECT_GT(granted, 0u);
}

TEST(RetryBudgetTest, RefillsCapRetryFractionOfSuccesses) {
  RetryBudgetConfig cfg;
  cfg.refill_ratio = 0.1;
  cfg.max_tokens = 5.0;
  cfg.initial_tokens = 0.0;
  RetryBudget budget(cfg);
  EXPECT_FALSE(budget.TryAcquire());  // cold + empty
  for (int i = 0; i < 100; ++i) budget.RecordSuccess();
  // 100 successes * 0.1 = 10 tokens, capped at 5.
  EXPECT_EQ(budget.tokens_milli(), 5000);
  int grants = 0;
  while (budget.TryAcquire()) ++grants;
  EXPECT_EQ(grants, 5);  // retries bounded at ~refill_ratio of goodput
}

TEST(RetryBudgetTest, FractionalRefillConservesSubTokenRemainders) {
  // Ratios whose per-success refill is not a whole number of milli-tokens.
  // The old arithmetic truncated the refill to milli once at construction
  // and leaked the sub-milli remainder on every success; with the micro
  // carry the budget must track earned credit exactly (below the cap):
  //   tokens_milli == (N * refill_micro) / 1000, carry == the remainder.
  struct Case {
    double ratio;
    int64_t refill_micro;
  };
  for (const Case c : {Case{1.0 / 3.0, 333333}, Case{0.0007, 700},
                       Case{0.0499, 49900}}) {
    RetryBudgetConfig cfg;
    cfg.refill_ratio = c.ratio;
    cfg.max_tokens = 1e6;  // never saturates: conservation must be exact
    cfg.initial_tokens = 0.0;
    RetryBudget budget(cfg);
    ASSERT_EQ(budget.refill_micro(), c.refill_micro);
    const int kN = 12345;
    for (int i = 0; i < kN; ++i) budget.RecordSuccess();
    const int64_t earned_micro = int64_t(kN) * c.refill_micro;
    EXPECT_EQ(budget.tokens_milli(), earned_micro / 1000) << c.ratio;
    EXPECT_EQ(budget.carry_micro(), earned_micro % 1000) << c.ratio;
  }
}

TEST(RetryBudgetTest, TinyRatioEventuallyGrantsARetry) {
  // ratio 0.0007 truncated to refill_milli == 0 under the old arithmetic:
  // the budget never refilled, so a low-retry-rate tenant starved forever.
  // With the carry, 700 micro per success earns the first whole token
  // after ceil(1e6 / 700) = 1429 successes.
  RetryBudgetConfig cfg;
  cfg.refill_ratio = 0.0007;
  cfg.max_tokens = 10.0;
  cfg.initial_tokens = 0.0;
  RetryBudget budget(cfg);
  int successes = 0;
  while (!budget.TryAcquire()) {
    budget.RecordSuccess();
    ++successes;
    ASSERT_LT(successes, 2000);  // the old code never exits this loop
  }
  EXPECT_EQ(successes, 1429);
}

TEST(RetryBudgetTest, LiveRatioChangeKeepsEarnedCarry) {
  // A mid-stream SetRefillRatio (the ctrl live-config path) changes the
  // rate but must not drop credit already earned.
  RetryBudgetConfig cfg;
  cfg.refill_ratio = 1.0 / 3.0;
  cfg.max_tokens = 100.0;
  cfg.initial_tokens = 0.0;
  RetryBudget budget(cfg);
  budget.RecordSuccess();  // +333 milli, 333 micro carried
  EXPECT_EQ(budget.tokens_milli(), 333);
  EXPECT_EQ(budget.carry_micro(), 333);
  budget.SetRefillRatio(0.0007);
  EXPECT_EQ(budget.refill_micro(), 700);
  budget.RecordSuccess();  // carry 333 + 700 = 1033 -> +1 milli, 33 carried
  EXPECT_EQ(budget.tokens_milli(), 334);
  EXPECT_EQ(budget.carry_micro(), 33);
}

// ------------------------------------------------------------- Hedging

TEST(HedgeTrackerTest, DefaultDelayUntilMinSamples) {
  HedgeConfig cfg;
  cfg.min_samples = 10;
  cfg.default_delay_us = 30 * kMillisecond;
  cfg.min_delay_us = kMillisecond;
  HedgeDelayTracker tracker(cfg);
  EXPECT_EQ(tracker.Delay(), 30 * kMillisecond);
  for (int i = 0; i < 9; ++i) tracker.Record(5 * kMillisecond);
  EXPECT_EQ(tracker.Delay(), 30 * kMillisecond);  // still below min_samples
  tracker.Record(5 * kMillisecond);
  // Quantile of an all-5ms distribution: near 5ms, far from the default.
  EXPECT_LT(tracker.Delay(), 10 * kMillisecond);
  EXPECT_GE(tracker.Delay(), cfg.min_delay_us);
}

TEST(HedgeTrackerTest, DelayTracksTailQuantile) {
  HedgeConfig cfg;
  cfg.min_samples = 10;
  cfg.delay_quantile = 0.95;
  cfg.min_delay_us = kMillisecond;
  HedgeDelayTracker tracker(cfg);
  for (int i = 0; i < 95; ++i) tracker.Record(10 * kMillisecond);
  for (int i = 0; i < 5; ++i) tracker.Record(200 * kMillisecond);
  // p95 sits at the knee: well above the body, at or below the tail
  // (log-bucketing may round the estimate up within its bucket).
  EXPECT_GT(tracker.Delay(), 9 * kMillisecond);
  EXPECT_LE(tracker.Delay(), 500 * kMillisecond);
}

// ------------------------------------------------- Guard metrics + spans

TEST(GuardTest, DecisionsEmitMetricsAndGuardSpans) {
  sim::Simulation sim;
  obs::Observability o(&sim);
  Guard g;
  g.AttachObservability(&o);
  auto root = o.tracer.StartSpan("req", "test", {});
  g.RecordShed("faas", AdmissionDecision::kShedDeadline, root, sim.Now());
  g.RecordShed("pool", AdmissionDecision::kShedQueueFull, root, sim.Now());
  g.RecordRetryDecision("faas", false, root, sim.Now());
  g.RecordRetryDecision("faas", true, root, sim.Now());
  o.tracer.EndSpan(root);

  const auto stats = g.stats();
  EXPECT_EQ(stats.shed_deadline, 1u);
  EXPECT_EQ(stats.shed_queue_full, 1u);
  EXPECT_EQ(stats.retries_denied, 1u);
  EXPECT_EQ(stats.retries_granted, 1u);

  int guard_spans = 0;
  for (const auto& s : o.tracer.spans()) {
    auto it = s.attrs.find(obs::kCategoryAttr);
    if (it != s.attrs.end() && it->second == "guard") ++guard_spans;
  }
  // Both sheds and the denial emit spans; the grant is metric-only.
  EXPECT_EQ(guard_spans, 3);
}

TEST(GuardTest, CriticalPathItemizesGuardCategory) {
  sim::Simulation sim;
  obs::Observability o(&sim);
  Guard g;
  g.AttachObservability(&o);
  auto root = o.tracer.StartSpan("req", "test", {});
  g.EmitGuardSpan("hedge-wait", "faas", root, 0, 40);
  sim.Schedule(100, [&] { o.tracer.EndSpan(root); });
  sim.Run();

  auto breakdown = obs::AnalyzeCriticalPath(o.tracer, root.span_id);
  ASSERT_TRUE(breakdown.ok());
  EXPECT_EQ(breakdown->total_us, 100);
  EXPECT_EQ(breakdown->Get(obs::Category::kGuard), 40);
  EXPECT_EQ(breakdown->Get(obs::Category::kOther), 60);
}

// ------------------------------------- IdempotencyCache LRU (satellite)

TEST(IdempotencyLruTest, UnboundedByDefault) {
  chaos::IdempotencyCache cache;
  for (int i = 0; i < 1000; ++i) {
    cache.Record("k" + std::to_string(i), Status::OK(), "v");
  }
  EXPECT_EQ(cache.size(), 1000u);
  EXPECT_EQ(cache.evictions(), 0u);
}

TEST(IdempotencyLruTest, EvictsLeastRecentlyUsedAtCapacity) {
  chaos::IdempotencyCache cache(3);
  cache.Record("a", Status::OK(), "1");
  cache.Record("b", Status::OK(), "2");
  cache.Record("c", Status::OK(), "3");
  cache.Record("d", Status::OK(), "4");  // evicts "a" (oldest)
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_EQ(cache.Lookup("a"), nullptr);
  EXPECT_NE(cache.Lookup("b"), nullptr);
}

TEST(IdempotencyLruTest, LookupRefreshesRecency) {
  chaos::IdempotencyCache cache(2);
  cache.Record("a", Status::OK(), "1");
  cache.Record("b", Status::OK(), "2");
  ASSERT_NE(cache.Lookup("a"), nullptr);   // "a" becomes most recent
  cache.Record("c", Status::OK(), "3");    // evicts "b", not "a"
  EXPECT_NE(cache.Lookup("a"), nullptr);
  EXPECT_EQ(cache.Lookup("b"), nullptr);
  EXPECT_EQ(cache.evictions(), 1u);
}

TEST(IdempotencyLruTest, DuplicateRecordRefreshesAndKeepsOriginal) {
  chaos::IdempotencyCache cache(2);
  ASSERT_TRUE(cache.Record("a", Status::OK(), "first"));
  EXPECT_FALSE(cache.Record("a", Status::OK(), "second"));
  EXPECT_EQ(cache.duplicate_records(), 1u);
  EXPECT_EQ(cache.Lookup("a")->output, "first");  // first writer wins
}

TEST(IdempotencyLruTest, SetCapacityShrinksToBound) {
  chaos::IdempotencyCache cache;
  for (int i = 0; i < 10; ++i) {
    cache.Record("k" + std::to_string(i), Status::OK(), "v");
  }
  cache.set_capacity(4);
  EXPECT_EQ(cache.size(), 4u);
  EXPECT_EQ(cache.evictions(), 6u);
  // The four most recently recorded survive.
  EXPECT_NE(cache.Lookup("k9"), nullptr);
  EXPECT_EQ(cache.Lookup("k0"), nullptr);
}

// ---------------------------------------- CircuitBreaker (satellite)

TEST(CircuitBreakerTest, HalfOpenRequiresConfiguredSuccessRun) {
  chaos::CircuitBreaker::Config cfg;
  cfg.failure_threshold = 2;
  cfg.open_duration_us = 100;
  cfg.half_open_probes = 3;
  cfg.half_open_successes = 3;
  chaos::CircuitBreaker breaker(cfg);
  breaker.RecordFailure(0);
  breaker.RecordFailure(0);
  EXPECT_EQ(breaker.state(0), chaos::CircuitBreaker::State::kOpen);
  // Window lapses -> half-open; two successes are not enough to close.
  EXPECT_TRUE(breaker.AllowRequest(100));
  breaker.RecordSuccess(100);
  EXPECT_EQ(breaker.state(100), chaos::CircuitBreaker::State::kHalfOpen);
  EXPECT_TRUE(breaker.AllowRequest(101));
  breaker.RecordSuccess(101);
  EXPECT_EQ(breaker.state(101), chaos::CircuitBreaker::State::kHalfOpen);
  // The third closes it.
  EXPECT_TRUE(breaker.AllowRequest(102));
  breaker.RecordSuccess(102);
  EXPECT_EQ(breaker.state(102), chaos::CircuitBreaker::State::kClosed);
  EXPECT_EQ(breaker.half_open_count(), 1u);
  EXPECT_EQ(breaker.close_count(), 1u);
}

TEST(CircuitBreakerTest, TransitionsExportedAsMetrics) {
  obs::Registry registry;
  chaos::CircuitBreaker::Config cfg;
  cfg.failure_threshold = 1;
  cfg.open_duration_us = 100;
  chaos::CircuitBreaker breaker(cfg);
  breaker.BindMetrics(&registry, "pool");
  breaker.RecordFailure(0);  // trip
  EXPECT_FALSE(breaker.AllowRequest(10));  // shed while open
  EXPECT_TRUE(breaker.AllowRequest(100));  // half-open probe
  breaker.RecordSuccess(100);              // close
  EXPECT_EQ(registry.GetCounter("pool.breaker_trips")->value(), 1u);
  EXPECT_EQ(registry.GetCounter("pool.breaker_half_opens")->value(), 1u);
  EXPECT_EQ(registry.GetCounter("pool.breaker_closes")->value(), 1u);
  EXPECT_EQ(registry.GetCounter("pool.breaker_shed")->value(), 1u);
  EXPECT_EQ(registry.GetGauge("pool.breaker_state")->value(), 0);  // closed
}

// ------------------------------------------------- ServerPool admission

TEST(ServerPoolGuardTest, BoundedQueueAndDeadlineShedding) {
  sim::Simulation sim;
  faas::ServerPoolConfig cfg;
  cfg.num_servers = 1;
  cfg.per_server_concurrency = 1;
  cfg.enable_admission = true;
  cfg.admission.max_queue_depth = 2;
  faas::ServerPool pool(&sim, cfg);

  // First request takes the only slot (idle pools always admit) and seeds
  // the service EWMA at 10ms.
  EXPECT_TRUE(pool.Submit(10 * kMillisecond));
  // Saturated, queue empty: a 100us budget cannot cover the expected 10ms
  // service — shed on arrival with the deadline reason.
  EXPECT_FALSE(
      pool.Submit(10 * kMillisecond, nullptr, Deadline::In(sim.Now(), 100)));
  EXPECT_EQ(pool.admission().shed_deadline(), 1u);
  // Two queue; the next sheds on queue depth.
  EXPECT_TRUE(pool.Submit(10 * kMillisecond));
  EXPECT_TRUE(pool.Submit(10 * kMillisecond));
  EXPECT_FALSE(pool.Submit(10 * kMillisecond));
  EXPECT_EQ(pool.admission().shed_queue_full(), 1u);
  EXPECT_EQ(pool.shed_requests(), 2u);
  sim.Run();
}

TEST(ServerPoolGuardTest, QueuedRequestDroppedWhenDeadlineLapses) {
  sim::Simulation sim;
  faas::ServerPoolConfig cfg;
  cfg.num_servers = 1;
  cfg.per_server_concurrency = 1;
  cfg.enable_admission = true;
  faas::ServerPool pool(&sim, cfg);
  bool doomed_ran = false;
  // A short request seeds the EWMA at 1ms and frees the slot quickly...
  EXPECT_TRUE(pool.Submit(kMillisecond));
  // ...a long one then queues (no deadline), holding the slot to t=101ms...
  EXPECT_TRUE(pool.Submit(100 * kMillisecond));
  // ...so this 10ms-budget request passes admission (expected wait ~1ms
  // against the seeded EWMA) but lapses long before the slot frees — the
  // guard drops it from the queue instead of running doomed work.
  EXPECT_TRUE(pool.Submit(kMillisecond,
                          [&](SimDuration) { doomed_ran = true; },
                          Deadline::In(sim.Now(), 10 * kMillisecond)));
  sim.Run();
  EXPECT_FALSE(doomed_ran);
  EXPECT_EQ(pool.deadline_expired(), 1u);
  EXPECT_EQ(pool.completed(), 2u);
}

// ------------------------------------------------- Platform admission

struct PlatformFixture {
  sim::Simulation sim;
  cluster::Cluster cluster{8, {32000, 65536}};
  faas::FaasConfig config;
  Guard guard;
  std::unique_ptr<faas::FaasPlatform> platform;

  explicit PlatformFixture(faas::FaasConfig cfg = {},
                           GuardConfig gcfg = {})
      : config(cfg), guard(gcfg) {
    platform = std::make_unique<faas::FaasPlatform>(&sim, &cluster, config);
    platform->AttachGuard(&guard);
  }

  faas::FunctionSpec Spec(const std::string& name, SimDuration exec,
                          double failure_prob = 0.0) {
    faas::FunctionSpec spec;
    spec.name = name;
    spec.exec = {faas::ExecTimeModel::Kind::kFixed, exec, 0, 0};
    spec.init_us = 10 * kMillisecond;
    spec.failure_prob = failure_prob;
    return spec;
  }
};

TEST(PlatformGuardTest, ShedsDoomedArrivalsAndExpiresQueuedWork) {
  faas::FaasConfig cfg;
  cfg.max_concurrency = 1;
  cfg.enable_admission = true;
  cfg.admission.expected_service_us = 10 * kMillisecond;
  PlatformFixture f(cfg);
  ASSERT_TRUE(f.platform->RegisterFunction(f.Spec("fn", 50 * kMillisecond)).ok());

  // Doomed on arrival: 1ms of budget against a 10ms expected service.
  std::optional<Status> shed_status;
  auto r = f.platform->Invoke(
      "fn", "", [&](const faas::InvocationResult& res) {
        shed_status = res.status;
      },
      {}, Deadline::In(f.sim.Now(), kMillisecond));
  ASSERT_TRUE(r.ok());

  // Admitted but overtaken: queued behind a 50ms run with a 20ms budget.
  std::optional<Status> first, doomed;
  f.platform->Invoke("fn", "", [&](const faas::InvocationResult& res) {
    first = res.status;
  });
  f.platform->Invoke(
      "fn", "", [&](const faas::InvocationResult& res) { doomed = res.status; },
      {}, Deadline::In(f.sim.Now(), 20 * kMillisecond));
  f.sim.Run();

  ASSERT_TRUE(shed_status.has_value());
  EXPECT_TRUE(shed_status->IsDeadlineExceeded());
  ASSERT_TRUE(first.has_value());
  EXPECT_TRUE(first->ok());
  ASSERT_TRUE(doomed.has_value());
  EXPECT_TRUE(doomed->IsDeadlineExceeded());
  const auto stats = f.guard.stats();
  EXPECT_EQ(stats.shed_deadline, 1u);
  EXPECT_GE(stats.deadline_exceeded, 1u);
}

TEST(PlatformGuardTest, AdmissionQueueBoundSheds) {
  faas::FaasConfig cfg;
  cfg.max_concurrency = 1;
  cfg.enable_admission = true;
  cfg.admission.max_queue_depth = 1;
  PlatformFixture f(cfg);
  ASSERT_TRUE(f.platform->RegisterFunction(f.Spec("fn", 50 * kMillisecond)).ok());
  int ok = 0, exhausted = 0;
  auto cb = [&](const faas::InvocationResult& res) {
    if (res.status.ok()) ++ok;
    if (res.status.IsResourceExhausted()) ++exhausted;
  };
  auto submit = [&] { f.platform->Invoke("fn", "", cb); };
  // The first runs (50ms); the second arrives once it holds the slot and
  // queues; the last two arrive against a full depth-1 queue and shed.
  submit();
  f.sim.Schedule(5 * kMillisecond, submit);
  f.sim.Schedule(10 * kMillisecond, submit);
  f.sim.Schedule(11 * kMillisecond, submit);
  f.sim.Run();
  EXPECT_EQ(ok, 2);
  EXPECT_EQ(exhausted, 2);
  EXPECT_EQ(f.guard.stats().shed_queue_full, 2u);
}

TEST(PlatformGuardTest, RetryBudgetCapsPlatformRetries) {
  faas::FaasConfig cfg;
  cfg.retry = chaos::RetryPolicy::Immediate(6);  // 5 retries unguarded
  GuardConfig gcfg;
  gcfg.retry_budget.initial_tokens = 2.0;
  gcfg.retry_budget.refill_ratio = 0.0;
  PlatformFixture f(cfg, gcfg);
  ASSERT_TRUE(
      f.platform->RegisterFunction(f.Spec("flaky", kMillisecond, 1.0)).ok());
  std::optional<faas::InvocationResult> res;
  f.platform->Invoke("flaky", "",
                     [&](const faas::InvocationResult& r) { res = r; });
  f.sim.Run();
  ASSERT_TRUE(res.has_value());
  EXPECT_FALSE(res->status.ok());
  // 1 initial attempt + exactly the 2 budgeted retries.
  EXPECT_EQ(res->attempts, 3);
  EXPECT_EQ(f.guard.stats().retries_granted, 2u);
  EXPECT_EQ(f.guard.stats().retries_denied, 1u);
}

// ------------------------------------------------ Hedging (property 3)

TEST(PlatformGuardTest, HedgedInvokeDeliversOnceAndNeverDoubleBills) {
  GuardConfig gcfg;
  gcfg.hedge.default_delay_us = 5 * kMillisecond;
  gcfg.hedge.min_samples = 1000000;  // pin the default delay
  gcfg.hedge.min_delay_us = kMillisecond;

  // Reference: the same function, invoked plainly, on an identical world.
  Money solo_cost;
  {
    PlatformFixture ref;
    ASSERT_TRUE(
        ref.platform->RegisterFunction(ref.Spec("fn", 50 * kMillisecond)).ok());
    auto res = ref.platform->InvokeSync("fn", "x");
    ASSERT_TRUE(res.ok());
    solo_cost = res->cost;
  }

  PlatformFixture f({}, gcfg);
  ASSERT_TRUE(f.platform->RegisterFunction(f.Spec("fn", 50 * kMillisecond)).ok());
  int deliveries = 0;
  std::optional<faas::InvocationResult> res;
  auto r = f.platform->InvokeHedged("fn", "x",
                                    [&](const faas::InvocationResult& rr) {
                                      ++deliveries;
                                      res = rr;
                                    });
  ASSERT_TRUE(r.ok());
  f.sim.Run();

  // Exactly one delivery, successful.
  EXPECT_EQ(deliveries, 1);
  ASSERT_TRUE(res.has_value());
  EXPECT_TRUE(res->status.ok());

  const auto stats = f.guard.stats();
  EXPECT_EQ(stats.hedges_launched, 1u);
  // The loser was cancelled mid-flight or its late completion was deduped —
  // either way it never reached the caller.
  EXPECT_EQ(stats.hedge_cancelled + stats.hedge_deduped, 1u);
  // No double billing: the winner's cost equals the un-hedged cost; the
  // duplicate's burn is accounted as guard-visible waste, not caller cost.
  EXPECT_EQ(res->cost.nano_dollars(), solo_cost.nano_dollars());
  if (stats.hedge_cancelled > 0) {
    EXPECT_GT(f.guard.hedge_wasted_us(), 0);
  }
  // The dedupe cache holds exactly one record for the hedge key.
  EXPECT_EQ(f.guard.dedupe().size(), 1u);
}

TEST(PlatformGuardTest, HedgeIsNoopWithoutGuard) {
  sim::Simulation sim;
  cluster::Cluster cl{8, {32000, 65536}};
  faas::FaasPlatform platform(&sim, &cl, {});
  faas::FunctionSpec spec;
  spec.name = "fn";
  spec.exec = {faas::ExecTimeModel::Kind::kFixed, kMillisecond, 0, 0};
  ASSERT_TRUE(platform.RegisterFunction(spec).ok());
  int deliveries = 0;
  auto r = platform.InvokeHedged(
      "fn", "", [&](const faas::InvocationResult&) { ++deliveries; });
  ASSERT_TRUE(r.ok());
  sim.Run();
  EXPECT_EQ(deliveries, 1);  // falls back to a plain invoke
}

// -------------------------------- Orchestrator deadlines (property 1)

struct OrchestratorFixture {
  sim::Simulation sim;
  cluster::Cluster cluster{16, {64000, 1 << 20}};
  obs::Observability o{&sim};
  Guard guard;
  std::unique_ptr<faas::FaasPlatform> platform;
  std::unique_ptr<orchestration::Orchestrator> orch;

  explicit OrchestratorFixture(faas::FaasConfig cfg = {}) {
    platform = std::make_unique<faas::FaasPlatform>(&sim, &cluster, cfg);
    orch = std::make_unique<orchestration::Orchestrator>(&sim, platform.get());
    platform->AttachObservability(&o);
    orch->AttachObservability(&o);
    guard.AttachObservability(&o);
  }

  void AddFn(const std::string& name, SimDuration exec,
             double failure_prob = 0.0) {
    faas::FunctionSpec spec;
    spec.name = name;
    spec.exec = {faas::ExecTimeModel::Kind::kFixed, exec, 0, 0};
    spec.init_us = kMillisecond;
    spec.failure_prob = failure_prob;
    ASSERT_TRUE(platform->RegisterFunction(spec).ok());
  }

  orchestration::ExecutionResult Run(const orchestration::Composition& comp,
                                     Deadline deadline) {
    std::optional<orchestration::ExecutionResult> out;
    orch->Run(comp, "in",
              [&](const orchestration::ExecutionResult& r) { out = r; },
              deadline);
    sim.Run();
    EXPECT_TRUE(out.has_value());
    return *out;
  }

  /// Property 1: for every span carrying a deadline_us attribute, the
  /// deadline is no looser than the nearest ancestor's deadline_us.
  void AssertDeadlinesOnlyTighten(int* checked) {
    std::map<uint64_t, const obs::Span*> by_id;
    for (const auto& s : o.tracer.spans()) by_id[s.id] = &s;
    for (const auto& s : o.tracer.spans()) {
      auto mine = s.attrs.find("deadline_us");
      if (mine == s.attrs.end()) continue;
      uint64_t parent = s.parent;
      while (parent != 0) {
        const obs::Span* p = by_id.at(parent);
        auto theirs = p->attrs.find("deadline_us");
        if (theirs != p->attrs.end()) {
          EXPECT_LE(std::stoll(std::string(mine->second)),
                    std::stoll(std::string(theirs->second)))
              << "span '" << s.name << "' outlives ancestor '" << p->name
              << "'";
          ++*checked;
          break;
        }
        parent = p->parent;
      }
    }
  }
};

TEST(OrchestratorGuardTest, ChildDeadlineNeverExceedsParentBudget) {
  using orchestration::Composition;
  OrchestratorFixture f;
  f.AddFn("a", 2 * kMillisecond);
  f.AddFn("b", 2 * kMillisecond);
  f.AddFn("c", 2 * kMillisecond);

  // Nested budgets across sequence/parallel/map shapes.
  auto comp = Composition::WithDeadline(
      Composition::Sequence(
          {Composition::Task("a"),
           Composition::WithDeadline(
               Composition::Parallel(
                   {Composition::Task("b"),
                    Composition::WithDeadline(Composition::Task("c"),
                                              40 * kMillisecond)}),
               120 * kMillisecond),
           Composition::Task("a")}),
      400 * kMillisecond);
  auto res = f.Run(comp, Deadline::In(0, kSecond));
  EXPECT_TRUE(res.status.ok());

  int checked = 0;
  f.AssertDeadlinesOnlyTighten(&checked);
  EXPECT_GE(checked, 4);  // every step under a scope was checked
}

TEST(OrchestratorGuardTest, DeepNestingPropertyHolds) {
  using orchestration::Composition;
  OrchestratorFixture f;
  f.AddFn("leaf", kMillisecond);

  // Budgets shrink and occasionally widen down 12 levels (all generous
  // enough that the run completes); the *effective* deadline may only ever
  // tighten regardless of what each level asks for.
  uint64_t seed = 99;
  auto comp = Composition::Task("leaf");
  for (int depth = 0; depth < 12; ++depth) {
    const SimDuration budget =
        SimDuration(200 + NextLcg(&seed) % 300) * kMillisecond;
    comp = Composition::WithDeadline(
        Composition::Sequence({Composition::Task("leaf"), comp}), budget);
  }
  auto res = f.Run(comp, Deadline::In(0, 10 * kSecond));
  EXPECT_TRUE(res.status.ok());
  int checked = 0;
  f.AssertDeadlinesOnlyTighten(&checked);
  EXPECT_GE(checked, 12);
}

TEST(OrchestratorGuardTest, ExpiredDeadlineCancelsRemainingSubtree) {
  using orchestration::Composition;
  OrchestratorFixture f;
  f.AddFn("slow", 50 * kMillisecond);
  auto comp = Composition::Sequence(
      {Composition::Task("slow"), Composition::Task("slow")});
  // Budget covers neither task; the first runs (admission is off at the
  // platform), then the sequence cancels the rest.
  auto res = f.Run(comp, Deadline::In(0, 10 * kMillisecond));
  EXPECT_TRUE(res.status.IsDeadlineExceeded());
  EXPECT_EQ(res.function_invocations, 1u);
}

TEST(OrchestratorGuardTest, RetryNodeDrawsFromGuardBudget) {
  using orchestration::Composition;
  faas::FaasConfig cfg;
  cfg.retry = chaos::RetryPolicy::Immediate(1);  // no platform-level retries
  OrchestratorFixture f(cfg);
  f.AddFn("flaky", kMillisecond, 1.0);

  GuardConfig gcfg;
  gcfg.retry_budget.initial_tokens = 1.0;
  gcfg.retry_budget.refill_ratio = 0.0;
  Guard guard(gcfg);
  f.orch->AttachGuard(&guard);

  auto res = f.Run(Composition::Retry(Composition::Task("flaky"),
                                     chaos::RetryPolicy::Immediate(5)),
                   Deadline::None());
  EXPECT_FALSE(res.status.ok());
  // 1 initial attempt + 1 budgeted re-attempt; 3 would-be retries denied.
  EXPECT_EQ(res.function_invocations, 2u);
  EXPECT_EQ(guard.retry_budget().granted(), 1u);
  EXPECT_EQ(guard.retry_budget().denied(), 1u);
}

TEST(OrchestratorGuardTest, IdempotencyCapacityIsConfigurable) {
  using orchestration::Composition;
  OrchestratorFixture f;
  f.AddFn("fn", kMillisecond);
  f.orch->set_idempotency_capacity(2);
  auto comp = Composition::Sequence(
      {Composition::Task("fn"), Composition::Task("fn"),
       Composition::Task("fn"), Composition::Task("fn")});
  std::optional<orchestration::ExecutionResult> out;
  f.orch->RunKeyed("run1", comp, "in",
                   [&](const orchestration::ExecutionResult& r) { out = r; });
  f.sim.Run();
  ASSERT_TRUE(out.has_value());
  EXPECT_TRUE(out->status.ok());
  EXPECT_LE(f.orch->idempotency().size(), 2u);
  EXPECT_GT(f.orch->idempotency().evictions(), 0u);
}

// ------------------------------------------------------ Pubsub admission

TEST(PubsubGuardTest, ShedsPublishesOnBacklogAndDeadline) {
  sim::Simulation sim;
  pubsub::PulsarConfig cfg;
  cfg.num_brokers = 1;
  cfg.broker_proc_base_us = 500;
  cfg.enable_admission = true;
  cfg.admission.max_wait_us = 2 * kMillisecond;
  pubsub::PulsarCluster cluster(&sim, cfg);
  Guard guard;
  cluster.AttachGuard(&guard);
  ASSERT_TRUE(cluster.CreateTopic("t", {.partitions = 1}).ok());

  // Each publish adds >=500us of broker backlog; past ~4 the wait bound
  // trips and the rest shed.
  int accepted = 0, shed = 0;
  for (int i = 0; i < 20; ++i) {
    auto r = cluster.Publish("t", "", "payload");
    if (r.ok()) {
      ++accepted;
    } else {
      EXPECT_TRUE(r.status().IsResourceExhausted());
      ++shed;
    }
  }
  EXPECT_GT(accepted, 0);
  EXPECT_GT(shed, 0);
  EXPECT_EQ(cluster.metrics().shed, uint64_t(shed));
  EXPECT_EQ(guard.stats().shed_queue_full, uint64_t(shed));
  sim.Run();

  // Deadline-aware: a publish that cannot reach durability in time is
  // rejected with DeadlineExceeded.
  auto doomed =
      cluster.Publish("t", "", "p", {}, Deadline::In(sim.Now(), 10));
  EXPECT_TRUE(doomed.status().IsDeadlineExceeded());
  EXPECT_GT(guard.stats().shed_deadline, 0u);
}

// ------------------------------------------------------- Jiffy admission

TEST(JiffyGuardTest, ShedsControlOpsUnderPoolPressureAndDeadline) {
  sim::Simulation sim;
  jiffy::JiffyConfig cfg;
  cfg.num_memory_nodes = 1;
  cfg.blocks_per_node = 8;
  cfg.enable_admission = true;
  cfg.min_free_block_fraction = 0.5;
  jiffy::JiffyController controller(&sim, cfg);
  Guard guard;
  controller.AttachGuard(&guard);

  ASSERT_TRUE(controller.CreateNamespace("/job").ok());
  // Consume 5 of 8 blocks; free fraction falls to 3/8 < 0.5.
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(controller.pool().Allocate("job").ok());
  }
  auto q = controller.CreateQueue("/job", "q");
  EXPECT_TRUE(q.status().IsResourceExhausted());
  EXPECT_EQ(controller.stats().ops_shed, 1u);
  EXPECT_EQ(guard.stats().shed_queue_full, 1u);

  // Deadline-aware: an expired caller budget sheds even without pressure.
  jiffy::JiffyConfig roomy;
  roomy.enable_admission = true;
  jiffy::JiffyController c2(&sim, roomy);
  const Status doomed = c2.CreateNamespace("/a", 0, Deadline::At(0));
  EXPECT_TRUE(doomed.IsDeadlineExceeded());
  EXPECT_FALSE(c2.Exists("/a"));
}

}  // namespace
}  // namespace taureau
