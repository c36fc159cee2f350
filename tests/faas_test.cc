// Unit tests for the FaaS platform: lifecycle, cold/warm starts, keep-alive,
// throttling, timeouts, retries, billing, server-pool baseline, predictive
// pre-warming and per-function reserved concurrency.
#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <vector>

#include "cluster/cluster.h"
#include "faas/billing.h"
#include "faas/platform.h"
#include "faas/prewarmer.h"
#include "faas/server_pool.h"
#include "sim/simulation.h"

namespace taureau::faas {
namespace {

struct Fixture {
  sim::Simulation sim;
  cluster::Cluster cluster{8, {32000, 65536}};
  FaasConfig config;
  std::unique_ptr<FaasPlatform> platform;

  explicit Fixture(FaasConfig cfg = {}) : config(cfg) {
    platform = std::make_unique<FaasPlatform>(&sim, &cluster, config);
  }

  FunctionSpec SimpleSpec(const std::string& name,
                          SimDuration exec = 50 * kMillisecond) {
    FunctionSpec spec;
    spec.name = name;
    spec.exec = {ExecTimeModel::Kind::kFixed, exec, 0, 0};
    spec.init_us = 100 * kMillisecond;
    return spec;
  }
};

// ------------------------------------------------------------ Registration

TEST(FaasPlatformTest, RegisterAndLookup) {
  Fixture f;
  ASSERT_TRUE(f.platform->RegisterFunction(f.SimpleSpec("fn")).ok());
  auto spec = f.platform->GetFunction("fn");
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ(spec->name, "fn");
  EXPECT_TRUE(f.platform->GetFunction("ghost").status().IsNotFound());
}

TEST(FaasPlatformTest, DuplicateRegistrationFails) {
  Fixture f;
  ASSERT_TRUE(f.platform->RegisterFunction(f.SimpleSpec("fn")).ok());
  EXPECT_TRUE(
      f.platform->RegisterFunction(f.SimpleSpec("fn")).IsAlreadyExists());
}

TEST(FaasPlatformTest, InvalidSpecsRejected) {
  Fixture f;
  FunctionSpec unnamed;
  unnamed.name = "";
  EXPECT_TRUE(f.platform->RegisterFunction(unnamed).IsInvalidArgument());
  FunctionSpec bad_timeout = f.SimpleSpec("t");
  bad_timeout.timeout_us = 0;
  EXPECT_TRUE(f.platform->RegisterFunction(bad_timeout).IsInvalidArgument());
}

TEST(FaasPlatformTest, InvokeUnknownFunctionFails) {
  Fixture f;
  EXPECT_TRUE(
      f.platform->Invoke("ghost", "", nullptr).status().IsNotFound());
}

// -------------------------------------------------------- Cold/warm starts

TEST(FaasPlatformTest, FirstInvocationIsCold) {
  Fixture f;
  ASSERT_TRUE(f.platform->RegisterFunction(f.SimpleSpec("fn")).ok());
  auto res = f.platform->InvokeSync("fn", "payload");
  ASSERT_TRUE(res.ok());
  EXPECT_TRUE(res->status.ok());
  EXPECT_TRUE(res->cold_start);
  EXPECT_GT(res->startup_us, 100 * kMillisecond);  // runtime + init
  EXPECT_EQ(f.platform->metrics().cold_starts, 1u);
}

TEST(FaasPlatformTest, SecondInvocationIsWarm) {
  Fixture f;
  ASSERT_TRUE(f.platform->RegisterFunction(f.SimpleSpec("fn")).ok());
  ASSERT_TRUE(f.platform->InvokeSync("fn", "a").ok());
  auto res = f.platform->InvokeSync("fn", "b");
  ASSERT_TRUE(res.ok());
  EXPECT_FALSE(res->cold_start);
  EXPECT_EQ(res->startup_us, 0);
  EXPECT_EQ(f.platform->metrics().warm_starts, 1u);
}

TEST(FaasPlatformTest, WarmStartMuchFasterThanCold) {
  Fixture f;
  ASSERT_TRUE(f.platform->RegisterFunction(f.SimpleSpec("fn")).ok());
  auto cold = f.platform->InvokeSync("fn", "a");
  auto warm = f.platform->InvokeSync("fn", "b");
  ASSERT_TRUE(cold.ok());
  ASSERT_TRUE(warm.ok());
  EXPECT_GT(cold->EndToEnd(), warm->EndToEnd() + 100 * kMillisecond);
}

TEST(FaasPlatformTest, KeepAliveExpiryForcesColdStart) {
  FaasConfig cfg;
  cfg.keep_alive_us = 1 * kMinute;
  Fixture f(cfg);
  ASSERT_TRUE(f.platform->RegisterFunction(f.SimpleSpec("fn")).ok());
  ASSERT_TRUE(f.platform->InvokeSync("fn", "a").ok());
  EXPECT_EQ(f.platform->warm_container_count("fn"), 1u);
  // Let the keep-alive lapse.
  f.sim.RunUntil(f.sim.Now() + 2 * kMinute);
  EXPECT_EQ(f.platform->warm_container_count("fn"), 0u);
  auto res = f.platform->InvokeSync("fn", "b");
  ASSERT_TRUE(res.ok());
  EXPECT_TRUE(res->cold_start);
}

TEST(FaasPlatformTest, ZeroKeepAliveAlwaysCold) {
  FaasConfig cfg;
  cfg.keep_alive_us = 0;
  Fixture f(cfg);
  ASSERT_TRUE(f.platform->RegisterFunction(f.SimpleSpec("fn")).ok());
  for (int i = 0; i < 3; ++i) {
    auto res = f.platform->InvokeSync("fn", "x");
    ASSERT_TRUE(res.ok());
    EXPECT_TRUE(res->cold_start) << i;
  }
  EXPECT_EQ(f.platform->metrics().cold_starts, 3u);
}

TEST(FaasPlatformTest, StatelessnessContainerCacheScopedToContainer) {
  // §4.1: functions are stateless; warm-container cache survives only while
  // the container lives.
  FaasConfig cfg;
  cfg.keep_alive_us = 1 * kMinute;
  Fixture f(cfg);
  FunctionSpec spec = f.SimpleSpec("counter");
  spec.handler = [](const std::string&, InvocationContext& ctx)
      -> Result<std::string> {
    auto& cache = *ctx.container_cache;
    const int prev = cache.count("n") ? std::stoi(cache["n"]) : 0;
    cache["n"] = std::to_string(prev + 1);
    return cache["n"];
  };
  ASSERT_TRUE(f.platform->RegisterFunction(spec).ok());
  EXPECT_EQ(f.platform->InvokeSync("counter", "")->output, "1");
  EXPECT_EQ(f.platform->InvokeSync("counter", "")->output, "2");  // warm
  f.sim.RunUntil(f.sim.Now() + 2 * kMinute);  // container dies
  EXPECT_EQ(f.platform->InvokeSync("counter", "")->output, "1");  // fresh
}

// ----------------------------------------------------- Timeouts + retries

TEST(FaasPlatformTest, TimeoutKillsAndRetries) {
  FaasConfig cfg;
  cfg.retry = chaos::RetryPolicy::Immediate(2);
  Fixture f(cfg);
  FunctionSpec spec = f.SimpleSpec("slow", /*exec=*/10 * kMinute);
  spec.timeout_us = 1 * kSecond;
  ASSERT_TRUE(f.platform->RegisterFunction(spec).ok());
  auto res = f.platform->InvokeSync("slow", "");
  ASSERT_TRUE(res.ok());
  EXPECT_TRUE(res->status.IsTimeout());
  EXPECT_EQ(res->attempts, 2);  // original + 1 retry
  EXPECT_EQ(f.platform->metrics().timeouts, 2u);
  EXPECT_EQ(res->exec_us, 1 * kSecond);  // killed at the limit
}

TEST(FaasPlatformTest, InjectedFailureRetriesThenSucceeds) {
  FaasConfig cfg;
  cfg.retry = chaos::RetryPolicy::Immediate(6);
  Fixture f(cfg);
  FunctionSpec spec = f.SimpleSpec("flaky");
  int calls = 0;
  spec.handler = [&calls](const std::string&, InvocationContext&)
      -> Result<std::string> {
    if (++calls < 3) return Status::Aborted("transient");
    return std::string("ok");
  };
  ASSERT_TRUE(f.platform->RegisterFunction(spec).ok());
  auto res = f.platform->InvokeSync("flaky", "");
  ASSERT_TRUE(res.ok());
  EXPECT_TRUE(res->status.ok());
  EXPECT_EQ(res->output, "ok");
  EXPECT_EQ(res->attempts, 3);
  EXPECT_EQ(calls, 3);
}

TEST(FaasPlatformTest, RetriesExhaustedReportsFailure) {
  // The default policy (three immediate attempts) is what every bench,
  // example and workload that leaves FaasConfig::retry unset runs with.
  Fixture f;
  FunctionSpec spec = f.SimpleSpec("doomed");
  spec.handler = [](const std::string&, InvocationContext&)
      -> Result<std::string> { return Status::Aborted("always"); };
  ASSERT_TRUE(f.platform->RegisterFunction(spec).ok());
  auto res = f.platform->InvokeSync("doomed", "");
  ASSERT_TRUE(res.ok());
  EXPECT_TRUE(res->status.IsAborted());
  EXPECT_EQ(res->attempts, 3);
  EXPECT_EQ(f.platform->metrics().exhausted, 1u);
}

TEST(FaasPlatformTest, EveryAttemptIsBilled) {
  // Real FaaS platforms bill failed attempts too.
  FaasConfig cfg;
  cfg.retry = chaos::RetryPolicy::Immediate(3);
  Fixture f(cfg);
  FunctionSpec spec = f.SimpleSpec("doomed");
  spec.handler = [](const std::string&, InvocationContext&)
      -> Result<std::string> { return Status::Aborted("always"); };
  ASSERT_TRUE(f.platform->RegisterFunction(spec).ok());
  auto res = f.platform->InvokeSync("doomed", "");
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(f.platform->ledger().record_count(), 3u);
  EXPECT_EQ(res->cost, f.platform->ledger().Total());
}

// -------------------------------------------------------------- Throttling

TEST(FaasPlatformTest, ThrottleRejectsWhenConfigured) {
  FaasConfig cfg;
  cfg.max_concurrency = 1;
  cfg.queue_on_throttle = false;
  Fixture f(cfg);
  ASSERT_TRUE(
      f.platform->RegisterFunction(f.SimpleSpec("fn", kSecond)).ok());
  int ok = 0, throttled = 0;
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(f.platform
                    ->Invoke("fn", "",
                             [&](const InvocationResult& r) {
                               r.status.ok() ? ++ok : ++throttled;
                             })
                    .ok());
  }
  f.sim.Run();
  EXPECT_EQ(ok, 1);
  EXPECT_EQ(throttled, 2);
  EXPECT_EQ(f.platform->metrics().throttled, 2u);
}

TEST(FaasPlatformTest, QueueDrainsWhenCapacityFrees) {
  FaasConfig cfg;
  cfg.max_concurrency = 1;
  cfg.queue_on_throttle = true;
  Fixture f(cfg);
  ASSERT_TRUE(
      f.platform->RegisterFunction(f.SimpleSpec("fn", kSecond)).ok());
  int done = 0;
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(f.platform
                    ->Invoke("fn", "",
                             [&](const InvocationResult& r) {
                               ASSERT_TRUE(r.status.ok());
                               ++done;
                             })
                    .ok());
  }
  f.sim.Run();
  EXPECT_EQ(done, 5);
  EXPECT_EQ(f.platform->metrics().throttled, 0u);
  // Serialized through one container => 4 warm starts after the first cold.
  EXPECT_EQ(f.platform->metrics().cold_starts, 1u);
  EXPECT_EQ(f.platform->metrics().warm_starts, 4u);
}

// ------------------------------------------------------------ Cancellation

/// Every callback, by invocation id.
struct ResultLog {
  std::map<uint64_t, std::vector<InvocationResult>> by_id;

  InvokeCallback Callback() {
    return [this](const InvocationResult& r) { by_id[r.id].push_back(r); };
  }

  /// Exactly one callback, with `code`; the invocation is then gone, so
  /// cancelling it again finds nothing.
  void ExpectDoneOnce(FaasPlatform& platform, uint64_t id, StatusCode code) {
    ASSERT_EQ(by_id[id].size(), 1u) << "invocation " << id;
    EXPECT_EQ(by_id[id][0].status.code(), code) << "invocation " << id;
    EXPECT_FALSE(platform.CancelInvocation(id)) << "invocation " << id;
  }
};

TEST(FaasPlatformTest, CancelInEveryLifecycleState) {
  {
    // Before dispatch: the dispatch event completes it, unbilled.
    Fixture f;
    ASSERT_TRUE(f.platform->RegisterFunction(f.SimpleSpec("fn")).ok());
    ResultLog log;
    const uint64_t id = *f.platform->Invoke("fn", "p", log.Callback());
    EXPECT_TRUE(f.platform->CancelInvocation(id));
    EXPECT_TRUE(log.by_id[id].empty());
    f.sim.Run();
    log.ExpectDoneOnce(*f.platform, id, StatusCode::kCancelled);
    EXPECT_EQ(f.platform->ledger().record_count(), 0u);
    EXPECT_EQ(f.platform->metrics().cold_starts, 0u);
  }
  {
    // Queued behind the only container: leaves the queue at once.
    FaasConfig cfg;
    cfg.max_concurrency = 1;
    Fixture f(cfg);
    ASSERT_TRUE(
        f.platform->RegisterFunction(f.SimpleSpec("fn", kSecond)).ok());
    ResultLog log;
    const uint64_t running = *f.platform->Invoke("fn", "a", log.Callback());
    const uint64_t queued = *f.platform->Invoke("fn", "b", log.Callback());
    f.sim.RunUntil(100 * kMillisecond);  // both dispatched
    ASSERT_EQ(f.platform->pending_queue_depth(), 1u);
    EXPECT_TRUE(f.platform->CancelInvocation(queued));
    EXPECT_EQ(f.platform->pending_queue_depth(), 0u);
    log.ExpectDoneOnce(*f.platform, queued, StatusCode::kCancelled);
    f.sim.Run();
    log.ExpectDoneOnce(*f.platform, running, StatusCode::kOk);
    EXPECT_EQ(f.platform->ledger().record_count(), 1u);
  }
  {
    // Running: stopped at once, billed once for the execution burned, and
    // the healthy container goes back to the warm pool.
    Fixture f;
    ASSERT_TRUE(
        f.platform->RegisterFunction(f.SimpleSpec("fn", 10 * kSecond)).ok());
    ResultLog log;
    const uint64_t id = *f.platform->Invoke("fn", "p", log.Callback());
    f.sim.RunUntil(3 * kSecond);  // past the cold start, mid-execution
    EXPECT_TRUE(f.platform->CancelInvocation(id));
    log.ExpectDoneOnce(*f.platform, id, StatusCode::kCancelled);
    const InvocationResult& r = log.by_id[id][0];
    EXPECT_GT(r.exec_us, 0);
    EXPECT_LT(r.exec_us, 3 * kSecond);
    EXPECT_EQ(f.platform->ledger().record_count(), 1u);
    EXPECT_EQ(r.cost, f.platform->ledger().Total());
    EXPECT_EQ(f.platform->warm_container_count("fn"), 1u);
    f.sim.Run();  // the stopped attempt's completion never fires
    EXPECT_EQ(log.by_id[id].size(), 1u);
    EXPECT_EQ(f.platform->ledger().record_count(), 1u);
  }
  {
    // During a retry backoff: the retry's dispatch completes it.
    FaasConfig cfg;
    cfg.retry = chaos::RetryPolicy::ExponentialJitter(3, kSecond, 0.0);
    Fixture f(cfg);
    FunctionSpec spec = f.SimpleSpec("flaky");
    spec.handler = [](const std::string&, InvocationContext&)
        -> Result<std::string> { return Status::Aborted("transient"); };
    ASSERT_TRUE(f.platform->RegisterFunction(spec).ok());
    ResultLog log;
    const uint64_t id = *f.platform->Invoke("flaky", "p", log.Callback());
    while (f.platform->ledger().record_count() == 0) ASSERT_TRUE(f.sim.Step());
    const SimTime cancelled_at = f.sim.Now();
    EXPECT_TRUE(f.platform->CancelInvocation(id));
    f.sim.Run();
    log.ExpectDoneOnce(*f.platform, id, StatusCode::kCancelled);
    EXPECT_EQ(log.by_id[id][0].attempts, 2);
    EXPECT_GE(log.by_id[id][0].end_us, cancelled_at + kSecond);
    EXPECT_EQ(f.platform->ledger().record_count(), 1u);
  }
  {
    // From inside its own callback: already terminal.
    Fixture f;
    ASSERT_TRUE(f.platform->RegisterFunction(f.SimpleSpec("fn")).ok());
    int calls = 0;
    std::optional<bool> cancelled_inside;
    const uint64_t id = *f.platform->Invoke(
        "fn", "p", [&](const InvocationResult& r) {
          ++calls;
          EXPECT_TRUE(r.status.ok());
          cancelled_inside = f.platform->CancelInvocation(r.id);
        });
    f.sim.Run();
    EXPECT_EQ(calls, 1);
    ASSERT_TRUE(cancelled_inside.has_value());
    EXPECT_FALSE(*cancelled_inside);
    EXPECT_FALSE(f.platform->CancelInvocation(id));
  }
  {
    // Unknown ids.
    Fixture f;
    EXPECT_FALSE(f.platform->CancelInvocation(0));
    EXPECT_FALSE(f.platform->CancelInvocation(12345));
  }
}

// -------------------------------------------------------------- Handlers

TEST(FaasPlatformTest, HandlerReceivesPayloadAndContext) {
  Fixture f;
  FunctionSpec spec = f.SimpleSpec("echo");
  spec.handler = [](const std::string& payload, InvocationContext& ctx)
      -> Result<std::string> {
    EXPECT_GT(ctx.invocation_id, 0u);
    EXPECT_EQ(ctx.attempt, 0);
    return "echo:" + payload;
  };
  ASSERT_TRUE(f.platform->RegisterFunction(spec).ok());
  auto res = f.platform->InvokeSync("echo", "hello");
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res->output, "echo:hello");
}

TEST(FaasPlatformTest, PerByteExecModelScalesWithPayload) {
  Fixture f;
  FunctionSpec spec;
  spec.name = "scaler";
  spec.exec = {ExecTimeModel::Kind::kPerByte, 1 * kMillisecond, 0, 10.0};
  ASSERT_TRUE(f.platform->RegisterFunction(spec).ok());
  auto small = f.platform->InvokeSync("scaler", std::string(100, 'x'));
  auto large = f.platform->InvokeSync("scaler", std::string(10000, 'x'));
  ASSERT_TRUE(small.ok());
  ASSERT_TRUE(large.ok());
  EXPECT_GT(large->exec_us, small->exec_us * 50);
}

// ---------------------------------------------------------------- Billing

TEST(BillingTest, RoundsUpToQuantum) {
  BillingLedger ledger(BillingRates{});
  // 150ms at 100ms quantum bills as 200ms.
  const Money m150 = ledger.Price(150 * kMillisecond, 1024);
  const Money m200 = ledger.Price(200 * kMillisecond, 1024);
  EXPECT_EQ(m150, m200);
  const Money m201 = ledger.Price(201 * kMillisecond, 1024);
  EXPECT_GT(m201, m200);
}

TEST(BillingTest, ScalesWithMemory) {
  BillingLedger ledger(BillingRates{});
  const Money gb = ledger.Price(kSecond, 1024);
  const Money half = ledger.Price(kSecond, 512);
  // Subtract the flat request fee before comparing the duration component;
  // integer pricing truncates, so allow 1 nano-dollar of rounding.
  const Money fee = BillingRates{}.per_request;
  EXPECT_NEAR(double((gb - fee).nano_dollars()),
              double((half - fee).nano_dollars() * 2), 1.0);
}

TEST(BillingTest, LambdaCalibration) {
  // 1GB-second should cost ~$1.6667e-5 plus the request fee.
  BillingLedger ledger(BillingRates{});
  const Money m = ledger.Price(kSecond, 1024);
  EXPECT_NEAR(m.dollars(), 1.6667e-5 + 2e-7, 1e-6);
}

TEST(BillingTest, LedgerAccumulatesPerFunction) {
  BillingLedger ledger(BillingRates{});
  ledger.Charge("a", 100 * kMillisecond, 128);
  ledger.Charge("a", 100 * kMillisecond, 128);
  ledger.Charge("b", 100 * kMillisecond, 128);
  EXPECT_EQ(ledger.record_count(), 3u);
  EXPECT_EQ(ledger.TotalFor("a") + ledger.TotalFor("b"), ledger.Total());
  EXPECT_GT(ledger.TotalFor("a"), ledger.TotalFor("b"));
}

TEST(BillingTest, FinerQuantumNeverCostsMore) {
  BillingRates coarse;  // 100ms
  BillingRates fine;
  fine.quantum_us = 1 * kMillisecond;
  BillingLedger lc(coarse), lf(fine);
  for (SimDuration d : {3 * kMillisecond, 57 * kMillisecond,
                        130 * kMillisecond, 990 * kMillisecond}) {
    EXPECT_LE(lf.Price(d, 512).nano_dollars(),
              lc.Price(d, 512).nano_dollars())
        << d;
  }
}

// ------------------------------------------------------------- ServerPool

TEST(ServerPoolTest, ServesWithinCapacityImmediately) {
  sim::Simulation sim;
  ServerPool pool(&sim, {.num_servers = 2, .per_server_concurrency = 2});
  int done = 0;
  for (int i = 0; i < 4; ++i) {
    pool.Submit(kSecond, [&](SimDuration wait) {
      EXPECT_EQ(wait, 0);
      ++done;
    });
  }
  sim.Run();
  EXPECT_EQ(done, 4);
  EXPECT_EQ(pool.completed(), 4u);
}

TEST(ServerPoolTest, QueuesBeyondCapacity) {
  sim::Simulation sim;
  ServerPool pool(&sim, {.num_servers = 1, .per_server_concurrency = 1});
  std::vector<SimDuration> waits;
  for (int i = 0; i < 3; ++i) {
    pool.Submit(kSecond, [&](SimDuration wait) { waits.push_back(wait); });
  }
  sim.Run();
  ASSERT_EQ(waits.size(), 3u);
  EXPECT_EQ(waits[0], 0);
  EXPECT_EQ(waits[1], kSecond);
  EXPECT_EQ(waits[2], 2 * kSecond);
}

TEST(ServerPoolTest, UtilizationIntegral) {
  sim::Simulation sim;
  ServerPool pool(&sim, {.num_servers = 1, .per_server_concurrency = 1});
  pool.Submit(kSecond);
  sim.Run();
  sim.RunUntil(2 * kSecond);
  EXPECT_NEAR(pool.Utilization(), 0.5, 1e-9);
}

TEST(ServerPoolTest, ReservedCostIndependentOfLoad) {
  sim::Simulation sim;
  ServerPool pool(&sim, {.num_servers = 3,
                         .per_server_concurrency = 1,
                         .machine_hour_price = Money::FromDollars(0.10)});
  EXPECT_EQ(pool.CostFor(kHour).nano_dollars(), 300000000);  // $0.30
}

// ------------------------------------------- Parameterized keep-alive sweep

class KeepAliveSweep : public ::testing::TestWithParam<SimDuration> {};

TEST_P(KeepAliveSweep, LongerKeepAliveNeverIncreasesColdStarts) {
  // Property behind E2: cold-start count is monotone non-increasing in the
  // keep-alive duration for a fixed arrival pattern.
  auto run = [](SimDuration keep_alive) {
    FaasConfig cfg;
    cfg.keep_alive_us = keep_alive;
    Fixture f(cfg);
    FunctionSpec spec = f.SimpleSpec("fn", 10 * kMillisecond);
    EXPECT_TRUE(f.platform->RegisterFunction(spec).ok());
    // Deterministic arrivals every 45 seconds.
    for (int i = 0; i < 20; ++i) {
      f.platform->Invoke("fn", "", nullptr);
      f.sim.RunUntil(f.sim.Now() + 45 * kSecond);
    }
    f.sim.Run();
    return f.platform->metrics().cold_starts;
  };
  const SimDuration ka = GetParam();
  EXPECT_GE(run(ka), run(ka * 4));
}

INSTANTIATE_TEST_SUITE_P(Durations, KeepAliveSweep,
                         ::testing::Values(10 * kSecond, 30 * kSecond,
                                           60 * kSecond));

// -------------------------------------------------------------- Prewarmer

struct PrewarmFixture {
  sim::Simulation sim;
  cluster::Cluster cl{16, {32000, 65536}};
  faas::FaasConfig cfg;
  std::unique_ptr<faas::FaasPlatform> platform;

  PrewarmFixture() {
    cfg.keep_alive_us = 10 * kMinute;
    platform = std::make_unique<faas::FaasPlatform>(&sim, &cl, cfg);
    faas::FunctionSpec spec;
    spec.name = "fn";
    spec.demand = {200, 256};
    spec.exec = {faas::ExecTimeModel::Kind::kFixed, 50 * kMillisecond, 0, 0};
    spec.init_us = 200 * kMillisecond;
    EXPECT_TRUE(platform->RegisterFunction(spec).ok());
  }
};

TEST(PrewarmerTest, ForecastTracksArrivalRate) {
  PrewarmFixture f;
  faas::PrewarmerConfig pcfg;
  pcfg.tick_us = 1 * kSecond;
  pcfg.alpha = 0.5;
  faas::Prewarmer pw(&f.sim, f.platform.get(), "fn", pcfg);
  pw.Start();
  // 20 req/s for 30 seconds.
  for (SimTime t = 0; t < 30 * kSecond; t += 50 * kMillisecond) {
    f.sim.ScheduleAt(t, [&] { pw.Invoke("", nullptr); });
  }
  f.sim.RunUntil(30 * kSecond);
  EXPECT_NEAR(pw.ForecastRps(), 20.0, 3.0);
  pw.Stop();
  f.sim.Run();
}

TEST(PrewarmerTest, MaintainsWarmPoolAheadOfDemand) {
  PrewarmFixture f;
  faas::PrewarmerConfig pcfg;
  pcfg.tick_us = 1 * kSecond;
  pcfg.alpha = 0.5;
  pcfg.provision_window_us = 2 * kSecond;
  pcfg.headroom = 1.5;
  faas::Prewarmer pw(&f.sim, f.platform.get(), "fn", pcfg);
  pw.Start();
  for (SimTime t = 0; t < 20 * kSecond; t += 100 * kMillisecond) {
    f.sim.ScheduleAt(t, [&] { pw.Invoke("", nullptr); });
  }
  f.sim.RunUntil(25 * kSecond);
  // 10 rps * 2s window * 1.5 headroom = 30 warm containers targeted.
  EXPECT_GE(f.platform->warm_container_count("fn"), 20u);
  EXPECT_GT(pw.stats().containers_prewarmed, 0u);
  pw.Stop();
  f.sim.Run();
}

TEST(PrewarmerTest, CutsColdStartsOnBurstArrival) {
  // The BARISTA claim: proactive provisioning absorbs a foreseeable ramp.
  auto run = [](bool prewarm) {
    PrewarmFixture f;
    faas::PrewarmerConfig pcfg;
    pcfg.tick_us = 1 * kSecond;
    pcfg.alpha = 0.6;
    pcfg.provision_window_us = 3 * kSecond;
    faas::Prewarmer pw(&f.sim, f.platform.get(), "fn", pcfg);
    if (prewarm) pw.Start();
    // Ramp: 2 rps for 20s, then a 30-rps burst for 5s.
    for (SimTime t = 0; t < 20 * kSecond; t += 500 * kMillisecond) {
      f.sim.ScheduleAt(t, [&] { pw.Invoke("", nullptr); });
    }
    for (SimTime t = 20 * kSecond; t < 25 * kSecond;
         t += 33 * kMillisecond) {
      f.sim.ScheduleAt(t, [&] { pw.Invoke("", nullptr); });
    }
    f.sim.RunUntil(30 * kSecond);
    pw.Stop();
    f.sim.Run();
    return f.platform->metrics();
  };
  const auto without = run(false);
  const auto with = run(true);
  // Pre-warmed containers absorb invocations that would otherwise start
  // cold during the burst ramp.
  EXPECT_LT(with.cold_starts, without.cold_starts);
  EXPECT_LE(with.e2e_latency_us.P50(), without.e2e_latency_us.P50());
}

// ----------------------------------------- Per-function reserved concurrency

TEST(ReservedConcurrencyTest, CapBoundsContainers) {
  sim::Simulation sim;
  cluster::Cluster cl(32, {32000, 65536});
  faas::FaasPlatform platform(&sim, &cl, faas::FaasConfig{});
  faas::FunctionSpec spec;
  spec.name = "capped";
  spec.exec = {faas::ExecTimeModel::Kind::kFixed, kSecond, 0, 0};
  spec.max_concurrency = 3;
  ASSERT_TRUE(platform.RegisterFunction(spec).ok());
  int done = 0;
  for (int i = 0; i < 10; ++i) {
    platform.Invoke("capped", "", [&](const faas::InvocationResult& r) {
      EXPECT_TRUE(r.status.ok());
      ++done;
    });
  }
  sim.Run();
  EXPECT_EQ(done, 10);
  EXPECT_LE(platform.metrics().peak_containers, 3u);
  EXPECT_EQ(platform.metrics().cold_starts, 3u);
  EXPECT_EQ(platform.metrics().warm_starts, 7u);
}

TEST(ReservedConcurrencyTest, OneFunctionCannotStarveAnother) {
  sim::Simulation sim;
  cluster::Cluster cl(32, {32000, 65536});
  faas::FaasConfig cfg;
  cfg.max_concurrency = 100;
  faas::FaasPlatform platform(&sim, &cl, cfg);
  faas::FunctionSpec hog;
  hog.name = "hog";
  hog.exec = {faas::ExecTimeModel::Kind::kFixed, 10 * kSecond, 0, 0};
  hog.max_concurrency = 5;  // capped, so it cannot take all 100 slots
  faas::FunctionSpec latency_sensitive;
  latency_sensitive.name = "fast";
  latency_sensitive.exec = {faas::ExecTimeModel::Kind::kFixed,
                            10 * kMillisecond, 0, 0};
  ASSERT_TRUE(platform.RegisterFunction(hog).ok());
  ASSERT_TRUE(platform.RegisterFunction(latency_sensitive).ok());
  for (int i = 0; i < 200; ++i) platform.Invoke("hog", "", nullptr);
  SimDuration fast_latency = 0;
  platform.Invoke("fast", "", [&](const faas::InvocationResult& r) {
    fast_latency = r.EndToEnd();
  });
  sim.Run();
  // "fast" got a container immediately despite the hog backlog.
  EXPECT_LT(fast_latency, kSecond);
}

TEST(ReservedConcurrencyTest, PrewarmRespectsCap) {
  sim::Simulation sim;
  cluster::Cluster cl(32, {32000, 65536});
  faas::FaasPlatform platform(&sim, &cl, faas::FaasConfig{});
  faas::FunctionSpec spec;
  spec.name = "capped";
  spec.exec = {faas::ExecTimeModel::Kind::kFixed, kMillisecond, 0, 0};
  spec.max_concurrency = 4;
  ASSERT_TRUE(platform.RegisterFunction(spec).ok());
  auto started = platform.Prewarm("capped", 20);
  ASSERT_TRUE(started.ok());
  EXPECT_EQ(*started, 4u);
  // Run past the startups but not past the keep-alive horizon.
  sim.RunUntil(sim.Now() + 5 * kSecond);
  EXPECT_EQ(platform.warm_container_count("capped"), 4u);
}

// ------------------------------------------------------- ServerPool depth

TEST(ServerPoolDepthTest, InstrumentationDuringRun) {
  sim::Simulation sim;
  faas::ServerPool pool(&sim, {.num_servers = 2, .per_server_concurrency = 1});
  for (int i = 0; i < 5; ++i) pool.Submit(kSecond);
  EXPECT_EQ(pool.busy_slots(), 2u);
  EXPECT_EQ(pool.queue_depth(), 3u);
  sim.Run();
  EXPECT_EQ(pool.busy_slots(), 0u);
  EXPECT_EQ(pool.queue_depth(), 0u);
  EXPECT_EQ(pool.completed(), 5u);
  EXPECT_EQ(pool.wait_hist().count(), 5u);
  // Sojourn = wait + service; the last request waited 2 services.
  EXPECT_DOUBLE_EQ(pool.sojourn_hist().max(), double(3 * kSecond));
}

// --------------------------------------------------------- Platform depth

TEST(PlatformDepthTest, QueueLatencyRecordedUnderContention) {
  sim::Simulation sim;
  cluster::Cluster cl(8, {32000, 65536});
  faas::FaasConfig cfg;
  cfg.max_concurrency = 1;
  faas::FaasPlatform platform(&sim, &cl, cfg);
  faas::FunctionSpec spec;
  spec.name = "fn";
  spec.exec = {faas::ExecTimeModel::Kind::kFixed, kSecond, 0, 0};
  ASSERT_TRUE(platform.RegisterFunction(spec).ok());
  for (int i = 0; i < 4; ++i) platform.Invoke("fn", "", nullptr);
  sim.Run();
  // The 4th invocation queued ~3 service times.
  EXPECT_GT(platform.metrics().queue_latency_us.max(),
            double(2 * kSecond));
  EXPECT_EQ(platform.pending_queue_depth(), 0u);
}

TEST(PlatformDepthTest, FlushWarmPoolDropsIdleContainers) {
  sim::Simulation sim;
  cluster::Cluster cl(8, {32000, 65536});
  faas::FaasPlatform platform(&sim, &cl, faas::FaasConfig{});
  faas::FunctionSpec spec;
  spec.name = "fn";
  spec.exec = {faas::ExecTimeModel::Kind::kFixed, kMillisecond, 0, 0};
  ASSERT_TRUE(platform.RegisterFunction(spec).ok());
  ASSERT_TRUE(platform.InvokeSync("fn", "").ok());
  EXPECT_EQ(platform.active_containers(), 1u);
  platform.FlushWarmPool();
  EXPECT_EQ(platform.active_containers(), 0u);
  EXPECT_EQ(cl.Stats().units, 0u);
  // The next invocation cold-starts again.
  auto res = platform.InvokeSync("fn", "");
  EXPECT_TRUE(res->cold_start);
}

}  // namespace
}  // namespace taureau::faas
