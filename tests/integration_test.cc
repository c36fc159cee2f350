// Integration tests: cross-module scenarios wiring the whole landscape
// together — the paper's §3.1 application archetypes end-to-end.
#include <gtest/gtest.h>

#include <set>

#include "analytics/mapreduce.h"
#include "baas/blob_store.h"
#include "baas/kv_store.h"
#include "cluster/cluster.h"
#include "faas/platform.h"
#include "faas/server_pool.h"
#include "jiffy/controller.h"
#include "orchestration/orchestrator.h"
#include "pubsub/broker.h"
#include "pubsub/functions.h"
#include "sketch/hyperloglog.h"
#include "workload/apps.h"

namespace taureau {
namespace {

TEST(IntegrationTest, WebAppArchetypeEndToEnd) {
  // §3.1 "Web Applications": event-driven handlers behind diurnal traffic.
  sim::Simulation sim;
  cluster::Cluster cl(16, {32000, 65536});
  faas::FaasPlatform platform(&sim, &cl, faas::FaasConfig{});
  auto app = workload::MakeWebAppArchetype(5.0);
  for (const auto& profile : app.functions) {
    faas::FunctionSpec spec;
    spec.name = profile.name;
    spec.demand = profile.demand;
    spec.exec = {faas::ExecTimeModel::Kind::kLogNormal,
                 profile.median_exec_us, profile.exec_sigma, 0};
    ASSERT_TRUE(platform.RegisterFunction(spec).ok());
  }
  Rng rng(1);
  auto arrivals = app.arrivals->Generate(2 * kMinute, &rng);
  ASSERT_GT(arrivals.size(), 100u);
  uint64_t completed = 0;
  for (SimTime t : arrivals) {
    const auto& fn = app.functions[workload::PickFunction(app, &rng)];
    sim.ScheduleAt(t, [&platform, &completed, name = fn.name] {
      platform.Invoke(name, "req", [&completed](const faas::InvocationResult& r) {
        if (r.status.ok()) ++completed;
      });
    });
  }
  sim.Run();
  EXPECT_EQ(completed, arrivals.size());
  EXPECT_GT(platform.metrics().warm_starts, platform.metrics().cold_starts);
  EXPECT_GT(platform.ledger().Total(), Money::Zero());
}

TEST(IntegrationTest, EtlPipelineThroughOrchestrator) {
  // §3.1 "Data Processing": extract -> transform -> load, state in blob
  // storage, steps composed by the orchestrator.
  sim::Simulation sim;
  cluster::Cluster cl(8, {32000, 65536});
  faas::FaasPlatform platform(&sim, &cl, faas::FaasConfig{});
  baas::BlobStore blobs;
  ASSERT_TRUE(blobs.Put("raw/input.csv", "3,1,2").status.ok());

  faas::FunctionSpec extract;
  extract.name = "extract";
  extract.exec = {faas::ExecTimeModel::Kind::kFixed, 50 * kMillisecond, 0, 0};
  extract.handler = [&blobs](const std::string& key, faas::InvocationContext&)
      -> Result<std::string> {
    std::string data;
    auto op = blobs.Get(key, &data);
    if (!op.status.ok()) return op.status;
    return data;
  };
  faas::FunctionSpec transform;
  transform.name = "transform";
  transform.exec = {faas::ExecTimeModel::Kind::kFixed, 80 * kMillisecond, 0,
                    0};
  transform.handler = [](const std::string& csv, faas::InvocationContext&)
      -> Result<std::string> {
    // Sort the comma-separated fields.
    std::vector<std::string> fields;
    std::string cur;
    for (char c : csv) {
      if (c == ',') {
        fields.push_back(cur);
        cur.clear();
      } else {
        cur.push_back(c);
      }
    }
    fields.push_back(cur);
    std::sort(fields.begin(), fields.end());
    std::string out;
    for (size_t i = 0; i < fields.size(); ++i) {
      if (i) out += ',';
      out += fields[i];
    }
    return out;
  };
  faas::FunctionSpec load;
  load.name = "load";
  load.exec = {faas::ExecTimeModel::Kind::kFixed, 30 * kMillisecond, 0, 0};
  load.handler = [&blobs](const std::string& data, faas::InvocationContext&)
      -> Result<std::string> {
    auto op = blobs.Put("clean/output.csv", data);
    if (!op.status.ok()) return op.status;
    return std::string("clean/output.csv");
  };
  for (auto* spec : {&extract, &transform, &load}) {
    ASSERT_TRUE(platform.RegisterFunction(*spec).ok());
  }

  orchestration::Orchestrator orch(&sim, &platform);
  auto pipeline = orchestration::Composition::Sequence(
      {orchestration::Composition::Task("extract"),
       orchestration::Composition::Task("transform"),
       orchestration::Composition::Task("load")});
  auto res = orch.RunSync(pipeline, "raw/input.csv");
  ASSERT_TRUE(res.ok());
  ASSERT_TRUE(res->status.ok());
  std::string cleaned;
  ASSERT_TRUE(blobs.Get("clean/output.csv", &cleaned).status.ok());
  EXPECT_EQ(cleaned, "1,2,3");
  EXPECT_EQ(res->cost, platform.ledger().Total());
}

TEST(IntegrationTest, IotRegistryExactlyOnceUnderRetries) {
  // §3.1 "Internet of Things": device registration triggers a function that
  // populates a registry. The handler crashes after its first write unless
  // it uses an idempotent create — retries must not corrupt the registry.
  sim::Simulation sim;
  cluster::Cluster cl(8, {32000, 65536});
  faas::FaasConfig cfg;
  cfg.retry = chaos::RetryPolicy::Immediate(4);
  faas::FaasPlatform platform(&sim, &cl, cfg);
  baas::KvStore registry;
  int attempts_seen = 0;

  faas::FunctionSpec reg;
  reg.name = "register-device";
  reg.exec = {faas::ExecTimeModel::Kind::kFixed, 10 * kMillisecond, 0, 0};
  reg.handler = [&](const std::string& device_id, faas::InvocationContext& ctx)
      -> Result<std::string> {
    ++attempts_seen;
    auto op = registry.PutIfAbsent("device:" + device_id, "registered",
                                   sim.Now());
    // AlreadyExists on retry is fine — the effect happened exactly once.
    if (!op.status.ok() && !op.status.IsAlreadyExists()) return op.status;
    int64_t count = 0;
    if (op.status.ok()) {
      registry.Increment("device-count", 1, sim.Now(), &count);
    }
    // First attempt crashes *after* the write (the classic partial-failure).
    if (ctx.attempt == 0) return Status::Aborted("crash after write");
    return std::string("ok");
  };
  ASSERT_TRUE(platform.RegisterFunction(reg).ok());

  auto res = platform.InvokeSync("register-device", "sensor-7");
  ASSERT_TRUE(res.ok());
  EXPECT_TRUE(res->status.ok());
  EXPECT_EQ(res->attempts, 2);
  EXPECT_EQ(attempts_seen, 2);
  std::string v;
  ASSERT_TRUE(registry.Get("device:sensor-7", sim.Now(), &v).status.ok());
  int64_t count = 0;
  registry.Increment("device-count", 0, sim.Now(), &count);
  EXPECT_EQ(count, 1);  // not double-registered
}

TEST(IntegrationTest, StreamingAnalyticsPulsarPlusSketches) {
  // §4.3.1 + §5.1: a Pulsar function maintaining a distinct-user HLL over a
  // clickstream, with results published to an output topic.
  sim::Simulation sim;
  pubsub::PulsarCluster pulsar(&sim, pubsub::PulsarConfig{});
  ASSERT_TRUE(pulsar.CreateTopic("clicks", {.partitions = 4}).ok());
  ASSERT_TRUE(pulsar.CreateTopic("stats", {}).ok());

  sketch::HyperLogLog hll(12);
  pubsub::FunctionWorker distinct(
      &pulsar,
      {.name = "distinct-users", .input_topic = "clicks",
       .output_topic = "stats", .parallelism = 2},
      [&hll](const pubsub::Message& m, pubsub::FunctionContext& ctx) {
        hll.Add(m.key);
        const int64_t seen = ctx.IncrCounter("clicks", 1);
        if (seen % 500 == 0) {
          return ctx.Publish(std::to_string(uint64_t(hll.Estimate())));
        }
        return Status::OK();
      });
  ASSERT_TRUE(distinct.Deploy().ok());

  std::vector<std::string> reports;
  ASSERT_TRUE(pulsar
                  .Subscribe("stats", "dash", pubsub::SubscriptionType::kExclusive,
                             [&](const pubsub::Message& m) {
                               reports.push_back(m.payload);
                             })
                  .ok());
  Rng rng(3);
  ZipfGenerator zipf(300, 0.9);
  for (int i = 0; i < 2000; ++i) {
    const std::string user = "user-" + std::to_string(zipf.Next(&rng));
    ASSERT_TRUE(pulsar.Publish("clicks", user, "click").ok());
  }
  sim.Run();
  EXPECT_EQ(distinct.metrics().processed, 2000u);
  ASSERT_FALSE(reports.empty());
  const double final_estimate = std::stod(reports.back());
  EXPECT_NEAR(final_estimate, 300.0, 300.0 * 0.15);
}

TEST(IntegrationTest, MapReduceWithLeaseCleanup) {
  // §4.4 + §5.1: ephemeral shuffle state lives exactly as long as the job's
  // namespace lease; the pool is clean afterwards.
  sim::Simulation sim;
  jiffy::JiffyConfig jcfg;
  jcfg.num_memory_nodes = 2;
  jcfg.blocks_per_node = 512;
  jcfg.block_size_bytes = 16 * 1024;
  jcfg.default_lease_us = 30 * kSecond;
  jiffy::JiffyController jiffy(&sim, jcfg);
  jiffy.StartLeaseScan();

  analytics::JiffyShuffle shuffle(&jiffy, "/job-42", 4);
  ASSERT_TRUE(shuffle.Init().ok());
  std::vector<std::string> input;
  for (int i = 0; i < 300; ++i) {
    input.push_back("word" + std::to_string(i % 40) + " data data");
  }
  std::vector<std::string> output;
  auto stats = analytics::RunMapReduce(
      input, analytics::WordCountMap(), analytics::WordCountReduce(),
      &shuffle, {.num_mappers = 4, .num_reducers = 4}, &output);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(output.size(), 41u);  // word0..word39 + "data"

  // The job finishes and stops renewing: lease expiry reclaims everything.
  sim.RunUntil(sim.Now() + 2 * jcfg.default_lease_us);
  EXPECT_FALSE(jiffy.Exists("/job-42"));
  EXPECT_EQ(jiffy.pool().used_blocks(), 0u);
}

TEST(IntegrationTest, ServerlessCheaperAtLowUtilization) {
  // §2 "Cost efficiency": at near-idle load, pay-per-use beats a reserved
  // server by orders of magnitude; the server-centric fleet charges for
  // idle time.
  sim::Simulation sim;
  cluster::Cluster cl(4, {32000, 65536}, Money::FromDollars(0.10));
  faas::FaasConfig cfg;
  cfg.keep_alive_us = 1 * kMinute;
  faas::FaasPlatform platform(&sim, &cl, cfg);
  faas::FunctionSpec spec;
  spec.name = "rare";
  spec.demand = {500, 512};
  spec.exec = {faas::ExecTimeModel::Kind::kFixed, 100 * kMillisecond, 0, 0};
  ASSERT_TRUE(platform.RegisterFunction(spec).ok());

  // One request every 10 minutes for 6 hours.
  const SimDuration horizon = 6 * kHour;
  for (SimTime t = 0; t < horizon; t += 10 * kMinute) {
    sim.ScheduleAt(t, [&] { platform.Invoke("rare", "", nullptr); });
  }
  sim.RunUntil(horizon);
  const Money serverless = platform.ledger().Total();
  const Money reserved = cl.ReservedCost(1, horizon);  // a single small box
  EXPECT_LT(serverless.nano_dollars() * 50, reserved.nano_dollars());
}

TEST(IntegrationTest, ColdStartTaxVisibleAtTrickleRates) {
  // §5.2 [112]: rare invocations hit cold starts; frequent ones stay warm.
  auto run_gap = [](SimDuration gap) {
    sim::Simulation sim;
    cluster::Cluster cl(4, {32000, 65536});
    faas::FaasConfig cfg;
    cfg.keep_alive_us = 5 * kMinute;
    faas::FaasPlatform platform(&sim, &cl, cfg);
    faas::FunctionSpec spec;
    spec.name = "fn";
    spec.exec = {faas::ExecTimeModel::Kind::kFixed, 20 * kMillisecond, 0, 0};
    EXPECT_TRUE(platform.RegisterFunction(spec).ok());
    for (int i = 0; i < 10; ++i) {
      platform.Invoke("fn", "", nullptr);
      sim.RunUntil(sim.Now() + gap);
    }
    sim.Run();
    return platform.metrics();
  };
  const auto trickle = run_gap(10 * kMinute);  // beyond keep-alive
  const auto steady = run_gap(10 * kSecond);   // well within keep-alive
  EXPECT_EQ(trickle.cold_starts, 10u);
  EXPECT_EQ(steady.cold_starts, 1u);
  EXPECT_GT(trickle.e2e_latency_us.mean(), steady.e2e_latency_us.mean() * 3);
}

}  // namespace
}  // namespace taureau
