// IoT device registry (paper §3.1 "Internet of Things"): bursty device
// registrations trigger serverless functions that populate a KV registry
// exactly once, even when the platform retries crashed handlers.
//
//   $ ./build/examples/iot_fleet
#include <cstdio>

#include "baas/kv_store.h"
#include "cluster/cluster.h"
#include "faas/platform.h"
#include "sim/simulation.h"
#include "workload/apps.h"

using namespace taureau;

int main() {
  sim::Simulation sim;
  cluster::Cluster region(16, {32000, 65536});
  faas::FaasConfig cfg;
  cfg.retry = chaos::RetryPolicy::Immediate(4);
  faas::FaasPlatform platform(&sim, &region, cfg);
  baas::KvStore registry;

  // register-device: idempotent create + fleet counter; flaky on purpose.
  faas::FunctionSpec reg;
  reg.name = "register-device";
  reg.demand = {64, 64};
  reg.exec = {faas::ExecTimeModel::Kind::kLogNormal, 8 * kMillisecond, 0.3, 0};
  reg.failure_prob = 0.05;  // network blips crash 5% of attempts
  reg.handler = [&](const std::string& device_id, faas::InvocationContext&)
      -> Result<std::string> {
    auto op = registry.PutIfAbsent("device:" + device_id, "online", sim.Now(),
                                   /*ttl=*/kHour);
    if (op.status.ok()) {
      int64_t fleet = 0;
      (void)registry.Increment("fleet-size", 1, sim.Now(), &fleet);
    } else if (!op.status.IsAlreadyExists()) {
      return op.status;
    }
    return std::string("registered");
  };
  if (!platform.RegisterFunction(reg).ok()) return 1;

  // telemetry-ingest: per-device heartbeat updates with OCC versioning.
  faas::FunctionSpec telemetry;
  telemetry.name = "telemetry-ingest";
  telemetry.demand = {64, 64};
  telemetry.exec = {faas::ExecTimeModel::Kind::kLogNormal, 3 * kMillisecond,
                    0.4, 0};
  telemetry.handler = [&](const std::string& device_id,
                          faas::InvocationContext&) -> Result<std::string> {
    (void)registry.Put("last-seen:" + device_id,
                       std::to_string(sim.Now()), sim.Now(), kHour);
    return std::string("ok");
  };
  if (!platform.RegisterFunction(telemetry).ok()) return 1;

  // A fleet of 500 devices comes online in a burst (factory rollout), then
  // trickles telemetry.
  auto iot = workload::MakeIotArchetype(50.0);
  Rng rng(99);
  uint64_t registrations = 0, heartbeats = 0;
  for (int d = 0; d < 500; ++d) {
    const SimTime at = SimTime(rng.NextInt(0, 10 * kSecond));
    sim.ScheduleAt(at, [&, d] {
      (void)platform.Invoke("register-device", "sensor-" + std::to_string(d),
                            [&](const faas::InvocationResult& r) {
                              if (r.status.ok()) ++registrations;
                            });
    });
    // Each device heartbeats a few times over the next minutes.
    for (int h = 0; h < 3; ++h) {
      const SimTime hb = at + SimTime(rng.NextInt(kSecond, 3 * kMinute));
      sim.ScheduleAt(hb, [&, d] {
        (void)platform.Invoke("telemetry-ingest",
                              "sensor-" + std::to_string(d),
                              [&](const faas::InvocationResult& r) {
                                if (r.status.ok()) ++heartbeats;
                              });
      });
    }
  }
  sim.Run();

  int64_t fleet = 0;
  (void)registry.Increment("fleet-size", 0, sim.Now(), &fleet);
  const auto& m = platform.metrics();
  std::printf("registrations completed: %llu, fleet-size counter: %lld "
              "(exactly-once despite %llu retried attempts)\n",
              (unsigned long long)registrations, (long long)fleet,
              (unsigned long long)m.failures);
  std::printf("heartbeats: %llu, registry rows: %zu\n",
              (unsigned long long)heartbeats, registry.size());
  std::printf("platform: %llu invocations, %llu cold starts, peak %llu "
              "containers, bill %s\n",
              (unsigned long long)m.invocations,
              (unsigned long long)m.cold_starts,
              (unsigned long long)m.peak_containers,
              platform.ledger().Total().ToString().c_str());
  std::printf("burst handled with p99 end-to-end latency %s\n",
              FormatDuration(m.e2e_latency_us.P99()).c_str());
  return fleet == 500 ? 0 : 1;
}
