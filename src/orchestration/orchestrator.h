// The orchestrator: executes compositions on a FaasPlatform.
#pragma once

#include <functional>
#include <map>
#include <string>

#include "chaos/idempotency.h"
#include "chaos/injector.h"
#include "common/money.h"
#include "common/rng.h"
#include "common/status.h"
#include "faas/platform.h"
#include "guard/deadline.h"
#include "guard/guard.h"
#include "obs/observability.h"
#include "orchestration/composition.h"
#include "sim/simulation.h"

namespace taureau::orchestration {

/// Outcome of one composition execution.
struct ExecutionResult {
  Status status;
  std::string output;
  /// Sum of the billed costs of the basic function invocations — and of
  /// nothing else (property 3).
  Money cost;
  uint64_t function_invocations = 0;
  SimTime start_us = 0;
  SimTime end_us = 0;

  SimDuration Makespan() const { return end_us - start_us; }
};

using ExecutionCallback = std::function<void(const ExecutionResult&)>;

/// Chaos / at-least-once bookkeeping.
struct OrchestratorStats {
  uint64_t deduped_steps = 0;      ///< Task deliveries absorbed by the cache.
  uint64_t redelivered_steps = 0;  ///< Injected duplicate step deliveries.
};

/// Executes compositions. The orchestrator itself never appends to the
/// billing ledger: the only charges are those of the functions it invokes.
class Orchestrator {
 public:
  Orchestrator(sim::Simulation* sim, faas::FaasPlatform* platform);

  /// Registers a composition under a name so Named() nodes (and Run by
  /// name) can reference it — compositions are functions (property 2).
  Status RegisterComposition(const std::string& name, Composition comp);

  /// Runs a composition asynchronously; `cb` fires in simulated time.
  /// `deadline` (optional) is propagated to every child: nested stages only
  /// ever see a deadline at least as tight as their parent's, expired
  /// subtrees are cancelled before invoking functions, and WithDeadline
  /// nodes tighten it further (taureau::guard).
  void Run(const Composition& comp, std::string input, ExecutionCallback cb,
           guard::Deadline deadline = {});

  /// Runs a composition under an idempotency key: each Task step derives a
  /// key from (run_key, position in the tree, function, input hash), and a
  /// completed step's result is cached so an at-least-once re-delivery (or
  /// a retry of an already-succeeded subtree) returns the recorded output
  /// instead of re-applying the side effect. Distinct run_keys never share
  /// cache entries.
  void RunKeyed(const std::string& run_key, const Composition& comp,
                std::string input, ExecutionCallback cb,
                guard::Deadline deadline = {});

  /// Convenience: keyed run driven to completion.
  Result<ExecutionResult> RunKeyedSync(const std::string& run_key,
                                       const Composition& comp,
                                       std::string input);

  /// Runs a registered composition by name.
  Status RunNamed(const std::string& name, std::string input,
                  ExecutionCallback cb);

  /// Convenience: run and drive the simulation until completion.
  Result<ExecutionResult> RunSync(const Composition& comp, std::string input);

  // ------------------------------------------------------------- chaos
  /// Registers the step-redeliver hook under the "orchestration" module:
  /// each injected event arms one duplicate delivery of the next completed
  /// keyed step, which the idempotency cache must absorb.
  void AttachChaos(chaos::InjectorRegistry* registry);

  /// Enables causal tracing: every Run opens a root span, each Task step a
  /// child span (deduped replays are zero-length, attr deduped=1), Retry
  /// backoffs emit cat=retry waits, and the platform's per-attempt spans
  /// nest beneath the step via the propagated context.
  void AttachObservability(obs::Observability* o);

  /// Wires overload protection: orchestration-level Retry re-attempts draw
  /// from the guard's shared retry budget, and deadline expiries are
  /// recorded as guard metrics/spans.
  void AttachGuard(guard::Guard* g) { guard_ = g; }

  /// Bounds the step idempotency cache (0 = unbounded, the default).
  void set_idempotency_capacity(size_t capacity) {
    idempotency_.set_capacity(capacity);
  }

  const chaos::IdempotencyCache& idempotency() const { return idempotency_; }
  const OrchestratorStats& stats() const { return stats_; }

 private:
  using NodeDone = std::function<void(Status, std::string output, Money cost,
                                      uint64_t invocations)>;

  /// `key` is the idempotency scope for this subtree ("" = keying off);
  /// `ctx` is the enclosing span for emitted step spans; `deadline` is the
  /// absolute budget in force — children only ever receive it unchanged or
  /// tightened (kDeadline nodes), never loosened.
  void Exec(std::shared_ptr<const Composition::Node> node, std::string input,
            std::string key, obs::TraceContext ctx, guard::Deadline deadline,
            NodeDone done);

  /// Tenant of the first task leaf's registered FunctionSpec (depth-first;
  /// follows Named references), or "" when none is tagged.
  std::string FirstTaskTenant(
      const std::shared_ptr<const Composition::Node>& node) const;

  sim::Simulation* sim_;
  faas::FaasPlatform* platform_;
  std::map<std::string, Composition> compositions_;
  Rng rng_{97};  ///< Retry-backoff jitter (deterministic).
  chaos::IdempotencyCache idempotency_;
  chaos::InjectorRegistry* chaos_ = nullptr;
  uint32_t armed_redelivers_ = 0;
  OrchestratorStats stats_;
  obs::Observability* obs_ = nullptr;
  guard::Guard* guard_ = nullptr;
};

}  // namespace taureau::orchestration
