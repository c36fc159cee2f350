#include "orchestration/orchestrator.h"

#include <memory>
#include <optional>
#include <vector>

#include "common/hash.h"

namespace taureau::orchestration {

Orchestrator::Orchestrator(sim::Simulation* sim, faas::FaasPlatform* platform)
    : sim_(sim), platform_(platform) {}

Status Orchestrator::RegisterComposition(const std::string& name,
                                         Composition comp) {
  if (name.empty()) return Status::InvalidArgument("empty composition name");
  auto [it, inserted] = compositions_.emplace(name, std::move(comp));
  if (!inserted) {
    return Status::AlreadyExists("composition '" + name + "'");
  }
  return Status::OK();
}

void Orchestrator::Run(const Composition& comp, std::string input,
                       ExecutionCallback cb, guard::Deadline deadline) {
  RunKeyed("", comp, std::move(input), std::move(cb), deadline);
}

void Orchestrator::RunKeyed(const std::string& run_key, const Composition& comp,
                            std::string input, ExecutionCallback cb,
                            guard::Deadline deadline) {
  const SimTime start = sim_->Now();
  obs::TraceContext root;
  if (obs_ != nullptr) {
    root = obs_->tracer.StartSpan(
        run_key.empty() ? "run" : "run:" + run_key, "orchestration", {});
    // Tenant identity: a run belongs to the tenant owning its functions.
    // The first task leaf's FunctionSpec decides (compositions mixing
    // tenants are out of the model — one workflow, one account).
    const std::string tenant = FirstTaskTenant(comp.root());
    if (root.valid() && !tenant.empty()) {
      obs_->tracer.SetAttr(root, obs::kTenantAttr, tenant);
    }
  }
  if (obs_ != nullptr && root.valid() && deadline.has_deadline()) {
    obs_->tracer.SetAttr(root, "deadline_us", std::to_string(deadline.at_us));
  }
  Exec(comp.root(), std::move(input), run_key, root, deadline,
       [this, start, root, cb = std::move(cb)](Status s, std::string output,
                                               Money cost,
                                               uint64_t invocations) {
         ExecutionResult res;
         res.status = std::move(s);
         res.output = std::move(output);
         res.cost = cost;
         res.function_invocations = invocations;
         res.start_us = start;
         res.end_us = sim_->Now();
         if (obs_ != nullptr && root.valid()) {
           // Outcome/severity at root close so tail sampling keeps every
           // failed run regardless of the head-sampling rate.
           obs_->tracer.EndSpan(
               root, {{"status", StatusCodeName(res.status.code())},
                      {"invocations", std::to_string(invocations)},
                      {obs::kOutcomeAttr, res.status.ok()
                                              ? obs::kOutcomeOk
                                              : obs::kOutcomeError},
                      {obs::kSeverityAttr,
                       res.status.ok() ? "info" : "error"}});
         }
         if (cb) cb(res);
       });
}

std::string Orchestrator::FirstTaskTenant(
    const std::shared_ptr<const Composition::Node>& node) const {
  if (node == nullptr) return "";
  if (node->kind == Composition::Kind::kTask) {
    auto spec = platform_->GetFunction(node->name);
    return spec.ok() ? spec->tenant : "";
  }
  if (node->kind == Composition::Kind::kNamed) {
    auto it = compositions_.find(node->name);
    return it != compositions_.end() ? FirstTaskTenant(it->second.root()) : "";
  }
  for (const auto& child : node->children) {
    std::string tenant = FirstTaskTenant(child);
    if (!tenant.empty()) return tenant;
  }
  return "";
}

Result<ExecutionResult> Orchestrator::RunKeyedSync(const std::string& run_key,
                                                   const Composition& comp,
                                                   std::string input) {
  std::optional<ExecutionResult> out;
  RunKeyed(run_key, comp, std::move(input),
           [&out](const ExecutionResult& res) { out = res; });
  while (!out.has_value()) {
    if (!sim_->Step()) {
      return Status::Internal("simulation drained before composition ended");
    }
  }
  return *out;
}

void Orchestrator::AttachObservability(obs::Observability* o) { obs_ = o; }

void Orchestrator::AttachChaos(chaos::InjectorRegistry* registry) {
  chaos_ = registry;
  registry->RegisterHook(
      "orchestration", chaos::FaultKind::kStepRedeliver,
      [this](const chaos::FaultEvent&) { ++armed_redelivers_; });
}

Status Orchestrator::RunNamed(const std::string& name, std::string input,
                              ExecutionCallback cb) {
  auto it = compositions_.find(name);
  if (it == compositions_.end()) {
    return Status::NotFound("composition '" + name + "'");
  }
  Run(it->second, std::move(input), std::move(cb));
  return Status::OK();
}

Result<ExecutionResult> Orchestrator::RunSync(const Composition& comp,
                                              std::string input) {
  std::optional<ExecutionResult> out;
  Run(comp, std::move(input),
      [&out](const ExecutionResult& res) { out = res; });
  while (!out.has_value()) {
    if (!sim_->Step()) {
      return Status::Internal("simulation drained before composition ended");
    }
  }
  return *out;
}

void Orchestrator::Exec(std::shared_ptr<const Composition::Node> node,
                        std::string input, std::string key,
                        obs::TraceContext ctx, guard::Deadline deadline,
                        NodeDone done) {
  using Kind = Composition::Kind;
  // Doomed work is cancelled before it invokes anything: a subtree whose
  // deadline has already passed cannot produce an output anyone waits for.
  if (deadline.Expired(sim_->Now())) {
    if (guard_ != nullptr) {
      guard_->RecordDeadlineExceeded("orchestration", ctx, sim_->Now(),
                                     sim_->Now());
    }
    done(Status::DeadlineExceeded("composition deadline expired"), "",
         Money::Zero(), 0);
    return;
  }
  switch (node->kind) {
    case Kind::kTask: {
      obs::TraceContext step;
      if (obs_ != nullptr) {
        step = obs_->tracer.StartSpan("step:" + node->name, "orchestration",
                                      ctx);
        if (step.valid() && deadline.has_deadline()) {
          // The deadline in force for this step — property-tested to never
          // exceed any enclosing stage's remaining budget.
          obs_->tracer.SetAttr(step, "deadline_us",
                               std::to_string(deadline.at_us));
        }
      }
      // Closes the step span with the outcome; safe to call when untraced.
      auto end_step = [this, step](const Status& s) {
        if (obs_ == nullptr || !step.valid()) return;
        obs_->tracer.EndSpan(step, {{"status", StatusCodeName(s.code())}});
      };
      if (!key.empty()) {
        // Idempotent execution: a step that already completed under this
        // key replays its recorded result — no second invocation, no
        // second side effect, no second charge.
        const std::string step_key =
            key + ":" + node->name + ":" + std::to_string(Fnv1a64(input));
        if (const auto* hit = idempotency_.Lookup(step_key)) {
          ++stats_.deduped_steps;
          if (obs_ != nullptr && step.valid()) {
            obs_->tracer.SetAttr(step, "deduped", "1");
          }
          end_step(hit->status);
          done(hit->status, hit->output, Money::Zero(), 0);
          return;
        }
        auto r = platform_->Invoke(
            node->name, std::move(input),
            [this, step_key, end_step,
             done = std::move(done)](const faas::InvocationResult& res) {
              if (res.status.ok()) {
                idempotency_.Record(step_key, res.status, res.output);
                if (armed_redelivers_ > 0) {
                  // Injected at-least-once duplicate: deliver the completed
                  // step again and let the cache absorb it.
                  --armed_redelivers_;
                  ++stats_.redelivered_steps;
                  if (idempotency_.Lookup(step_key) != nullptr) {
                    ++stats_.deduped_steps;
                    if (chaos_ != nullptr) {
                      chaos_->RecordRecovery(
                          "orchestration", chaos::FaultKind::kStepRedeliver,
                          res.id, "duplicate step delivery deduped");
                    }
                  }
                }
              }
              end_step(res.status);
              done(res.status, res.output, res.cost, 1);
            },
            step, deadline);
        if (!r.ok()) {
          end_step(r.status());
          done(r.status(), "", Money::Zero(), 0);
        }
        return;
      }
      auto r = platform_->Invoke(
          node->name, std::move(input),
          [end_step, done = std::move(done)](const faas::InvocationResult& res) {
            end_step(res.status);
            done(res.status, res.output, res.cost, 1);
          },
          step, deadline);
      if (!r.ok()) {
        end_step(r.status());
        done(r.status(), "", Money::Zero(), 0);
      }
      return;
    }
    case Kind::kNamed: {
      auto it = compositions_.find(node->name);
      if (it == compositions_.end()) {
        done(Status::NotFound("composition '" + node->name + "'"), "",
             Money::Zero(), 0);
        return;
      }
      Exec(it->second.root(), std::move(input), std::move(key), ctx, deadline,
           std::move(done));
      return;
    }
    case Kind::kSequence: {
      if (node->children.empty()) {
        done(Status::OK(), std::move(input), Money::Zero(), 0);
        return;
      }
      // Fold the chain: run child i, feed output into child i+1.
      struct SeqState {
        std::shared_ptr<const Composition::Node> node;
        size_t index = 0;
        Money cost;
        uint64_t invocations = 0;
        std::string key;
        obs::TraceContext ctx;
        guard::Deadline deadline;
        NodeDone done;
      };
      auto state = std::make_shared<SeqState>();
      state->node = node;
      state->key = std::move(key);
      state->ctx = ctx;
      state->deadline = deadline;
      state->done = std::move(done);
      auto step = std::make_shared<std::function<void(Status, std::string)>>();
      // The stored closure holds only a weak self-reference; the strong
      // reference travels with the pending continuation (a self-owning
      // shared_ptr cycle would never free the closure).
      *step = [this, state,
               weak = std::weak_ptr(step)](Status s, std::string payload) {
        if (!s.ok() || state->index >= state->node->children.size()) {
          state->done(std::move(s), std::move(payload), state->cost,
                      state->invocations);
          return;
        }
        const size_t i = state->index++;
        const auto child = state->node->children[i];
        auto self = weak.lock();
        Exec(child, std::move(payload),
             state->key.empty() ? "" : state->key + "/s" + std::to_string(i),
             state->ctx, state->deadline,
             [state, self](Status cs, std::string out, Money cost,
                           uint64_t inv) {
               state->cost += cost;
               state->invocations += inv;
               (*self)(std::move(cs), std::move(out));
             });
      };
      (*step)(Status::OK(), std::move(input));
      return;
    }
    case Kind::kParallel: {
      if (node->children.empty()) {
        done(Status::OK(), std::move(input), Money::Zero(), 0);
        return;
      }
      struct ParState {
        size_t remaining;
        std::vector<std::string> outputs;
        Status first_error;
        Money cost;
        uint64_t invocations = 0;
        Aggregator aggregate;
        NodeDone done;
      };
      auto state = std::make_shared<ParState>();
      state->remaining = node->children.size();
      state->outputs.resize(node->children.size());
      state->aggregate = node->aggregate;
      state->done = std::move(done);
      for (size_t i = 0; i < node->children.size(); ++i) {
        Exec(node->children[i], input,
             key.empty() ? "" : key + "/p" + std::to_string(i), ctx, deadline,
             [state, i](Status s, std::string out, Money cost, uint64_t inv) {
               state->cost += cost;
               state->invocations += inv;
               if (!s.ok() && state->first_error.ok()) {
                 state->first_error = std::move(s);
               } else {
                 state->outputs[i] = std::move(out);
               }
               if (--state->remaining == 0) {
                 if (!state->first_error.ok()) {
                   state->done(state->first_error, "", state->cost,
                               state->invocations);
                   return;
                 }
                 std::string joined;
                 if (state->aggregate) {
                   joined = state->aggregate(state->outputs);
                 } else {
                   for (size_t j = 0; j < state->outputs.size(); ++j) {
                     if (j) joined += '\n';
                     joined += state->outputs[j];
                   }
                 }
                 state->done(Status::OK(), std::move(joined), state->cost,
                             state->invocations);
               }
             });
      }
      return;
    }
    case Kind::kChoice: {
      const bool take_then = node->predicate && node->predicate(input);
      Exec(node->children[take_then ? 0 : 1], std::move(input),
           key.empty() ? "" : key + (take_then ? "/c0" : "/c1"), ctx, deadline,
           std::move(done));
      return;
    }
    case Kind::kMap: {
      // Split the input, run the item composition per piece concurrently,
      // join outputs in order.
      std::vector<std::string> items;
      {
        std::string cur;
        for (char ch : input) {
          if (ch == node->map_delimiter) {
            items.push_back(std::move(cur));
            cur.clear();
          } else {
            cur.push_back(ch);
          }
        }
        if (!cur.empty()) items.push_back(std::move(cur));
      }
      if (items.empty()) {
        done(Status::OK(), "", Money::Zero(), 0);
        return;
      }
      struct MapState {
        size_t remaining;
        std::vector<std::string> outputs;
        Status first_error;
        Money cost;
        uint64_t invocations = 0;
        char delimiter;
        NodeDone done;
      };
      auto state = std::make_shared<MapState>();
      state->remaining = items.size();
      state->outputs.resize(items.size());
      state->delimiter = node->map_delimiter;
      state->done = std::move(done);
      for (size_t i = 0; i < items.size(); ++i) {
        Exec(node->children[0], std::move(items[i]),
             key.empty() ? "" : key + "/m" + std::to_string(i), ctx, deadline,
             [state, i](Status s, std::string out, Money cost, uint64_t inv) {
               state->cost += cost;
               state->invocations += inv;
               if (!s.ok() && state->first_error.ok()) {
                 state->first_error = std::move(s);
               } else {
                 state->outputs[i] = std::move(out);
               }
               if (--state->remaining == 0) {
                 if (!state->first_error.ok()) {
                   state->done(state->first_error, "", state->cost,
                               state->invocations);
                   return;
                 }
                 std::string joined;
                 for (size_t j = 0; j < state->outputs.size(); ++j) {
                   if (j) joined.push_back(state->delimiter);
                   joined += state->outputs[j];
                 }
                 state->done(Status::OK(), std::move(joined), state->cost,
                             state->invocations);
               }
             });
      }
      return;
    }
    case Kind::kRetry: {
      struct RetryState {
        std::shared_ptr<const Composition::Node> node;
        std::string input;
        int attempt = 0;  ///< 0-based index of the running attempt.
        Money cost;
        uint64_t invocations = 0;
        std::string key;
        obs::TraceContext ctx;
        guard::Deadline deadline;
        NodeDone done;
      };
      auto state = std::make_shared<RetryState>();
      state->node = node;
      state->input = std::move(input);
      // All attempts share the subtree key: steps that succeeded on an
      // earlier attempt replay from the idempotency cache on the re-run.
      state->key = std::move(key);
      state->ctx = ctx;
      state->deadline = deadline;
      state->done = std::move(done);
      auto attempt = std::make_shared<std::function<void()>>();
      // Weak self-reference in the stored closure; each pending
      // continuation carries the strong one (see the kSequence note).
      *attempt = [this, state, weak = std::weak_ptr(attempt)] {
        auto self = weak.lock();
        Exec(state->node->children[0], state->input, state->key, state->ctx,
             state->deadline,
             [this, state, self](Status s, std::string out, Money cost,
                                 uint64_t inv) {
               state->cost += cost;
               state->invocations += inv;
               const int failed = state->attempt;
               const chaos::RetryPolicy& policy = state->node->retry_policy;
               bool want_retry =
                   !s.ok() && policy.ShouldRetry(failed) && !s.IsCancelled();
               if (want_retry && state->deadline.Expired(sim_->Now())) {
                 // No budget left to spend another attempt in.
                 if (guard_ != nullptr) {
                   guard_->RecordDeadlineExceeded("orchestration", state->ctx,
                                                  sim_->Now(), sim_->Now());
                 }
                 want_retry = false;
               }
               if (want_retry && guard_ != nullptr) {
                 // Orchestration-level re-attempts draw from the same
                 // per-client retry budget as platform attempts, so total
                 // retries stay a bounded fraction of offered load.
                 const bool granted = guard_->retry_budget().TryAcquire();
                 guard_->RecordRetryDecision("orchestration", granted,
                                             state->ctx, sim_->Now());
                 want_retry = granted;
               }
               if (want_retry) {
                 // Backoff (zero under RetryPolicy::Immediate) before the
                 // next attempt.
                 ++state->attempt;
                 const SimDuration backoff = policy.BackoffFor(failed, &rng_);
                 if (backoff > 0) {
                   if (obs_ != nullptr && state->ctx.valid()) {
                     const SimTime now = sim_->Now();
                     obs_->tracer.EmitSpan(
                         "retry-wait", "orchestration", state->ctx, now,
                         now + backoff,
                         {{obs::kCategoryAttr, "retry"},
                          {"failed_attempt", std::to_string(failed)}});
                   }
                   sim_->Schedule(backoff, [self] { (*self)(); });
                 } else {
                   (*self)();
                 }
                 return;
               }
               state->done(std::move(s), std::move(out), state->cost,
                           state->invocations);
             });
      };
      (*attempt)();
      return;
    }
    case Kind::kDeadline: {
      // Tighten-only: the child sees min(parent deadline, now + budget).
      const SimTime now = sim_->Now();
      const guard::Deadline child =
          deadline.Capped(now, node->deadline_budget_us);
      if (obs_ != nullptr && ctx.valid()) {
        obs_->tracer.EmitSpan(
            "deadline-scope", "orchestration", ctx, now, now,
            {{"budget_us", std::to_string(node->deadline_budget_us)},
             {"deadline_us", std::to_string(child.at_us)}});
      }
      Exec(node->children[0], std::move(input), std::move(key), ctx, child,
           std::move(done));
      return;
    }
  }
  done(Status::Internal("unknown composition node"), "", Money::Zero(), 0);
}

}  // namespace taureau::orchestration
