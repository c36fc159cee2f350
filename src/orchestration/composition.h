// Function compositions (paper §4.2).
//
// Lopez et al.'s three properties, which this module satisfies and the
// tests verify:
//   1. functions are black boxes — a composition references functions only
//      by name and payload;
//   2. a composition is itself a function — compositions register under a
//      name and can be invoked or nested like any function;
//   3. no double billing — running a composition charges exactly the sum of
//      its basic function charges (asserted against the billing ledger).
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "chaos/retry_policy.h"
#include "common/time_types.h"

namespace taureau::orchestration {

/// Joins parallel branch outputs into one payload. Default joins with '\n'.
using Aggregator = std::function<std::string(const std::vector<std::string>&)>;

/// Routes a Choice node based on the incoming payload.
using Predicate = std::function<bool(const std::string&)>;

/// A composition tree. Build with the static factories; immutable after
/// construction and cheap to copy (shared nodes).
class Composition {
 public:
  enum class Kind {
    kTask,
    kSequence,
    kParallel,
    kChoice,
    kNamed,
    kRetry,
    kMap,
    kDeadline,
  };

  /// Invoke one registered platform function (input payload flows in).
  static Composition Task(std::string function_name);

  /// Run children left-to-right, piping each output into the next input.
  static Composition Sequence(std::vector<Composition> steps);

  /// Run children concurrently on the same input; outputs are aggregated.
  static Composition Parallel(std::vector<Composition> branches,
                              Aggregator aggregate = nullptr);

  /// if (pred(input)) then_branch else else_branch.
  static Composition Choice(Predicate pred, Composition then_branch,
                            Composition else_branch);

  /// Invoke a *registered composition* by name (property 2: compositions
  /// compose like functions).
  static Composition Named(std::string composition_name);

  /// Re-run the child on failure, up to `policy.max_attempts` times in
  /// all (orchestration-level retry, on top of the platform's own attempt
  /// retries). The orchestrator waits `policy.BackoffFor(i)` between
  /// attempt i and i+1 (exponential backoff with jitter, shared with the
  /// FaaS platform's chaos::RetryPolicy); RetryPolicy::Immediate(n)
  /// re-attempts with no wait.
  static Composition Retry(Composition child, chaos::RetryPolicy policy);

  /// Step-Functions-style Map state: splits the input on `delimiter`, runs
  /// `item` on every piece concurrently, and joins the outputs with the
  /// same delimiter (order preserved).
  static Composition Map(Composition item, char delimiter = '\n');

  /// Caps the child's deadline at `budget_us` from the moment the node
  /// executes — but never looser than the deadline already in force, so a
  /// child's deadline can only shrink as it nests (taureau::guard deadline
  /// propagation). A subtree whose deadline has expired is cancelled
  /// (DeadlineExceeded) without invoking any of its functions.
  static Composition WithDeadline(Composition child, SimDuration budget_us);

  struct Node {
    Kind kind = Kind::kTask;
    std::string name;  // function or composition name
    std::vector<std::shared_ptr<const Node>> children;
    Aggregator aggregate;
    Predicate predicate;
    /// kRetry: attempt budget and backoff schedule.
    chaos::RetryPolicy retry_policy = chaos::RetryPolicy::None();
    char map_delimiter = '\n';
    /// kDeadline: per-stage time budget applied when the node executes.
    SimDuration deadline_budget_us = 0;
  };

  const std::shared_ptr<const Node>& root() const { return root_; }

  /// Total Task/Named leaves, for sanity checks.
  size_t LeafCount() const;

 private:
  explicit Composition(std::shared_ptr<const Node> root)
      : root_(std::move(root)) {}
  std::shared_ptr<const Node> root_;
};

}  // namespace taureau::orchestration
