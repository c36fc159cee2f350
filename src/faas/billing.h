// Fine-grained billing (paper §2: "users only pay for the resources they
// actually use, and for the duration that they use it").
//
// Billing is an aggregate, so the ledger keeps aggregates: how many
// attempts it charged, their total, and the total per function. Those are
// exact, so the billing experiments (E3), the orchestration
// no-double-billing property (E15) and reuse's single-billing (E29) assert
// equalities on them. Memory is O(functions), not O(attempts).
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>

#include "common/money.h"
#include "common/time_types.h"

namespace taureau::faas {

/// Lambda-style pricing knobs.
struct BillingRates {
  /// Price per GB-second of allocated memory (AWS Lambda 2020: ~$1.6667e-5).
  Money per_gb_second = Money::FromNanoDollars(16667);
  /// Billed-duration quantum — durations round *up* to a multiple of this
  /// (classic Lambda: 100ms; post-2020: 1ms).
  SimDuration quantum_us = 100 * kMillisecond;
  /// Flat per-request fee ($0.20 per million requests).
  Money per_request = Money::FromNanoDollars(200);
};

/// Charge ledger: a count of billed attempts (retries are billed attempts
/// too, as on real FaaS platforms) and their totals.
class BillingLedger {
 public:
  explicit BillingLedger(BillingRates rates) : rates_(rates) {}

  /// Prices one attempt of `function`, adds it to the totals and returns
  /// the amount.
  Money Charge(const std::string& function, SimDuration duration_us,
               int64_t memory_mb);

  /// Pure pricing function (no side effects): duration rounds up to the
  /// quantum; amount = quanta * per-GB-s rate scaled by memory + request fee.
  Money Price(SimDuration duration_us, int64_t memory_mb) const;

  Money Total() const { return total_; }
  Money TotalFor(const std::string& function) const;
  /// Attempts charged so far.
  uint64_t record_count() const { return record_count_; }
  const BillingRates& rates() const { return rates_; }

 private:
  BillingRates rates_;
  Money total_;
  uint64_t record_count_ = 0;
  std::unordered_map<std::string, Money> per_function_;
};

}  // namespace taureau::faas
