#include "faas/billing.h"

namespace taureau::faas {

Money BillingLedger::Price(SimDuration duration_us, int64_t memory_mb) const {
  if (duration_us < 0) duration_us = 0;
  const SimDuration q = rates_.quantum_us > 0 ? rates_.quantum_us : 1;
  const int64_t quanta = (duration_us + q - 1) / q;
  const SimDuration billed_us = quanta * q;
  // nano$ = per_gb_second_nano * (mem_mb / 1024) * (billed_us / 1e6).
  // Keep the arithmetic in integers; the product fits i128 comfortably.
  const __int128 nano = static_cast<__int128>(
                            rates_.per_gb_second.nano_dollars()) *
                        memory_mb * billed_us / (1024LL * 1000000LL);
  return Money::FromNanoDollars(static_cast<int64_t>(nano)) +
         rates_.per_request;
}

Money BillingLedger::Charge(const std::string& function,
                            SimDuration duration_us, int64_t memory_mb) {
  const Money amount = Price(duration_us, memory_mb);
  ++record_count_;
  total_ += amount;
  per_function_[function] += amount;
  return amount;
}

Money BillingLedger::TotalFor(const std::string& function) const {
  auto it = per_function_.find(function);
  return it == per_function_.end() ? Money::Zero() : it->second;
}

}  // namespace taureau::faas
