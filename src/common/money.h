// Exact money arithmetic for the billing experiments.
//
// Billing comparisons (E3, E15) assert exact equalities (e.g. "a composition
// costs exactly the sum of its parts"), so cost is integer nano-dollars, not
// floating point.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>

namespace taureau {

/// Non-negative-ish monetary amount in integer nano-dollars (1e-9 USD).
/// Nano-dollar granularity comfortably represents per-100ms Lambda-style
/// unit prices (e.g. $0.0000002083 per 100ms-128MB == 208.3 nano$ rounds
/// to 208) while keeping arithmetic exact.
class Money {
 public:
  constexpr Money() = default;

  static constexpr Money FromNanoDollars(int64_t n) { return Money(n); }
  static constexpr Money FromDollars(double d) {
    return Money(static_cast<int64_t>(d * 1e9 + (d >= 0 ? 0.5 : -0.5)));
  }
  static constexpr Money Zero() { return Money(0); }

  constexpr int64_t nano_dollars() const { return nano_; }
  constexpr double dollars() const { return double(nano_) / 1e9; }

  constexpr Money operator+(Money o) const { return Money(nano_ + o.nano_); }
  constexpr Money operator-(Money o) const { return Money(nano_ - o.nano_); }
  constexpr Money operator*(int64_t k) const { return Money(nano_ * k); }
  Money& operator+=(Money o) {
    nano_ += o.nano_;
    return *this;
  }
  Money& operator-=(Money o) {
    nano_ -= o.nano_;
    return *this;
  }
  constexpr auto operator<=>(const Money&) const = default;

  std::string ToString() const {
    char buf[48];
    std::snprintf(buf, sizeof(buf), "$%.9f", dollars());
    return buf;
  }

 private:
  explicit constexpr Money(int64_t nano) : nano_(nano) {}
  int64_t nano_ = 0;
};

}  // namespace taureau
