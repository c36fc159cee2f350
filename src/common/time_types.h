// Simulated-time types.
//
// All simulated time is integer microseconds since simulation start. Using a
// strong typedef would add friction across hundreds of call sites for little
// safety; instead the convention is: every variable holding simulated time
// carries a `_us` suffix or is of type SimTime/SimDuration.
#pragma once

#include <cstdint>

namespace taureau {

/// Absolute simulated time, microseconds since t=0.
using SimTime = int64_t;

/// Length of simulated time, microseconds.
using SimDuration = int64_t;

constexpr SimDuration kMicrosecond = 1;
constexpr SimDuration kMillisecond = 1000;
constexpr SimDuration kSecond = 1000 * kMillisecond;
constexpr SimDuration kMinute = 60 * kSecond;
constexpr SimDuration kHour = 60 * kMinute;

constexpr double ToSeconds(SimDuration d) { return double(d) / kSecond; }
constexpr double ToMillis(SimDuration d) { return double(d) / kMillisecond; }
constexpr SimDuration FromSeconds(double s) {
  return static_cast<SimDuration>(s * kSecond);
}

}  // namespace taureau
