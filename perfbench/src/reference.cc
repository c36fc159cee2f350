#include "reference.h"

#include <cstdint>
#include <queue>
#include <unordered_map>

#include "span_trace.h"

namespace perfbench {
namespace {

constexpr int kEvents = 100000;
constexpr uint64_t kKeyMask = (uint64_t(1) << 20) - 1;

/// Keeps the lookups' result observable.
volatile uint64_t g_sink = 0;

uint64_t XorShift(uint64_t x) {
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  return x;
}

}  // namespace

double ReferencePassSeconds() {
  const int64_t start = NowNs();
  std::unordered_map<uint64_t, uint64_t> live;
  std::priority_queue<uint64_t> pending;
  uint64_t x = 0x9e3779b97f4a7c15;
  for (int i = 0; i < kEvents; ++i) {
    x = XorShift(x);
    live[x & kKeyMask] += uint64_t(i);
    pending.push(x);
  }
  uint64_t sum = 0;
  for (int i = 0; i < kEvents; ++i) {
    sum += pending.top();
    pending.pop();
    x = XorShift(x);
    const auto it = live.find(x & kKeyMask);
    if (it != live.end()) sum += it->second;
  }
  const int64_t end = NowNs();  // Freeing the table is not timed.
  g_sink = sum;
  return double(end - start) / 1e9;
}

}  // namespace perfbench
