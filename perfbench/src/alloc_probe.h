// Allocation probe: the benchmark executables replace global operator new
// (alloc_probe.cc) with one that counts into a thread-local counter, so
// allocations per request are counted rather than estimated, and psim worker
// threads never contend on a shared counter.
#pragma once

#include <cstdint>

namespace perfbench {

/// Heap allocations (operator new calls of any form) made by the calling
/// thread since it started.
uint64_t ThreadAllocs();

}  // namespace perfbench
