#pragma once
// A fixed piece of host work that gauges how fast this host runs
// simulator-shaped code at the moment.
//
// On a shared host, other tenants' memory traffic slows the invoke
// workloads by up to 1.7x for minutes at a time, with no steal time and no
// change in how fast arithmetic runs. This work slows with them: it fills
// a hash table of live entries and a binary heap of pending events from
// the process heap, then drains the heap while looking entries up, as an
// event loop does. Timing it right around each repetition turns that
// repetition's host seconds into reference seconds (see README.md).

namespace perfbench {

/// Host seconds of one pass on a host with no memory contention (a 4-core
/// x86 VM): the length of a reference second's worth of passes, divided
/// by the passes in it.
inline constexpr double kReferencePassSeconds = 0.025;

/// Runs one pass (the same operations every time); its host seconds.
double ReferencePassSeconds();

}  // namespace perfbench
