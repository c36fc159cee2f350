// Deadline-aware admission control (the reject-on-arrival half of overload
// protection). An AdmissionController fronts a queue it does not own: the
// owning module reports its queue depth (or a directly-known wait) and the
// request's deadline, and the controller decides admit / shed.
//
// Two shed reasons, deliberately distinguished in the counters because
// they call for different operator responses:
//   - queue-full: the bounded queue is at capacity — capacity problem.
//   - deadline:   expected wait + service exceeds the request's remaining
//                 budget, so finishing it is impossible — admitting it
//                 would burn capacity on work the caller will discard
//                 (the metastable-failure fuel).
//
// Expected service time is an EWMA of observed service times, seeded with
// a configured prior so the controller sheds sensibly before the first
// completion.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/time_types.h"
#include "guard/deadline.h"

namespace taureau::guard {

struct AdmissionConfig {
  /// Queue-depth bound; 0 = unbounded (depth never sheds).
  size_t max_queue_depth = 0;
  /// Bound on estimated wait; 0 = unbounded.
  SimDuration max_wait_us = 0;
  /// Prior for the expected-service EWMA before any sample arrives.
  SimDuration expected_service_us = 10 * kMillisecond;
  /// EWMA smoothing weight for new service-time samples.
  double ewma_alpha = 0.2;
};

enum class AdmissionDecision {
  kAdmit = 0,
  kShedQueueFull,  ///< Bounded queue at capacity.
  kShedDeadline,   ///< Remaining deadline < expected wait + service.
};

const char* AdmissionDecisionName(AdmissionDecision d);

class AdmissionController {
 public:
  AdmissionController() : AdmissionController(AdmissionConfig{}) {}
  explicit AdmissionController(AdmissionConfig config);

  /// Admission check for a queue of `queue_depth` waiting requests drained
  /// by `parallelism` servers. Counts the decision.
  AdmissionDecision Admit(size_t queue_depth, size_t parallelism, Deadline d,
                          SimTime now);

  /// Admission check when the caller knows the wait directly (e.g. a
  /// serial device's next-free time). Counts the decision.
  AdmissionDecision AdmitWithWait(SimDuration expected_wait_us, Deadline d,
                                  SimTime now);

  /// Feeds one observed service time into the EWMA.
  void RecordService(SimDuration service_us);

  SimDuration expected_service_us() const { return expected_service_; }
  SimDuration ExpectedWait(size_t queue_depth, size_t parallelism) const;

  const AdmissionConfig& config() const { return config_; }
  uint64_t admitted() const { return admitted_; }
  uint64_t shed_queue_full() const { return shed_queue_full_; }
  uint64_t shed_deadline() const { return shed_deadline_; }
  uint64_t shed_total() const { return shed_queue_full_ + shed_deadline_; }

 private:
  AdmissionDecision Decide(size_t queue_depth, SimDuration expected_wait_us,
                           Deadline d, SimTime now);

  AdmissionConfig config_;
  SimDuration expected_service_ = 0;
  bool have_sample_ = false;
  uint64_t admitted_ = 0;
  uint64_t shed_queue_full_ = 0;
  uint64_t shed_deadline_ = 0;
};

}  // namespace taureau::guard
