// vLLM + Priority (Fig. 1 baseline).
//
// Urgent requests (Cat 1, the tightest-SLO category) preempt non-urgent
// ones during decoding: whenever any urgent request is running, the
// decode batch contains only urgent requests. Urgent prompts also jump
// the prefill queue. This attains tight SLOs for the urgent class but shrinks effective
// batch sizes, congesting everything else — the failure mode Fig. 1 shows.
#ifndef ADASERVE_SRC_BASELINES_PRIORITY_H_
#define ADASERVE_SRC_BASELINES_PRIORITY_H_

#include "src/serve/scheduler.h"

namespace adaserve {

class PriorityScheduler : public Scheduler {
 public:
  std::string_view name() const override { return "vLLM+Priority"; }

  // Priority extends to tick-native admission: urgent arrivals jump the
  // queue, consistent with the urgent-only decode batches below.
  PriorityPolicy AdmissionPriority() const override { return PriorityPolicy::kSloUrgentFirst; }

 protected:
  // Boundary-mode step: urgent-only decode when an urgent request is
  // running and no urgent prompt is waiting, else the base
  // prefill-priority step.
  IterationRecord DrainStep(SimTime now, RequestPool& pool, ServingContext& ctx) override;
  // Tick-native decode phase: urgent-only decode whenever any urgent
  // request is running, otherwise the full running batch.
  IterationRecord DecodePhase(SimTime now, RequestPool& pool, ServingContext& ctx) override;
};

}  // namespace adaserve

#endif  // ADASERVE_SRC_BASELINES_PRIORITY_H_
