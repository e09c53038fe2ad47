// vLLM + Priority (Fig. 1 baseline).
//
// Urgent requests (tightest-SLO category) preempt non-urgent ones during
// decoding: whenever any urgent request is running, the decode batch
// contains only urgent requests. Urgent prompts also jump the prefill
// queue. This attains tight SLOs for the urgent class but shrinks effective
// batch sizes, congesting everything else — the failure mode Fig. 1 shows.
#ifndef ADASERVE_SRC_BASELINES_PRIORITY_H_
#define ADASERVE_SRC_BASELINES_PRIORITY_H_

#include "src/serve/scheduler.h"

namespace adaserve {

struct PriorityConfig {
  // Category treated as urgent (Cat 1 by default).
  int urgent_category = 0;
};

class PriorityScheduler : public Scheduler {
 public:
  explicit PriorityScheduler(const PriorityConfig& config = {}) : config_(config) {}

  std::string_view name() const override { return "vLLM+Priority"; }

  // Priority extends to tick-native admission: urgent arrivals jump the
  // queue, consistent with the urgent-only decode batches below.
  PriorityPolicy AdmissionPriority() const override { return PriorityPolicy::kSloUrgentFirst; }

 protected:
  IterationRecord DrainStep(SimTime now, RequestPool& pool, ServingContext& ctx) override;
  // Tick-native decode phase: urgent-only decode whenever any urgent
  // request is running, otherwise the full running batch.
  IterationRecord DecodePhase(SimTime now, RequestPool& pool, ServingContext& ctx) override;

 private:
  PriorityConfig config_;
};

}  // namespace adaserve

#endif  // ADASERVE_SRC_BASELINES_PRIORITY_H_
