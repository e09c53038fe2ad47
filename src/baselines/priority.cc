#include "src/baselines/priority.h"

#include "src/workload/categories.h"

namespace adaserve {

IterationRecord PriorityScheduler::DrainStep(SimTime now, RequestPool& pool,
                                             ServingContext& ctx) {
  // Urgent decodes take precedence over non-urgent prefills; an urgent
  // prompt still waiting runs the prefill-priority step first.
  bool urgent_running = false;
  bool urgent_prefilling = false;
  for (RequestId id : pool.active()) {
    const Request& req = pool.Get(id);
    if (req.category == kCatCoding) {
      urgent_running |= req.state == RequestState::kRunning;
      urgent_prefilling |= req.state == RequestState::kPrefilling;
    }
  }
  if (urgent_running && !urgent_prefilling) {
    return DecodePhase(now, pool, ctx);
  }
  return Scheduler::DrainStep(now, pool, ctx);
}

IterationRecord PriorityScheduler::DecodePhase(SimTime now, RequestPool& pool,
                                               ServingContext& ctx) {
  const std::vector<RequestId> running = RunningRequests(pool);
  std::vector<RequestId> urgent;
  for (RequestId id : running) {
    if (pool.Get(id).category == kCatCoding) {
      urgent.push_back(id);
    }
  }
  return RunDecodeIteration(now, pool, ctx, urgent.empty() ? running : urgent);
}

}  // namespace adaserve
