#include "src/baselines/edf.h"

namespace adaserve {

std::vector<RequestId> EdfDecodeBatch(SimTime now, const RequestPool& pool,
                                      const ServingContext& ctx) {
  std::vector<RequestId> running = RunningRequests(pool);
  if (running.empty()) {
    return running;
  }
  SortByDeadline(pool, running);
  // Largest feasible prefix: growing the batch raises everyone's iteration
  // latency, so EDF sheds the latest-deadline requests first when the full
  // batch would miss the earliest live deadline. The binding constraint of
  // a sorted prefix is its first not-yet-overdue deadline (overdue ones
  // are sunk tardiness and constrain nothing), which never changes once
  // seen — so feasibility is monotone and one forward scan finds the cut.
  size_t k = 1;
  long context = 0;
  SimTime binding_deadline = 0.0;
  bool have_binding = false;
  for (size_t i = 0; i < running.size(); ++i) {
    context += pool.Get(running[i]).KvTokens();
    if (!have_binding) {
      const SimTime deadline = pool.Get(running[i]).NextTokenDeadline();
      if (deadline > now) {
        binding_deadline = deadline;
        have_binding = true;
      }
    }
    if (have_binding) {
      const SimTime latency = ctx.target_latency->ForwardLatency(
          static_cast<int>(i + 1), context, /*use_cuda_graph=*/true);
      if (i + 1 > 1 && now + latency > binding_deadline) {
        break;  // This and every larger prefix misses the binding deadline.
      }
    }
    k = i + 1;
  }
  running.resize(k);
  return running;
}

IterationRecord EdfScheduler::DecodePhase(SimTime now, RequestPool& pool, ServingContext& ctx) {
  return RunDecodeIteration(now, pool, ctx, EdfDecodeBatch(now, pool, ctx));
}

}  // namespace adaserve
