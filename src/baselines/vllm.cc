#include "src/baselines/vllm.h"

namespace adaserve {

IterationRecord VllmScheduler::DecodePhase(SimTime now, RequestPool& pool, ServingContext& ctx) {
  return RunDecodeIteration(now, pool, ctx, RunningRequests(pool));
}

}  // namespace adaserve
