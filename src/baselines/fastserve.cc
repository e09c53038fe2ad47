#include "src/baselines/fastserve.h"

#include <algorithm>

namespace adaserve {

IterationRecord FastServeScheduler::DecodePhase(SimTime now, RequestPool& pool,
                                                ServingContext& ctx) {
  IterationRecord record;
  const std::vector<RequestId> running = RunningRequests(pool);
  if (running.empty()) {
    return record;
  }
  // Skip-join: new requests enter at a level whose quantum covers their
  // prompt (longer prompts imply longer jobs, FastServe §4.2).
  for (RequestId id : running) {
    if (!mlfq_.contains(id)) {
      MlfqState state;
      while (state.level < config_.num_levels - 1 &&
             QuantumOf(state.level) < pool.Get(id).prompt_len / 8) {
        ++state.level;
      }
      mlfq_[id] = state;
    }
  }
  // Fill the decode batch in priority order: highest-priority levels first,
  // lower levels back-fill remaining batch slots.
  std::vector<RequestId> batch = running;
  std::stable_sort(batch.begin(), batch.end(),
                   [this](RequestId a, RequestId b) { return mlfq_[a].level < mlfq_[b].level; });
  if (static_cast<int>(batch.size()) > config_.max_batch) {
    batch.resize(static_cast<size_t>(config_.max_batch));
  }
  record = RunDecodeIteration(now, pool, ctx, batch);
  // Demote requests that exhausted their quantum.
  for (RequestId id : batch) {
    MlfqState& state = mlfq_[id];
    ++state.served_in_level;
    if (state.served_in_level >= QuantumOf(state.level) &&
        state.level < config_.num_levels - 1) {
      ++state.level;
      state.served_in_level = 0;
    }
  }
  return record;
}

}  // namespace adaserve
