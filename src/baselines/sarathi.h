// Sarathi-Serve: chunked prefill co-batched with decode (§2, §7).
//
// Each iteration fills a fixed token budget: first one decode token per
// running request, then prompt chunks from prefilling requests. Long
// prompts no longer stall decodes, at the cost of slightly longer
// iterations — the throughput/latency trade Sarathi targets.
#ifndef ADASERVE_SRC_BASELINES_SARATHI_H_
#define ADASERVE_SRC_BASELINES_SARATHI_H_

#include "src/serve/scheduler.h"

namespace adaserve {

struct SarathiConfig {
  // Per-iteration token budget shared by decode tokens and prefill chunks.
  int chunk_budget = 512;
};

class SarathiScheduler : public Scheduler {
 public:
  explicit SarathiScheduler(const SarathiConfig& config = {});

  std::string_view name() const override { return "Sarathi-Serve"; }

 protected:
  IterationRecord DrainStep(SimTime now, RequestPool& pool, ServingContext& ctx) override;
  // Tick-native decode phase: the decode half of the chunk budget. Prompt
  // chunks move to the shared burst-capped prefill phase of the tick.
  IterationRecord DecodePhase(SimTime now, RequestPool& pool, ServingContext& ctx) override;

 private:
  // The decode half of an iteration: one token per running request, FIFO,
  // at most chunk_budget of them.
  std::vector<RequestId> DecodeBatch(const RequestPool& pool) const;

  SarathiConfig config_;
};

}  // namespace adaserve

#endif  // ADASERVE_SRC_BASELINES_SARATHI_H_
