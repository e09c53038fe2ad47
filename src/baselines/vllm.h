// vLLM-style continuous batching (§2, §6.1 baselines).
//
// Prefill-priority: whenever an admitted request still needs prefill, run a
// full-prompt prefill iteration (vLLM v0.8.x default scheduling); otherwise
// run one decode iteration over every running request, committing exactly
// one token each. Per-token latency is therefore uniform across the batch —
// the limitation AdaServe targets. The prefill-priority step is the base
// Scheduler::DrainStep; vLLM only supplies the decode phase.
#ifndef ADASERVE_SRC_BASELINES_VLLM_H_
#define ADASERVE_SRC_BASELINES_VLLM_H_

#include "src/serve/scheduler.h"

namespace adaserve {

class VllmScheduler : public Scheduler {
 public:
  std::string_view name() const override { return "vLLM"; }

 protected:
  IterationRecord DecodePhase(SimTime now, RequestPool& pool, ServingContext& ctx) override;
};

}  // namespace adaserve

#endif  // ADASERVE_SRC_BASELINES_VLLM_H_
