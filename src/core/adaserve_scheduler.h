// The AdaServe scheduler: SLO-customized speculative decoding (§4.3, §5).
//
// Each decode iteration runs the speculate-select-verify pipeline:
//   1. Speculation   — adaptive-depth/width beam search builds a candidate
//                      token tree per running request (draft model, GPU).
//   2. Selection     — SLO-customized phase satisfies each request's
//                      A_cap(r), then chunked prefill is co-batched, then
//                      the throughput-optimized phase spends what remains
//                      (CPU; its cost is modelled and shows up in Fig. 15).
//   3. Verification  — one batched target forward pass verifies all draft
//                      trees and prefill chunks; accepted + bonus tokens
//                      commit.
#ifndef ADASERVE_SRC_CORE_ADASERVE_SCHEDULER_H_
#define ADASERVE_SRC_CORE_ADASERVE_SCHEDULER_H_

#include <vector>

#include "src/core/adaptive.h"
#include "src/core/selection.h"
#include "src/serve/scheduler.h"
#include "src/spec/beam_search.h"
#include "src/spec/tree_batch.h"

namespace adaserve {

struct AdaServeConfig {
  SelectionConfig selection;
  AdaptiveConfig adaptive;
  // Ablation switches.
  bool adaptive_control = true;  // false => use fixed_beam
  BeamConfig fixed_beam = {.depth = 4, .width = 2};
  bool slo_phase_enabled = true;  // false => throughput-only selection
};

class AdaServeScheduler : public Scheduler {
 public:
  explicit AdaServeScheduler(const AdaServeConfig& config = {})
      : config_(config), selector_(config.selection) {}

  std::string_view name() const override { return "AdaServe"; }

  // SLO-customized serving extends to admission: urgent-category arrivals
  // jump the queue and may recompute-evict non-urgent prefills.
  PriorityPolicy AdmissionPriority() const override { return PriorityPolicy::kSloUrgentFirst; }

  // Last iteration's (d, w) — exposed for the adaptive-control tests.
  const BeamConfig& last_beam() const { return last_beam_; }

 protected:
  IterationRecord DrainStep(SimTime now, RequestPool& pool, ServingContext& ctx) override;
  // Tick-native decode phase: the speculate-select-verify pipeline over
  // running requests with the full budget; chunked prefill moves to the
  // shared burst-capped prefill phase of the tick.
  IterationRecord DecodePhase(SimTime now, RequestPool& pool, ServingContext& ctx) override;

 private:
  IterationRecord PrefillOnlyStep(SimTime now, RequestPool& pool, ServingContext& ctx);
  // One speculate-select-verify iteration over `running`; prompts in
  // `prefilling` are co-batched as chunked prefill (pass an empty list to
  // run decode-only, as the tick-native decode phase does).
  IterationRecord SpecIteration(SimTime now, RequestPool& pool, ServingContext& ctx,
                                const std::vector<RequestId>& running,
                                const std::vector<RequestId>& prefilling);

  AdaServeConfig config_;
  // Previous iteration duration, used as the t_spec estimate in A(r).
  SimTime last_duration_ = -1.0;
  BeamConfig last_beam_;
  // Speculation storage kept across iterations so building and selecting
  // stop allocating: candidate tree i belongs to the iteration's i-th
  // running request.
  TreeBatch candidates_;
  // Draft tokens per request at each beam step: 1 (the roots), then w.
  std::vector<int> draft_widths_;
  std::vector<SelectionRequest> sel_requests_;
  TokenSelector selector_;
};

}  // namespace adaserve

#endif  // ADASERVE_SRC_CORE_ADASERVE_SCHEDULER_H_
