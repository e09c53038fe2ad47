// Experiment harness: bundles a Table-1 setup (models, parallelism, GPU)
// with the synthetic LM pair and latency models so benches and examples can
// run schedulers over workloads with one call.
#ifndef ADASERVE_SRC_HARNESS_EXPERIMENT_H_
#define ADASERVE_SRC_HARNESS_EXPERIMENT_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/hw/budget.h"
#include "src/serve/engine.h"
#include "src/workload/generator.h"

namespace adaserve {

// One evaluation setup (a row of Table 1).
struct Setup {
  std::string label;
  ModelProfile target_profile;
  ModelProfile draft_profile;
  int tensor_parallel = 1;
  GpuSpec gpu;
  // Draft deployment. Unset draft_gpu: the draft is colocated on the
  // target's GPU type (the classic Table-1 shape). Set: the draft runs on
  // its own dedicated device — the cluster layer's draft-on-separate-GPU
  // replica shape, which makes a bigger (higher-fidelity) draft
  // affordable because its decode time never contends with verification.
  std::optional<GpuSpec> draft_gpu;
  int draft_tensor_parallel = 1;
  LmConfig lm_config;
  DraftConfig draft_config;
};

// Llama-3.1-70B-Instruct, 4-way TP on 4x A100-80G; Llama-3.2-1B draft.
Setup LlamaSetup();
// Qwen2.5-32B-Instruct, 2-way TP on 2x A100-80G; Qwen2.5-0.5B draft.
Setup QwenSetup();

// Heterogeneous cluster replica shapes (ROADMAP cluster item). All three
// serve the same Llama-3.1-70B target as LlamaSetup, so one workload can
// be routed across any mix of them:
//
// 8-way TP on 8x H100-80G with the 8B strong draft colocated — the
// fleet's spec-decode-strong fast replica.
Setup LlamaH100Tp8Setup();
// 8-way TP on 8x A100-80G, 1B draft (capacity via TP width alone).
Setup LlamaTp8Setup();
// 4-way TP on 4x A100-80G with the 8B strong draft offloaded to a
// dedicated H100 (draft-on-separate-GPU).
Setup LlamaDraftOffloadSetup();

// Instantiated setup: owns the models and latency models.
class Experiment {
 public:
  explicit Experiment(const Setup& setup);

  const Setup& setup() const { return setup_; }
  const SyntheticLm& target() const { return target_; }
  const DraftLm& draft() const { return draft_; }
  const LatencyModel& target_latency() const { return target_latency_; }
  const LatencyModel& draft_latency() const { return draft_latency_; }

  // Unloaded single-request decode latency (Table 2's baseline).
  double BaselineLatency() const { return target_latency_.BaselineDecodeLatency(); }

  // Table 2 resolved against this setup's baseline latency.
  std::vector<CategorySpec> Categories(const CategoryConfig& config = {}) const;

  // The Fig. 7 workload: real-trace-shaped arrivals over [0, duration)
  // at `mean_rps`, each drawing a category from `mix` and lengths from
  // this setup's Table 2 categories. Single-pass: build one per run.
  std::unique_ptr<ArrivalStream> RealTraceStream(double duration, double mean_rps,
                                                 const WorkloadConfig& mix = {},
                                                 uint64_t trace_seed = 42,
                                                 const CategoryConfig& cat = {}) const;

  // RealTraceStream drained into a vector, for callers that inspect or
  // edit the requests before serving them.
  std::vector<Request> RealTraceWorkload(double duration, double mean_rps,
                                         const WorkloadConfig& mix = {},
                                         uint64_t trace_seed = 42,
                                         const CategoryConfig& cat = {}) const;

  // Runs one scheduler over a workload — an owned or borrowed
  // ArrivalStream (single-pass; build a fresh one per run) or an
  // arrival-sorted request vector, each of which converts to
  // WorkloadSource implicitly — and returns its metrics. The engine
  // behavior (tick protocol included) comes entirely
  // from `engine`: EngineConfig{} is the tick-native default, and
  // BoundaryTickConfig (comparisons.h) the legacy boundary mode. Per-tick
  // records reach an EngineConfig::trace_sink, if set.
  EngineResult Run(Scheduler& scheduler, WorkloadSource workload, const EngineConfig& engine = {},
                   int verify_budget = 0, int draft_budget = 0) const;

 private:
  Setup setup_;
  SyntheticLm target_;
  DraftLm draft_;
  LatencyModel target_latency_;
  LatencyModel draft_latency_;
};

}  // namespace adaserve

#endif  // ADASERVE_SRC_HARNESS_EXPERIMENT_H_
