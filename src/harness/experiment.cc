#include "src/harness/experiment.h"

#include <utility>

namespace adaserve {
namespace {

LmConfig DefaultLmConfig(uint64_t seed) {
  LmConfig config;
  // Peaked next-token distributions: real instruction-tuned LLMs put ~80% of
  // the mass on the top token at serving temperatures, which is what makes
  // speculation pay off. zipf 3.0 over a 24-token support reproduces that.
  config.zipf_exponent = 3.0;
  config.support = 24;
  config.context_order = 3;
  config.seed = seed;
  return config;
}

}  // namespace

Setup LlamaSetup() {
  Setup setup;
  setup.label = "Llama-3.1-70B-Instruct";
  setup.target_profile = Llama31_70B();
  setup.draft_profile = Llama32_1B();
  setup.tensor_parallel = 4;
  setup.gpu = A100_80G();
  setup.lm_config = DefaultLmConfig(/*seed=*/71);
  setup.draft_config = DraftConfig{.fidelity = 0.85, .noise_seed = 0x5eed0071};
  return setup;
}

Setup QwenSetup() {
  Setup setup;
  setup.label = "Qwen2.5-32B-Instruct";
  setup.target_profile = Qwen25_32B();
  setup.draft_profile = Qwen25_05B();
  setup.tensor_parallel = 2;
  setup.gpu = A100_80G();
  setup.lm_config = DefaultLmConfig(/*seed=*/32);
  setup.draft_config = DraftConfig{.fidelity = 0.82, .noise_seed = 0x5eed0032};
  return setup;
}

Setup LlamaH100Tp8Setup() {
  Setup setup = LlamaSetup();
  setup.label = "Llama-3.1-70B-H100-TP8";
  setup.tensor_parallel = 8;
  setup.gpu = H100_80G();
  setup.draft_profile = Llama31_8B();
  // The 8B draft tracks the 70B target far better than the 1B one.
  setup.draft_config = DraftConfig{.fidelity = 0.93, .noise_seed = 0x5eed0071};
  return setup;
}

Setup LlamaTp8Setup() {
  Setup setup = LlamaSetup();
  setup.label = "Llama-3.1-70B-A100-TP8";
  setup.tensor_parallel = 8;
  return setup;
}

Setup LlamaDraftOffloadSetup() {
  Setup setup = LlamaSetup();
  setup.label = "Llama-3.1-70B-draft-offload";
  setup.draft_profile = Llama31_8B();
  setup.draft_gpu = H100_80G();
  setup.draft_config = DraftConfig{.fidelity = 0.93, .noise_seed = 0x5eed0071};
  return setup;
}

Experiment::Experiment(const Setup& setup)
    : setup_(setup),
      target_(setup.lm_config),
      draft_(&target_, setup.draft_config),
      target_latency_(setup.target_profile, setup.gpu, setup.tensor_parallel),
      draft_latency_(setup.draft_profile, setup.draft_gpu.value_or(setup.gpu),
                     setup.draft_tensor_parallel) {}

std::vector<CategorySpec> Experiment::Categories(const CategoryConfig& config) const {
  return DefaultCategories(BaselineLatency(), config);
}

std::vector<Request> Experiment::RealTraceWorkload(double duration, double mean_rps,
                                                   const WorkloadConfig& mix, uint64_t trace_seed,
                                                   const CategoryConfig& cat) const {
  return Materialize(*RealTraceStream(duration, mean_rps, mix, trace_seed, cat));
}

std::unique_ptr<ArrivalStream> Experiment::RealTraceStream(double duration, double mean_rps,
                                                           const WorkloadConfig& mix,
                                                           uint64_t trace_seed,
                                                           const CategoryConfig& cat) const {
  TraceConfig trace;
  trace.duration = duration;
  trace.mean_rps = mean_rps;
  trace.seed = trace_seed;
  return std::make_unique<WorkloadStream>(Categories(cat), MakeRealShapedProcess(trace),
                                          ConstantMix(mix.mix), mix.seed);
}

EngineResult Experiment::Run(Scheduler& scheduler, WorkloadSource workload,
                             const EngineConfig& engine, int verify_budget,
                             int draft_budget) const {
  Engine e(&target_, &draft_, &target_latency_, &draft_latency_, engine);
  return e.Run(scheduler, std::move(workload), verify_budget, draft_budget);
}

}  // namespace adaserve
