#include "src/hw/latency_model.h"

#include <algorithm>

#include "src/common/logging.h"

namespace adaserve {

LatencyModel::LatencyModel(const ModelProfile& model, const GpuSpec& gpu, int tensor_parallel)
    : model_(model), gpu_(gpu), tp_(tensor_parallel) {
  ADASERVE_CHECK(tp_ >= 1) << "tensor parallel degree must be >= 1";
  ADASERVE_CHECK(model_.WeightBytes() / tp_ < gpu_.mem_bytes)
      << model_.name << " does not fit on " << gpu_.name << " with TP=" << tp_;
}

SimTime LatencyModel::WeightLoadTime() const {
  const double effective_bw = gpu_.mem_bw_bytes_per_s * kMemEfficiency * tp_;
  return model_.WeightBytes() / effective_bw;
}

SimTime LatencyModel::ComputeTimePerToken() const {
  const double effective_flops = gpu_.fp16_flops_per_s * kComputeEfficiency * tp_;
  return model_.FlopsPerToken() / effective_flops;
}

SimTime LatencyModel::ForwardLatency(int batch_tokens, long sum_context_tokens,
                                     bool use_cuda_graph) const {
  ADASERVE_CHECK(batch_tokens >= 0) << "negative batch";
  ADASERVE_CHECK(sum_context_tokens >= 0) << "negative context";
  if (batch_tokens == 0) {
    return 0.0;
  }
  const double effective_bw = gpu_.mem_bw_bytes_per_s * kMemEfficiency * tp_;
  const SimTime roofline = std::max(WeightLoadTime(), batch_tokens * ComputeTimePerToken());
  const SimTime kv_read =
      static_cast<double>(sum_context_tokens) * model_.KvBytesPerToken() / effective_bw;
  SimTime launch = kLaunchOverheadPerLayer * model_.num_layers;
  if (use_cuda_graph) {
    launch *= kCudaGraphDiscount;
  }
  return roofline + kv_read + launch;
}

SimTime LatencyModel::PrefillLatency(int prompt_tokens, long sum_context_tokens) const {
  // Prefill shares the roofline; for long prompts it sits on the compute
  // side. No CUDA-graph replay: prompt shapes are irregular.
  return ForwardLatency(prompt_tokens, sum_context_tokens, /*use_cuda_graph=*/false);
}

SimTime LatencyModel::BaselineDecodeLatency() const {
  // One request, one token, short context.
  return ForwardLatency(/*batch_tokens=*/1, /*sum_context_tokens=*/512, /*use_cuda_graph=*/true);
}

double LatencyModel::RooflineKnee() const { return WeightLoadTime() / ComputeTimePerToken(); }

double LatencyModel::KvCacheBytes() const {
  const double weights_per_gpu = model_.WeightBytes() / tp_;
  // Reserve 15% of device memory for activations/workspace, as serving
  // systems commonly do (vLLM's gpu_memory_utilization default).
  const double usable = gpu_.mem_bytes * 0.85 - weights_per_gpu;
  return std::max(usable, 0.0) * tp_;
}

}  // namespace adaserve
