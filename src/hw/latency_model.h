// Profiling-style roofline latency model.
//
// This stands in for running real kernels on A100s. A forward pass is
// modelled as:
//
//   latency = max(weight_load_time, compute_time(batch_tokens))   (roofline)
//           + kv_read_time(sum of context lengths)                (attention)
//           + launch_overhead                                     (kernels)
//
// Weight load time is the memory-bound floor of auto-regressive decoding;
// compute time grows linearly with the number of tokens in the batch, so the
// model exhibits the memory-/compute-bound knee the paper's token-budget
// selection exploits. CUDA-graph capture is modelled as a discount on the
// launch overhead when iteration shapes repeat (§5.2).
#ifndef ADASERVE_SRC_HW_LATENCY_MODEL_H_
#define ADASERVE_SRC_HW_LATENCY_MODEL_H_

#include "src/common/types.h"
#include "src/hw/gpu.h"
#include "src/hw/profiles.h"

namespace adaserve {

// Calibration of the roofline. Fraction of peak memory bandwidth achieved
// by weight/KV streaming.
inline constexpr double kMemEfficiency = 0.70;
// Fraction of peak FLOPs achieved at serving batch sizes. Deliberately
// below large-GEMM MFU: decode/verification batches are short and tree
// attention is mask-irregular, so sustained FLOPs sit near 30% of peak.
inline constexpr double kComputeEfficiency = 0.30;
// Kernel launch overhead per layer without CUDA graphs, seconds.
inline constexpr double kLaunchOverheadPerLayer = 4e-6;
// Multiplier on launch overhead when a captured CUDA graph is replayed.
inline constexpr double kCudaGraphDiscount = 0.25;

class LatencyModel {
 public:
  LatencyModel(const ModelProfile& model, const GpuSpec& gpu, int tensor_parallel);

  const ModelProfile& model() const { return model_; }
  const GpuSpec& gpu() const { return gpu_; }
  int tensor_parallel() const { return tp_; }

  // Memory-bound floor: time to stream the weights once, seconds.
  SimTime WeightLoadTime() const;

  // Marginal compute time per batched token, seconds.
  SimTime ComputeTimePerToken() const;

  // Latency of one forward pass that processes `batch_tokens` tokens whose
  // attention reads `sum_context_tokens` cached tokens in total.
  // `use_cuda_graph` applies the launch-overhead discount.
  SimTime ForwardLatency(int batch_tokens, long sum_context_tokens, bool use_cuda_graph) const;

  // Latency of prefilling `prompt_tokens` in one pass (compute-bound path of
  // the same roofline; chunked prefill calls this per chunk).
  SimTime PrefillLatency(int prompt_tokens, long sum_context_tokens) const;

  // Per-token latency of an unloaded single-request decode. This is the
  // "baseline latency" Table 2's Cat-1 SLO is defined against.
  SimTime BaselineDecodeLatency() const;

  // Batch token count at which compute time equals the memory-bound floor —
  // the roofline knee.
  double RooflineKnee() const;

  // Bytes of device memory left for KV cache after weights, across the TP
  // group (model weights are sharded; KV is too).
  double KvCacheBytes() const;

 private:
  ModelProfile model_;
  GpuSpec gpu_;
  int tp_;
};

}  // namespace adaserve

#endif  // ADASERVE_SRC_HW_LATENCY_MODEL_H_
