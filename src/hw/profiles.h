// Model execution profiles (Table 1 of the paper).
//
// A profile captures what the roofline needs: weight bytes, FLOPs per token,
// and KV-cache bytes per cached token. Architecture parameters follow the
// published model cards (GQA head counts, layer counts).
#ifndef ADASERVE_SRC_HW_PROFILES_H_
#define ADASERVE_SRC_HW_PROFILES_H_

#include <cstdint>
#include <string>

namespace adaserve {

struct ModelProfile {
  std::string name;
  // Total parameter count.
  double params = 0.0;
  int num_layers = 0;
  int hidden_dim = 0;
  // Grouped-query attention: number of KV heads and per-head dim.
  int kv_heads = 0;
  int head_dim = 0;
  // Bytes per weight (2 for fp16/bf16).
  double bytes_per_param = 2.0;

  // Total bytes of weights.
  double WeightBytes() const { return params * bytes_per_param; }
  // Dense FLOPs for one token's forward pass (2 * params approximation).
  double FlopsPerToken() const { return 2.0 * params; }
  // KV-cache bytes stored per token of context (K and V, fp16).
  double KvBytesPerToken() const {
    return 2.0 * num_layers * kv_heads * head_dim * bytes_per_param;
  }
};

// Table 1 targets.
ModelProfile Llama31_70B();
ModelProfile Qwen25_32B();

// Draft models (smallest members of the same families).
ModelProfile Llama32_1B();
ModelProfile Qwen25_05B();

// Mid-size family member used as the *strong* draft by the cluster
// layer's heterogeneous replicas (H100 / TP=8 / draft-on-separate-GPU
// setups): a bigger draft tracks the target distribution more faithfully, and the
// draft-on-separate-GPU deployment shape is what makes its extra cost
// affordable.
ModelProfile Llama31_8B();

}  // namespace adaserve

#endif  // ADASERVE_SRC_HW_PROFILES_H_
