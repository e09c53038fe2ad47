// GPU hardware specifications used by the roofline latency model.
#ifndef ADASERVE_SRC_HW_GPU_H_
#define ADASERVE_SRC_HW_GPU_H_

#include <string>

namespace adaserve {

// Static per-device specification. Numbers are vendor datasheet peaks; the
// latency model applies efficiency factors on top.
struct GpuSpec {
  std::string name;
  // HBM bandwidth per device, bytes/second.
  double mem_bw_bytes_per_s = 0.0;
  // Dense fp16/bf16 throughput per device, FLOP/second.
  double fp16_flops_per_s = 0.0;
  // Device memory, bytes.
  double mem_bytes = 0.0;
};

// NVIDIA A100-SXM 80GB: 2039 GB/s HBM2e, 312 TFLOPS fp16 tensor.
GpuSpec A100_80G();

// NVIDIA H100-SXM 80GB (for budget-sensitivity ablations): 3350 GB/s,
// 989 TFLOPS fp16 tensor.
GpuSpec H100_80G();

}  // namespace adaserve

#endif  // ADASERVE_SRC_HW_GPU_H_
