#include "src/hw/gpu.h"

namespace adaserve {

GpuSpec A100_80G() {
  return GpuSpec{
      .name = "A100-80G",
      .mem_bw_bytes_per_s = 2039e9,
      .fp16_flops_per_s = 312e12,
      .mem_bytes = 80e9,
  };
}

GpuSpec H100_80G() {
  return GpuSpec{
      .name = "H100-80G",
      .mem_bw_bytes_per_s = 3350e9,
      .fp16_flops_per_s = 989e12,
      .mem_bytes = 80e9,
  };
}

}  // namespace adaserve
