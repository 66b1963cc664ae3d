// Machine probes measured by the benchmark itself.
#pragma once

#include <cstddef>

#include "tensor/kernels/kernel_dispatch.h"

namespace perfbench {

/// Single-core peak FMA rate (GFLOP/s, one FMA = 2 FLOPs) at the vector
/// width of `tier`: independent FMA chains in registers, best of several
/// trials. The scalar tier counts SSE2 multiply + add pairs.
double peak_fma_gflops_f32(apds::KernelBackend tier);
double peak_fma_gflops_f64(apds::KernelBackend tier);

}  // namespace perfbench
