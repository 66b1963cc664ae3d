// The traced run: the per-layer breakdown of the serving paths, from
// spans the benchmark records around each call it makes into the program.
//
// Every traced run measures the same breakdown, whatever the workload:
//  - set-up of the stream_b1 path (BPEst-Tanh), which carries the PWL fits;
//  - the stream_b1 request chain, its session propagate on the same input,
//    and the f64 layer sweep (moment_linear_into + moment_activation_batch
//    per layer) on that input;
//  - the offline_b64 path (HHAR-ReLU, f32, 64 rows): session propagate, the
//    fused layer sweep (moment_linear_act_into) and the unfused f32 pair;
//  - MCDrop-50 on the stream_b1 model and rows;
//  - GEMM at each layer shape the workloads use.
// These probes are interleaved round by round so all of them see the same
// machine conditions. Afterwards the workload's own request chain runs
// alternately untraced and traced; the difference of the two medians is
// the tracing overhead.
#pragma once

#include <cstdint>
#include <string>

#include "report.h"
#include "workloads.h"

namespace perfbench {

/// Tolerance on core.layer_sum_ratio and core.f32_layer_sum_ratio: the
/// layer rows must add up to the session pass within this share. Observed
/// on a shared 4-vCPU host: 0.97-1.00 (f64), 0.91-1.09 (f32).
inline constexpr double kLayerSumTolerance = 0.2;

void run_breakdown(const WorkloadSpec& spec, const Prepared& prep,
                   const std::string& cache_dir, std::uint64_t seed,
                   double seconds, const std::string& spans_out, Report& rep);

}  // namespace perfbench
