// Correctness checks, run outside every timed phase. Each adds a named
// Check to the report; a failed check fails the run.
#pragma once

#include <cstdint>

#include "report.h"
#include "workloads.h"

namespace perfbench {

/// The tolerances the checks apply (stated in the report beside each).
inline constexpr double kF32DriftBound = 1e-4;  ///< docs/PERFORMANCE.md, depth 4
inline constexpr std::size_t kOracleRows = 4;
inline constexpr std::size_t kOracleSamples = 2000;
/// Oracle tolerances on the median and the 95th percentile over elements,
/// about 3x and 2.5x what 11 seeds showed (median |mean err| / sd ~0.03,
/// p95 <= 0.1; median |log var ratio| ~0.09, p95 <= 0.18).
inline constexpr double kOracleMeanTol = 0.1;      ///< median |mean err| / sd
inline constexpr double kOracleMeanTolP95 = 0.25;  ///< p95 |mean err| / sd
inline constexpr double kOracleLogVarTol = 0.2;    ///< median |log var ratio|
inline constexpr double kOracleLogVarTolP95 = 0.4;  ///< p95 |log var ratio|

/// responses_valid for every workload; moments_vs_mcdrop_oracle for
/// stream_b1; f32_drift_vs_f64 for offline_b64.
void run_checks(const WorkloadSpec& spec, const Prepared& prep,
                std::uint64_t seed, Report& rep);

}  // namespace perfbench
