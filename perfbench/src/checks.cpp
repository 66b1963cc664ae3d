#include "checks.h"

#include <cmath>
#include <sstream>

#include "platform/thread_pool.h"
#include "uncertainty/mcdrop.h"

namespace perfbench {

namespace {

using apds::Matrix;

/// Largest |a - b| / (|a| + 1) (absolute near zero, relative for large
/// magnitudes), the measure the f32 drift bounds are stated in.
double max_scaled_diff(const Matrix& a, const Matrix& b) {
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i)
    worst = std::max(worst, std::fabs(a.flat()[i] - b.flat()[i]) /
                                (std::fabs(a.flat()[i]) + 1.0));
  return worst;
}

// ApDeepSense's moments against a large-k MCDrop estimate of the same
// predictive, in the network's output space. The method is an
// approximation (PWL surrogate, independent Gaussian units), so the
// tolerances are on the median and the 95th percentile over elements of
// the mean error in MC standard deviations and of |log variance ratio|.
void check_oracle(const WorkloadSpec& spec, const Prepared& prep,
                  std::uint64_t seed, Report& rep) {
  const auto server = set_up(spec, prep, seed, nullptr);
  Matrix raw(kOracleRows, prep.rows.cols());
  for (std::size_t r = 0; r < kOracleRows; ++r)
    std::copy(prep.payloads[r].row(0).begin(), prep.payloads[r].row(0).end(),
              raw.row(r).begin());
  const Matrix x = server->x_scaler.transform(raw);
  const apds::MeanVar apd = server->session->propagate(x);

  apds::set_global_threads(prep_threads());
  apds::Rng rng(seed ^ 0x0a4c1eULL);
  const std::vector<Matrix> samples =
      apds::mcdrop_collect(server->mlp, x, kOracleSamples, rng);
  apds::set_global_threads(1);

  std::vector<double> z, log_ratio;
  for (std::size_t i = 0; i < x.rows() * apd.dim(); ++i) {
    double sum = 0.0;
    for (const Matrix& s : samples) sum += s.flat()[i];
    const double mean = sum / static_cast<double>(samples.size());
    double ss = 0.0;
    for (const Matrix& s : samples) ss += (s.flat()[i] - mean) * (s.flat()[i] - mean);
    const double var = ss / static_cast<double>(samples.size() - 1);
    z.push_back(std::fabs(apd.mean.flat()[i] - mean) / std::sqrt(var));
    log_ratio.push_back(std::fabs(std::log(apd.var.flat()[i] / var)));
  }
  const double z50 = median(z), z95 = quantile(z, 0.95);
  const double lr50 = median(log_ratio), lr95 = quantile(log_ratio, 0.95);
  std::ostringstream d;
  d << kOracleRows << " rows x " << apd.dim() << " outputs vs MCDrop-"
    << kOracleSamples << ": |mean err|/sd median " << z50 << " (<= "
    << kOracleMeanTol << "), p95 " << z95 << " (<= " << kOracleMeanTolP95
    << "); |log var ratio| median " << lr50 << " (<= " << kOracleLogVarTol
    << "), p95 " << lr95 << " (<= " << kOracleLogVarTolP95 << ")";
  rep.check("moments_vs_mcdrop_oracle",
            z50 <= kOracleMeanTol && z95 <= kOracleMeanTolP95 &&
                lr50 <= kOracleLogVarTol && lr95 <= kOracleLogVarTolP95,
            d.str());
}

// The f32 session against the f64 session on the same model and rows.
void check_f32_drift(const WorkloadSpec& spec, const Prepared& prep,
                     std::uint64_t seed, Report& rep) {
  const auto server = set_up(spec, prep, seed, nullptr);
  const Matrix x = server->x_scaler.transform(prep.payloads.front());
  const apds::MeanVar f64 =
      server->estimator->session(apds::Precision::kF64)->propagate(x);
  const apds::MeanVar f32 =
      server->estimator->session(apds::Precision::kF32)->propagate(x);
  const double dm = max_scaled_diff(f64.mean, f32.mean);
  const double dv = max_scaled_diff(f64.var, f32.var);
  std::ostringstream d;
  d << x.rows() << " rows: max |f64 - f32| / (|f64| + 1) mean " << dm
    << ", variance " << dv << "; bound " << kF32DriftBound;
  rep.check("f32_drift_vs_f64", dm <= kF32DriftBound && dv <= kF32DriftBound,
            d.str());
}

}  // namespace

void run_checks(const WorkloadSpec& spec, const Prepared& prep,
                std::uint64_t seed, Report& rep) {
  rep.check("responses_valid", rep.failed() == 0,
            std::to_string(rep.failed()) + " of " +
                std::to_string(rep.attempted()) +
                " responses non-finite, with negative variance or "
                "probabilities off a sum of 1");
  if (spec.chain == Chain::kApdRegression) check_oracle(spec, prep, seed, rep);
  if (spec.chain == Chain::kApdClassification)
    check_f32_drift(spec, prep, seed, rep);
}

}  // namespace perfbench
