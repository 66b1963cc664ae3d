// perfbench_serving: the serving benchmark's measuring binary.
//
//   perfbench_serving --workload <stream_b1|offline_b64|mcdrop50_b1>
//                     --seed <n> --seconds <s> --trace <0|1>
//                     --cache <dir> --out <report.json> [--spans <file>]
//                     [--corrupt-response <i>]
//
// --trace 0 measures the end-to-end metrics: set-up time (median of
// several set-ups), then a closed loop of one caller for --seconds, then
// quality and correctness checks outside the timed phase. --trace 1
// measures the per-layer breakdown (see breakdown.h) and writes its spans.
// --corrupt-response makes the benchmark overwrite one response with a NaN
// before validation, so its own tests can check that a bad response is
// counted, not fatal. perfbench/run.py builds this binary and prints the
// report.
#include <algorithm>
#include <cmath>
#include <iostream>
#include <string>
#include <thread>

#include "breakdown.h"
#include "checks.h"
#include "metrics/classification_metrics.h"
#include "metrics/regression_metrics.h"
#include "obs/perf_counters.h"
#include "platform/thread_pool.h"
#include "report.h"
#include "tensor/kernels/kernel_dispatch.h"
#include "uncertainty/mcdrop.h"
#include "workloads.h"

namespace perfbench {
namespace {

using apds::Matrix;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string cache_dir;
  std::string out;
  std::string spans_out;
  long corrupt = -1;
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string v = argv[++i];
    if (flag == "--workload") a.workload = v;
    else if (flag == "--seed") { a.seed = std::stoull(v); have_seed = true; }
    else if (flag == "--seconds") a.seconds = std::stod(v);
    else if (flag == "--trace") a.trace = std::stoi(v) != 0;
    else if (flag == "--cache") a.cache_dir = v;
    else if (flag == "--out") a.out = v;
    else if (flag == "--spans") a.spans_out = v;
    else if (flag == "--corrupt-response") a.corrupt = std::stol(v);
    else throw std::invalid_argument("unknown flag " + flag);
  }
  if (a.workload.empty() || !have_seed || a.cache_dir.empty() || a.out.empty())
    throw std::invalid_argument(
        "usage: perfbench_serving --workload W --seed N --seconds S "
        "--trace 0|1 --cache DIR --out FILE [--spans FILE]");
  if (!(a.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  return a;
}

void write_header(Report& rep, const Args& a, const WorkloadSpec& spec,
                  const Prepared& prep) {
  rep.header("workload", spec.name);
  rep.header("seed", static_cast<double>(a.seed));
  rep.header("trace", a.trace ? 1.0 : 0.0);
  rep.header("seconds", a.seconds);
  rep.header("kernel_tier",
             apds::kernel_backend_name(apds::global_kernel_backend()));
  rep.header("precision", apds::precision_name(serving_precision(spec)));
  rep.header("pool_width", static_cast<double>(apds::global_threads()));
  rep.header("nproc", static_cast<double>(std::thread::hardware_concurrency()));
  rep.header("perf_counters",
             apds::obs::perf_availability_name(apds::obs::perf_availability()));
  rep.header("batch", static_cast<double>(spec.batch));
  std::string dims;
  for (std::size_t d : prep.dims) {
    if (!dims.empty()) dims += '-';
    dims += std::to_string(d);
  }
  rep.header("model", apds::task_name(spec.task) + " " +
                          apds::activation_name(spec.act) + " " + dims);
  rep.header("heldout_rows", static_cast<double>(prep.rows.rows()));
}

struct LoopResult {
  std::vector<double> latency_ms;
  std::size_t rows = 0;  ///< rows of valid responses
  double elapsed_s = 0.0;
  /// Rows completed in each whole second of the phase, each valid
  /// request's rows spread evenly over its own duration.
  std::vector<double> rows_per_window;
};

/// Closed loop, one caller: requests back to back for `seconds`. Requests
/// are counted in `rep` (attempted, failed); `corrupt` is the index of the
/// response to overwrite with a NaN (-1: none).
LoopResult closed_loop(const WorkloadSpec& spec, Server& server,
                       const Prepared& prep, double seconds, long corrupt,
                       Report& rep) {
  LoopResult res;
  const double t_begin = now_us();
  const double deadline = t_begin + seconds * 1e6;
  res.rows_per_window.assign(static_cast<std::size_t>(seconds), 0.0);
  std::size_t i = 0;
  for (double t = t_begin; t < deadline; ++i) {
    const Matrix& payload = prep.payloads[i % prep.payloads.size()];
    const double t0 = now_us();
    bool ok = true;
    Response r;
    try {
      r = serve(spec, server, payload, nullptr);
    } catch (const std::exception& e) {
      ok = false;
      std::cerr << "request " << i << " threw: " << e.what() << "\n";
    }
    t = now_us();
    res.latency_ms.push_back((t - t0) * 1e-3);
    if (ok && static_cast<long>(i) == corrupt) {
      if (spec.chain == Chain::kApdClassification) r.probs(0, 0) = NAN;
      else r.mean(0, 0) = NAN;
    }
    ok = ok && response_valid(spec, r);
    rep.count_request(!ok);
    if (!ok) continue;
    res.rows += spec.batch;
    const double rate = static_cast<double>(spec.batch) / (t - t0);
    for (std::size_t w = 0; w < res.rows_per_window.size(); ++w) {
      const double lo = std::max(t0, t_begin + 1e6 * static_cast<double>(w));
      const double hi = std::min(t, t_begin + 1e6 * static_cast<double>(w + 1));
      if (hi > lo) res.rows_per_window[w] += rate * (hi - lo);
    }
  }
  res.elapsed_s = (now_us() - t_begin) * 1e-6;
  return res;
}

/// Quality over every held-out row, outside the timed phase, through the
/// same serving objects.
void quality(const WorkloadSpec& spec, Server& server, const Prepared& prep,
             std::uint64_t seed, Report& rep) {
  const Matrix x = server.x_scaler.transform(prep.rows);
  if (spec.chain == Chain::kApdClassification) {
    apds::PredictiveCategorical all;
    all.probs = Matrix(x.rows(), prep.dims.back());
    for (std::size_t r0 = 0; r0 < x.rows(); r0 += spec.batch) {
      const std::size_t n = std::min(spec.batch, x.rows() - r0);
      Matrix xb(n, x.cols());
      for (std::size_t r = 0; r < n; ++r)
        std::copy(x.row(r0 + r).begin(), x.row(r0 + r).end(),
                  xb.row(r).begin());
      const Matrix p = server.estimator->predict_classification(xb).probs;
      for (std::size_t r = 0; r < n; ++r)
        std::copy(p.row(r).begin(), p.row(r).end(), all.probs.row(r0 + r).begin());
    }
    const auto m = apds::evaluate_classification(all, prep.labels);
    rep.metric("nll", m.nll, "nats",
               "categorical NLL over " + std::to_string(x.rows()) + " held-out rows");
    rep.info("accuracy", m.acc, "fraction");
    return;
  }
  apds::PredictiveGaussian pred;
  if (spec.chain == Chain::kApdRegression) {
    pred = server.estimator->predict_regression(x);
  } else {
    // MCDrop over all held-out rows is ~40 GFLOP; it runs on the wider
    // preparation pool (samples are thread-count invariant).
    apds::set_global_threads(prep_threads());
    apds::Rng rng(seed ^ 0x9a11ULL);
    const auto samples = apds::mcdrop_collect(server.mlp, x, kMcdropSamples, rng);
    pred = apds::mcdrop_regression_from_samples(samples, kMcdropSamples);
    apds::set_global_threads(1);
  }
  pred.mean = server.y_scaler.inverse_transform(pred.mean);
  pred.var = server.y_scaler.inverse_transform_variance(pred.var);
  const auto m = apds::evaluate_regression(pred, prep.targets);
  rep.metric("nll", m.nll, "nats",
             "Gaussian NLL in natural units over " + std::to_string(x.rows()) +
                 " held-out rows");
  rep.info("mae", m.mae, "natural units");
}

int run(const Args& a) {
  const WorkloadSpec& spec = workload_spec(a.workload);
  apply_precision(spec);
  const Prepared prep = prepare(spec, a.cache_dir, a.seed);
  apds::set_global_threads(1);

  Report rep;
  write_header(rep, a, spec, prep);

  if (a.trace) {
    run_breakdown(spec, prep, a.cache_dir, a.seed, a.seconds, a.spans_out, rep);
  } else {
    // Set-up, several times; the last server serves the timed phase.
    std::vector<double> setup_s;
    std::unique_ptr<Server> server;
    for (int k = 0; k < kSetupRepeats; ++k) {
      server.reset();
      const double t0 = now_us();
      server = set_up(spec, prep, a.seed, nullptr);
      setup_s.push_back((now_us() - t0) * 1e-6);
    }
    // A short untimed warm-up lets lazy state settle before timing.
    closed_loop(spec, *server, prep, std::min(0.5, 0.05 * a.seconds), -1, rep);
    const LoopResult loop =
        closed_loop(spec, *server, prep, a.seconds, a.corrupt, rep);
    const int tail = tail_percentile(loop.latency_ms.size());
    rep.metric("latency_p50_ms", median(loop.latency_ms), "ms",
               std::to_string(loop.latency_ms.size()) + " requests");
    // Printed, not gated: on a shared host its run-to-run spread exceeds
    // the largest bound a metric may carry (see perfbench/README.md).
    rep.info("latency_p99_ms", quantile(loop.latency_ms, tail / 100.0), "ms",
             "p" + std::to_string(tail) + " of " +
                 std::to_string(loop.latency_ms.size()) +
                 " requests (highest percentile with >= 10 beyond it)");
    // The median one-second window: a stall of the shared host moves one
    // or two windows, where it would move rows / elapsed for the whole run.
    const double overall = static_cast<double>(loop.rows) / loop.elapsed_s;
    rep.metric("throughput_rows_per_s",
               loop.rows_per_window.empty() ? overall
                                            : median(loop.rows_per_window),
               "1/s",
               "median over " + std::to_string(loop.rows_per_window.size()) +
                   " one-second windows of rows completed");
    rep.info("throughput_overall_rows_per_s", overall, "1/s",
             std::to_string(loop.rows) + " rows in " +
                 std::to_string(loop.elapsed_s) + " s");
    rep.metric("setup_s", median(setup_s), "s",
               "median of " + std::to_string(setup_s.size()) + " set-ups");
    if (server->session)
      rep.info("session_bytes",
               static_cast<double>(server->session->memory_bytes()), "B",
               "InferenceSession::memory_bytes() after the timed phase");
    quality(spec, *server, prep, a.seed, rep);
    rep.info("failed_frac",
             static_cast<double>(rep.failed()) /
                 static_cast<double>(std::max<std::uint64_t>(1, rep.attempted())),
             "fraction", "requests failed / attempted (warm-up included)");
  }
  run_checks(spec, prep, a.seed, rep);
  rep.write_json(a.out);
  return rep.all_checks_ok() && rep.failed() == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "perfbench_serving: " << e.what() << "\n";
    return 2;
  }
}
