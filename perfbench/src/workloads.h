// The three serving workloads: model preparation (outside every timed
// phase), set-up, one request through each serving chain, and response
// validation.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/precision.h"
#include "common/rng.h"
#include "core/inference_session.h"
#include "data/scaler.h"
#include "eval/task.h"
#include "nn/mlp.h"
#include "uncertainty/apd_estimator.h"

#include "spans.h"

namespace perfbench {

enum class Chain {
  kApdRegression,      ///< stream_b1
  kApdClassification,  ///< offline_b64
  kMcdropRegression,   ///< mcdrop50_b1
};

struct WorkloadSpec {
  std::string name;
  apds::TaskId task;
  apds::Activation act;
  std::size_t batch;
  Chain chain;
  bool pin_f32;  ///< pin the process precision to f32 (else the default)
};

/// Looks up stream_b1 / offline_b64 / mcdrop50_b1; throws on other names.
const WorkloadSpec& workload_spec(const std::string& name);

inline constexpr std::size_t kMcdropSamples = 50;

/// A trained model and its held-out rows, prepared outside every timed
/// phase. The rows are in natural units: what a client sends.
struct Prepared {
  std::string model_path;
  std::string scaler_path;
  std::vector<std::size_t> dims;  ///< layer widths, input first
  apds::Matrix rows;              ///< held-out inputs, natural units
  apds::Matrix targets;           ///< regression targets, natural units
  std::vector<std::size_t> labels;  ///< classification labels
  /// Request payloads: `batch` held-out rows each, drawn in seeded order.
  std::vector<apds::Matrix> payloads;
};

/// Pool width for untimed preparation work (training, large MCDrop
/// batches): min(4, nproc). Every timed phase runs at width 1.
std::size_t prep_threads();

/// Set-ups per untraced run; setup_s is their median.
inline constexpr int kSetupRepeats = 5;

/// Train (or load from the benchmark's cache under `cache_dir`) the
/// workload's model for `seed`, save the model and scaler files the set-up
/// path loads, and draw the request payloads.
Prepared prepare(const WorkloadSpec& spec, const std::string& cache_dir,
                 std::uint64_t seed);

/// What a serving process holds after set-up. Not movable: the estimator
/// keeps a pointer to `mlp`.
struct Server {
  apds::Mlp mlp;
  apds::StandardScaler x_scaler;
  apds::StandardScaler y_scaler;
  std::unique_ptr<apds::ApdEstimator> estimator;  ///< null for MCDrop
  std::shared_ptr<apds::InferenceSession> session;
  apds::Rng mc_rng;

  Server() = default;
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;
};

/// The response of one request, in natural units.
struct Response {
  apds::Matrix mean;   ///< regression
  apds::Matrix var;    ///< regression
  apds::Matrix probs;  ///< classification
};

/// load_model + scaler load + estimator and session construction + the
/// first request (which plans the session arena). Spans go to `log` when
/// it is non-null.
std::unique_ptr<Server> set_up(const WorkloadSpec& spec, const Prepared& prep,
                               std::uint64_t seed, SpanLog* log);

/// One request through the workload's serving chain, wrapped in an
/// obs::RequestScope. Throws whatever the program throws.
Response serve(const WorkloadSpec& spec, Server& server,
               const apds::Matrix& raw, SpanLog* log);

/// True when every value is finite, every variance >= 0 and every
/// probability row is non-negative and sums to 1.
bool response_valid(const WorkloadSpec& spec, const Response& r);

/// The precision the workload serves at.
apds::Precision serving_precision(const WorkloadSpec& spec);

/// Pins (or restores) the process precision for the workload.
void apply_precision(const WorkloadSpec& spec);

}  // namespace perfbench
