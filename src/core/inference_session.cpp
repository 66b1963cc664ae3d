#include "core/inference_session.h"

#include <algorithm>
#include <string>

#include "core/moment_activation.h"
#include "core/moment_contract.h"
#include "core/moment_linear.h"
#include "nn/activation.h"
#include "obs/flight_recorder.h"
#include "obs/perf_counters.h"
#include "obs/trace.h"
#include "tensor/ops.h"

namespace apds {

namespace {

std::size_t matrix_bytes(std::size_t elems, std::size_t elem_size) {
  return elems * elem_size;
}

}  // namespace

InferenceSession::InferenceSession(const Mlp& mlp, SessionConfig config)
    : config_(config), id_(new_arena_owner_id()) {
  APDS_CHECK(config_.saturating_pieces >= 3);
  surrogates_ = PiecewiseLinear::for_activations(mlp.activations(),
                                                 config_.saturating_pieces);
  build(mlp);
}

InferenceSession::InferenceSession(const Mlp& mlp,
                                   std::vector<PiecewiseLinear> surrogates,
                                   SessionConfig config)
    : config_(config),
      id_(new_arena_owner_id()),
      surrogates_(std::move(surrogates)) {
  APDS_CHECK_MSG(surrogates_.size() == mlp.num_layers(),
                 "InferenceSession: one surrogate per layer required");
  build(mlp);
}

void InferenceSession::build(const Mlp& mlp) {
  const std::size_t layers = mlp.num_layers();
  APDS_CHECK_MSG(layers > 0, "InferenceSession: empty network");

  dims_.reserve(layers + 1);
  keep_probs_.reserve(layers);
  act_names_.reserve(layers);
  dims_.push_back(mlp.layer(0).in_dim());
  for (std::size_t l = 0; l < layers; ++l) {
    const DenseLayer& layer = mlp.layer(l);
    dims_.push_back(layer.out_dim());
    keep_probs_.push_back(layer.keep_prob);
    act_names_.push_back(activation_name(layer.act));
  }

  // W∘W is squared in f64 and then narrowed: one rounding, not two. The
  // f32 packs go straight into the column panels the tile kernel reads, so
  // no row-major f32 copy is kept.
  switch (config_.precision) {
    case Precision::kF32:
      panels32_.reserve(layers);
      for (std::size_t l = 0; l < layers; ++l)
        panels32_.push_back(pack_dense_layer(mlp.layer(l)));
      break;
    case Precision::kF64:
      w64_.reserve(layers);
      wsq64_.reserve(layers);
      b64_.reserve(layers);
      for (std::size_t l = 0; l < layers; ++l) {
        const DenseLayer& layer = mlp.layer(l);
        w64_.push_back(layer.weight);
        wsq64_.push_back(square(layer.weight));
        b64_.push_back(layer.bias);
      }
      break;
  }

  // pack_pwl hoisted to load time: the fused drivers take the prebuilt
  // view, so per-call packing (three vector allocations) disappears.
  if (config_.precision != Precision::kF64) {
    pwl_packs_.reserve(layers);
    for (const PiecewiseLinear& f : surrogates_) pwl_packs_.push_back(pack_pwl(f));
  }

  weight_bytes_ = 0;
  for (const Matrix& m : w64_) weight_bytes_ += matrix_bytes(m.size(), 8);
  for (const Matrix& m : wsq64_) weight_bytes_ += matrix_bytes(m.size(), 8);
  for (const Matrix& m : b64_) weight_bytes_ += matrix_bytes(m.size(), 8);
  for (const PackedDenseLayer& p : panels32_) weight_bytes_ += p.bytes();

  // Eagerly plan + back the arena for this thread when the caller declared
  // a batch capacity up front; first propagate is then already steady.
  if (config_.max_batch > 0) (void)thread_arena(config_.max_batch);
}

InferenceSession::ArenaPlan InferenceSession::plan_for(
    std::size_t batch) const {
  ArenaPlan plan;
  plan.batch = batch;
  const std::size_t L = num_layers();
  const bool f64 = config_.precision == Precision::kF64;
  const std::size_t esz = f64 ? sizeof(double) : sizeof(float);

  // Intermediate layer batches h_i ping-pong between two parity slots, so
  // each slot only needs the widest dim of its parity class. The f64 path
  // reads the input and writes the final output in caller memory (same
  // scalar type), so only h_1..h_{L-1} live in the arena; the f32 path
  // also keeps the narrowed input h_0 and the pre-widening output h_L here.
  std::size_t slot_dim[2] = {0, 0};
  const std::size_t lo = f64 ? 1 : 0;
  const std::size_t hi = f64 ? (L == 0 ? 0 : L - 1) : L;
  for (std::size_t i = lo; i <= hi && L > 0; ++i)
    slot_dim[i % 2] = std::max(slot_dim[i % 2], dims_[i]);

  // The prepped GEMM inputs (scaled mean / variance input) are rebuilt per
  // layer from the live h, so one batch x max_in_dim pair serves them all.
  std::size_t max_in = 0;
  for (std::size_t l = 0; l < L; ++l) max_in = std::max(max_in, dims_[l]);

  ArenaPlanner p;
  plan.slot_mean[0] = p.reserve(batch * slot_dim[0] * esz);
  plan.slot_var[0] = p.reserve(batch * slot_dim[0] * esz);
  plan.slot_mean[1] = p.reserve(batch * slot_dim[1] * esz);
  plan.slot_var[1] = p.reserve(batch * slot_dim[1] * esz);
  plan.sm = p.reserve(batch * max_in * esz);
  plan.vi = p.reserve(batch * max_in * esz);
  plan.bytes = p.planned_bytes();
  return plan;
}

std::size_t InferenceSession::planned_bytes(std::size_t batch) const {
  return plan_for(std::max<std::size_t>(batch, 1)).bytes;
}

std::size_t InferenceSession::arena_bytes() const {
  MutexLock lk(&arenas_mu_);
  std::size_t total = 0;
  for (const auto& ta : arenas_) total += ta->arena.capacity();
  return total;
}

InferenceSession::ThreadArena& InferenceSession::thread_arena(
    std::size_t batch) const {
  auto* ta = static_cast<ThreadArena*>(thread_arena_lookup(id_));
  if (ta && ta->plan.batch >= batch) return *ta;

  // Slow path: first use on this thread, or a batch above the planned
  // capacity. One plan + one allocation, then the thread is steady again.
  const std::size_t plan_batch = std::max(batch, config_.max_batch);
  MutexLock lk(&arenas_mu_);
  if (!ta) {
    arenas_.push_back(std::make_unique<ThreadArena>());
    ta = arenas_.back().get();
  }
  ta->plan = plan_for(plan_batch);
  ta->arena.allocate(ta->plan.bytes);
  thread_arena_bind(id_, ta);
  return *ta;
}

void InferenceSession::propagate(const MeanVar& input, MeanVar& out,
                                 std::vector<MeanVar>* layer_outputs) const {
  APDS_CHECK_MSG(input.dim() == input_dim(),
                 "InferenceSession: input dim " << input.dim()
                                                << " != " << input_dim());
  APDS_CHECK_MSG(input.var.rows() == input.mean.rows() &&
                     input.var.cols() == input.mean.cols(),
                 "InferenceSession: mean/var shape mismatch");
  APDS_CHECK_MSG(&input != &out, "InferenceSession: output aliases input");
  const std::size_t batch = input.batch();
  APDS_CHECK_MSG(batch > 0, "InferenceSession: empty batch");
  APDS_CHECK_MSG(layer_outputs == nullptr ||
                     config_.precision == Precision::kF64,
                 "InferenceSession: layer recording needs an f64 session, "
                 "not " << precision_name(config_.precision));

  TraceSpan span("session.propagate");
  if (span.active())
    span.set_args("\"session\":" + std::to_string(id_) + ",\"precision\":\"" +
                  precision_name(config_.precision) +
                  "\",\"batch\":" + std::to_string(batch));
  // One relaxed load when profiling is off; under --profile this pass's
  // counters attribute to the dispatched kernel backend.
  obs::PerfCounterRegion perf_region;
  if (obs::RequestScope* scope = obs::RequestScope::current())
    scope->set_session(id_);

  ThreadArena& ta = thread_arena(batch);
  // Caller-owned output: Matrix::resize retains capacity, so a reused `out`
  // allocates nothing once warm (the contract test_inference_session
  // measures). apds-lint: allow(hot-path-alloc)
  out.mean.resize(batch, output_dim());
  // apds-lint: allow(hot-path-alloc) — same capacity-retention contract.
  out.var.resize(batch, output_dim());

  switch (config_.precision) {
    case Precision::kF32:
      propagate_f32(input, out, ta);
      break;
    case Precision::kF64:
      propagate_f64(input, out, ta, layer_outputs);
      break;
  }
  propagate_count_.fetch_add(1, std::memory_order_relaxed);
}

MeanVar InferenceSession::propagate(const MeanVar& input) const {
  MeanVar out;
  propagate(input, out);
  return out;
}

MeanVar InferenceSession::propagate(const Matrix& x) const {
  return propagate(MeanVar::point(x));
}

void InferenceSession::propagate_f64(
    const MeanVar& input, MeanVar& out, ThreadArena& ta,
    std::vector<MeanVar>* layer_outputs) const {
  const std::size_t batch = input.batch();
  const std::size_t L = num_layers();
  double* sm = ta.arena.at<double>(ta.plan.sm);
  double* vi = ta.arena.at<double>(ta.plan.vi);
  const double* cm = input.mean.data();
  const double* cv = input.var.data();
  APDS_MOMENT_CONTRACT_BUF(cm, cv, batch * dims_[0], dims_[0],
                           "session.propagate input");
  // Recording is a validation surface, not serving, so its copies may
  // allocate. apds-lint: allow(hot-path-alloc)
  if (layer_outputs) layer_outputs->resize(L);
  for (std::size_t l = 0; l < L; ++l) {
    double* om;
    double* ov;
    if (l + 1 == L) {
      om = out.mean.data();
      ov = out.var.data();
    } else {
      om = ta.arena.at<double>(ta.plan.slot_mean[(l + 1) % 2]);
      ov = ta.arena.at<double>(ta.plan.slot_var[(l + 1) % 2]);
    }
    obs::FlightLayerTimer layer_timer;
    TraceSpan span("apd.layer");
    if (span.active())
      span.set_args("\"layer\":" + std::to_string(l) +
                    ",\"in\":" + std::to_string(dims_[l]) +
                    ",\"out\":" + std::to_string(dims_[l + 1]) +
                    ",\"act\":\"" + act_names_[l] + "\"");
    moment_linear_into(cm, cv, batch, dims_[l], w64_[l].data(),
                       wsq64_[l].data(), b64_[l].data(), dims_[l + 1],
                       keep_probs_[l], sm, vi, om, ov);
    {
      APDS_TRACE_SCOPE("core.moment_activation");
      moment_activation_batch(surrogates_[l], om, ov, batch * dims_[l + 1]);
    }
    APDS_MOMENT_CONTRACT_BUF(om, ov, batch * dims_[l + 1], dims_[l + 1],
                             "session.propagate layer output");
    if (layer_outputs) {
      MeanVar& rec = (*layer_outputs)[l];
      // apds-lint: allow(hot-path-alloc) — recording copy, as above.
      rec.mean.resize(batch, dims_[l + 1]);
      // apds-lint: allow(hot-path-alloc) — recording copy, as above.
      rec.var.resize(batch, dims_[l + 1]);
      std::copy(om, om + batch * dims_[l + 1], rec.mean.data());
      std::copy(ov, ov + batch * dims_[l + 1], rec.var.data());
    }
    cm = om;
    cv = ov;
  }
}

void InferenceSession::propagate_f32(const MeanVar& input, MeanVar& out,
                                     ThreadArena& ta) const {
  const std::size_t batch = input.batch();
  const std::size_t L = num_layers();
  FusedScratchView scratch;
  scratch.sm = ta.arena.at<float>(ta.plan.sm);
  scratch.vi = ta.arena.at<float>(ta.plan.vi);

  // Narrow once at entry (the same elementwise cast as to_f32), run the
  // whole layer stack in f32, widen once at exit.
  float* cm = ta.arena.at<float>(ta.plan.slot_mean[0]);
  float* cv = ta.arena.at<float>(ta.plan.slot_var[0]);
  {
    const double* im = input.mean.data();
    const double* iv = input.var.data();
    const std::size_t n = batch * dims_[0];
    for (std::size_t i = 0; i < n; ++i) cm[i] = static_cast<float>(im[i]);
    for (std::size_t i = 0; i < n; ++i) cv[i] = static_cast<float>(iv[i]);
  }
  APDS_MOMENT_CONTRACT_BUF(cm, cv, batch * dims_[0], dims_[0],
                           "session.propagate_f32 input");
  for (std::size_t l = 0; l < L; ++l) {
    float* om = ta.arena.at<float>(ta.plan.slot_mean[(l + 1) % 2]);
    float* ov = ta.arena.at<float>(ta.plan.slot_var[(l + 1) % 2]);
    obs::FlightLayerTimer layer_timer;
    TraceSpan span("apd.layer");
    if (span.active())
      span.set_args("\"layer\":" + std::to_string(l) +
                    ",\"in\":" + std::to_string(dims_[l]) +
                    ",\"out\":" + std::to_string(dims_[l + 1]) +
                    ",\"act\":\"" + act_names_[l] + "\"");
    moment_linear_act_into(cm, cv, batch, dims_[l], panels32_[l],
                           keep_probs_[l], surrogates_[l],
                           pwl_packs_[l].view(), scratch, om, ov);
    APDS_MOMENT_CONTRACT_BUF(om, ov, batch * dims_[l + 1], dims_[l + 1],
                             "session.propagate_f32 layer output");
    cm = om;
    cv = ov;
  }
  double* outm = out.mean.data();
  double* outv = out.var.data();
  const std::size_t n = batch * dims_[L];
  for (std::size_t i = 0; i < n; ++i) outm[i] = static_cast<double>(cm[i]);
  for (std::size_t i = 0; i < n; ++i) outv[i] = static_cast<double>(cv[i]);
}

}  // namespace apds
