#include "breakdown.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <new>
#include <set>
#include <sstream>
#include <stdexcept>

#include "core/moment_activation.h"
#include "core/moment_fused.h"
#include "core/moment_linear.h"
#include "core/piecewise_linear.h"
#include "platform/cost_model.h"
#include "platform/thread_pool.h"
#include "probes.h"
#include "spans.h"
#include "tensor/gemm.h"
#include "tensor/ops.h"
#include "uncertainty/mcdrop.h"

namespace perfbench {

namespace {

using apds::Matrix;
using apds::MatrixF;
using apds::MeanVar;

constexpr int kSetupTraces = 3;
constexpr std::size_t kMinCycles = 3;
// Blocks of back-to-back calls: kWarm untraced, then kTraced traced.
constexpr std::size_t kWarm = 4;
constexpr std::size_t kTraced = 4;
constexpr std::size_t kSaturatingPieces = 7;  // the session's default
constexpr double kProbeShare = 0.6;  // of --seconds; the rest is the
                                     // traced/untraced comparison

/// Span names outlive the log (spans hold const char*).
const char* intern(const std::string& s) {
  static std::set<std::string> pool;
  return pool.insert(s).first->c_str();
}

const char* layer_span(std::size_t l, const char* part) {
  return intern("core.l" + std::to_string(l + 1) + "." + part);
}

/// Weights and surrogates for the layer sweeps, packed the way
/// InferenceSession packs them (W∘W squared in f64, then narrowed).
struct LayerPacks {
  std::vector<std::size_t> dims;
  std::vector<double> keep;
  std::vector<apds::PiecewiseLinear> f;
  std::vector<apds::PwlPack> pwl;
  std::vector<Matrix> w, wsq, b;
  std::vector<MatrixF> w32, wsq32, b32;
  std::size_t max_dim = 0;
};

LayerPacks pack_layers(const apds::Mlp& mlp) {
  LayerPacks p;
  p.dims.push_back(mlp.input_dim());
  for (std::size_t l = 0; l < mlp.num_layers(); ++l) {
    const apds::DenseLayer& layer = mlp.layer(l);
    p.dims.push_back(layer.out_dim());
    p.keep.push_back(layer.keep_prob);
    p.f.push_back(
        apds::PiecewiseLinear::for_activation(layer.act, kSaturatingPieces));
    p.pwl.push_back(apds::pack_pwl(p.f.back()));
    p.w.push_back(layer.weight);
    p.wsq.push_back(apds::square(layer.weight));
    p.b.push_back(layer.bias);
    p.w32.push_back(apds::to_f32(layer.weight));
    p.wsq32.push_back(apds::to_f32(apds::square(layer.weight)));
    p.b32.push_back(apds::to_f32(layer.bias));
  }
  p.max_dim = *std::max_element(p.dims.begin(), p.dims.end());
  return p;
}

/// A 64-byte-aligned buffer, as the session's arena slices are (the f32
/// kernels' vector loads would otherwise split cache lines).
template <typename T>
class AlignedBuffer {
 public:
  explicit AlignedBuffer(std::size_t n)
      : p_(static_cast<T*>(std::aligned_alloc(
            64, (n * sizeof(T) + 63) / 64 * 64))) {
    if (!p_) throw std::bad_alloc();
    std::fill(p_.get(), p_.get() + n, T{});
  }
  T* data() { return p_.get(); }

 private:
  struct Free {
    void operator()(T* p) const { std::free(p); }
  };
  std::unique_ptr<T, Free> p_;
};

template <typename T>
struct SweepBuffers {
  AlignedBuffer<T> sm, vi, mean[2], var[2];
  SweepBuffers(std::size_t batch, std::size_t max_dim)
      : sm(batch * max_dim), vi(batch * max_dim),
        mean{AlignedBuffer<T>(batch * max_dim), AlignedBuffer<T>(batch * max_dim)},
        var{AlignedBuffer<T>(batch * max_dim), AlignedBuffer<T>(batch * max_dim)} {}
};

/// The f64 serving path layer by layer; returns the final mean buffer.
const double* sweep_f64(const LayerPacks& p, const MeanVar& in,
                        SweepBuffers<double>& buf, SpanLog* log) {
  ScopedSpan all(log, "core.f64_layers");
  const std::size_t batch = in.batch();
  const double* cm = in.mean.data();
  const double* cv = in.var.data();
  for (std::size_t l = 0; l + 1 < p.dims.size(); ++l) {
    double* om = buf.mean[(l + 1) % 2].data();
    double* ov = buf.var[(l + 1) % 2].data();
    {
      ScopedSpan s(log, layer_span(l, "linear"));
      apds::moment_linear_into(cm, cv, batch, p.dims[l], p.w[l].data(),
                               p.wsq[l].data(), p.b[l].data(), p.dims[l + 1],
                               p.keep[l], buf.sm.data(), buf.vi.data(), om, ov);
    }
    {
      ScopedSpan s(log, layer_span(l, "act"));
      apds::moment_activation_batch(p.f[l], om, ov, batch * p.dims[l + 1]);
    }
    cm = om;
    cv = ov;
  }
  return cm;
}

/// The f32 serving path (fused tiles); returns the final mean buffer.
const float* sweep_f32_fused(const LayerPacks& p, const float* cm,
                             const float* cv, std::size_t batch,
                             SweepBuffers<float>& buf, SpanLog* log) {
  ScopedSpan all(log, "core.f32_fused_layers");
  apds::FusedScratchView scratch;
  scratch.sm = buf.sm.data();
  scratch.vi = buf.vi.data();
  for (std::size_t l = 0; l + 1 < p.dims.size(); ++l) {
    float* om = buf.mean[(l + 1) % 2].data();
    float* ov = buf.var[(l + 1) % 2].data();
    {
      ScopedSpan s(log, layer_span(l, "fused"));
      apds::moment_linear_act_into(cm, cv, batch, p.dims[l], p.w32[l].data(),
                                   p.wsq32[l].data(), p.b32[l].data(),
                                   p.dims[l + 1], p.keep[l], p.f[l],
                                   p.pwl[l].view(), scratch, om, ov);
    }
    cm = om;
    cv = ov;
  }
  return cm;
}

/// The unfused f32 pair per layer: a diagnostic split of the fused tile.
void sweep_f32_unfused(const LayerPacks& p, const float* cm, const float* cv,
                       std::size_t batch, SweepBuffers<float>& buf,
                       SpanLog* log) {
  ScopedSpan all(log, "core.f32_unfused_layers");
  for (std::size_t l = 0; l + 1 < p.dims.size(); ++l) {
    float* om = buf.mean[(l + 1) % 2].data();
    float* ov = buf.var[(l + 1) % 2].data();
    {
      ScopedSpan s(log, layer_span(l, "f32_linear"));
      apds::moment_linear_into(cm, cv, batch, p.dims[l], p.w32[l].data(),
                               p.wsq32[l].data(), p.b32[l].data(),
                               p.dims[l + 1], p.keep[l], buf.sm.data(),
                               buf.vi.data(), om, ov);
    }
    {
      ScopedSpan s(log, layer_span(l, "f32_act"));
      apds::moment_activation_batch(p.f[l], p.pwl[l].view(), om, ov,
                                    batch * p.dims[l + 1]);
    }
    cm = om;
    cv = ov;
  }
}

struct GemmShape {
  std::size_t m, k, n;
  bool f32;
  const char* span;
  std::vector<double> a64, b64, c64;
  std::vector<float> a32, b32, c32;
};

/// One GEMM per distinct layer shape of `dims` at batch `m`.
void add_gemm_shapes(std::vector<GemmShape>& out,
                     const std::vector<std::size_t>& dims, std::size_t m,
                     bool f32, apds::Rng& rng) {
  for (std::size_t l = 0; l + 1 < dims.size(); ++l) {
    const std::string name = "tensor.gemm." + std::to_string(m) + "x" +
                             std::to_string(dims[l]) + "x" +
                             std::to_string(dims[l + 1]) +
                             (f32 ? ".f32" : ".f64");
    if (std::any_of(out.begin(), out.end(),
                    [&](const GemmShape& g) { return name == g.span; }))
      continue;
    GemmShape g{m, dims[l], dims[l + 1], f32, intern(name), {}, {}, {},
                {}, {}, {}};
    const std::size_t na = g.m * g.k, nb = g.k * g.n, nc = g.m * g.n;
    for (std::size_t i = 0; i < na; ++i) {
      const double v = rng.normal();
      if (f32) g.a32.push_back(static_cast<float>(v)); else g.a64.push_back(v);
    }
    for (std::size_t i = 0; i < nb; ++i) {
      const double v = rng.normal() * 0.05;
      if (f32) g.b32.push_back(static_cast<float>(v)); else g.b64.push_back(v);
    }
    if (f32) g.c32.resize(nc); else g.c64.resize(nc);
    out.push_back(std::move(g));
  }
}

void run_gemm(GemmShape& g, SpanLog* log) {
  ScopedSpan s(log, g.span);
  if (g.f32)
    apds::gemm_buffers(g.a32.data(), g.b32.data(), g.c32.data(), g.m, g.k,
                       g.n, false);
  else
    apds::gemm_buffers(g.a64.data(), g.b64.data(), g.c64.data(), g.m, g.k,
                       g.n, false);
}

/// Linear and activation FLOPs of layer l for one input row, from
/// platform/cost_model: the linear part is flops_apdeepsense with the
/// activation terms zeroed, the activation part is the remainder.
std::pair<double, double> layer_flops(const apds::Mlp& mlp, std::size_t l) {
  const apds::Mlp one = apds::Mlp::from_layers({mlp.layer(l)});
  apds::CostConstants linear_only;
  linear_only.special_fn_flops = 0.0;
  linear_only.pwl_piece_arith_flops = 0.0;
  linear_only.pwl_piece_special_calls = 0.0;
  const double linear = apds::flops_apdeepsense(one, kSaturatingPieces, linear_only);
  const double total = apds::flops_apdeepsense(one, kSaturatingPieces);
  return {linear, total - linear};
}

double max_scaled_diff(const double* ref, const double* x, std::size_t n) {
  double worst = 0.0;
  for (std::size_t i = 0; i < n; ++i)
    worst = std::max(worst, std::fabs(ref[i] - x[i]) / (std::fabs(ref[i]) + 1.0));
  return worst;
}

}  // namespace

void run_breakdown(const WorkloadSpec& spec, const Prepared& prep,
                   const std::string& cache_dir, std::uint64_t seed,
                   double seconds, const std::string& spans_out,
                   Report& rep) {
  const WorkloadSpec& stream = workload_spec("stream_b1");
  const WorkloadSpec& offline = workload_spec("offline_b64");
  const Prepared bp = spec.task == stream.task ? prep : prepare(stream, cache_dir, seed);
  const Prepared hp = spec.task == offline.task ? prep : prepare(offline, cache_dir, seed);
  apds::set_global_threads(1);

  const apds::KernelBackend tier = apds::global_kernel_backend();
  const double peak32 = peak_fma_gflops_f32(tier);
  const double peak64 = peak_fma_gflops_f64(tier);

  SpanLog log;

  // Phase A: set-up of the stream path, plus one set of PWL fits.
  apply_precision(stream);
  std::unique_ptr<Server> ss;
  for (int k = 0; k < kSetupTraces; ++k) {
    ss.reset();
    log.begin_request();
    ss = set_up(stream, bp, seed, &log);
    log.end_request();
    ScopedSpan fits(&log, "core.pwl_fits");
    for (std::size_t l = 0; l < ss->mlp.num_layers(); ++l) {
      ScopedSpan s(&log, "core.pwl_fit");
      (void)apds::PiecewiseLinear::for_activation(ss->mlp.layer(l).act,
                                                  kSaturatingPieces);
    }
  }
  const std::size_t end_a = log.size();

  // Phase B: every probe, in rotating blocks.
  apply_precision(offline);
  const std::unique_ptr<Server> os = set_up(offline, hp, seed, nullptr);
  const LayerPacks sp = pack_layers(ss->mlp);
  const LayerPacks op = pack_layers(os->mlp);
  SweepBuffers<double> buf64(stream.batch, sp.max_dim);
  SweepBuffers<float> buf32(offline.batch, op.max_dim);
  std::vector<float> in32_mean(offline.batch * op.dims[0]);
  std::vector<float> in32_var(in32_mean.size());
  MeanVar out64, out32;
  std::vector<GemmShape> gemms;
  apds::Rng gemm_rng(seed ^ 0x6e11ULL);
  add_gemm_shapes(gemms, op.dims, offline.batch, true, gemm_rng);
  add_gemm_shapes(gemms, sp.dims, stream.batch, false, gemm_rng);
  apds::Rng mc_rng(seed ^ 0x3cd0ULL);
  double f64_identity = -1.0, f32_identity = -1.0;

  std::vector<MeanVar> stream_in, offline_in;
  for (const Matrix& m : bp.payloads)
    stream_in.push_back(MeanVar::point(ss->x_scaler.transform(m)));
  for (const Matrix& m : hp.payloads)
    offline_in.push_back(MeanVar::point(os->x_scaler.transform(m)));

  // The probes that are compared with each other (the chain's predict,
  // the session pass and the layer sweep; the f32 pass and its two sweeps)
  // run in short blocks of back-to-back calls whose first kWarm calls are
  // untraced: the sweeps read their own copy of the weights, which takes a
  // few passes to become as cache-resident as the session's copy is in a
  // serving loop (measured: the first sweeps after a switch run up to 60%
  // slower). The blocks rotate through all probes, so the ratios between
  // them hold even when the host's speed drifts during the run.
  const double end_b_us = now_us() + kProbeShare * seconds * 1e6;
  std::size_t next = 0;  // stream payload cursor
  for (std::size_t cycle = 0; cycle < kMinCycles || now_us() < end_b_us;
       ++cycle) {
    apply_precision(stream);
    for (std::size_t k = 0; k < kWarm + kTraced; ++k) {
      SpanLog* lg = k < kWarm ? nullptr : &log;
      const Matrix& payload = bp.payloads[(next + k) % bp.payloads.size()];
      if (lg) log.begin_request();
      {
        ScopedSpan req(lg, "request");
        const Response r = serve(stream, *ss, payload, lg);
        rep.count_request(!response_valid(stream, r));
      }
      log.end_request();
    }
    for (std::size_t k = 0; k < kWarm + kTraced; ++k) {
      ScopedSpan s(k < kWarm ? nullptr : &log, "core.propagate");
      ss->session->propagate(stream_in[(next + k) % stream_in.size()], out64);
    }
    for (std::size_t k = 0; k < kWarm + kTraced; ++k) {
      const MeanVar& in = stream_in[(next + k) % stream_in.size()];
      const double* fin64 = sweep_f64(sp, in, buf64, k < kWarm ? nullptr : &log);
      if (cycle == 0 && k + 1 == kWarm + kTraced)
        f64_identity =
            max_scaled_diff(out64.mean.data(), fin64, out64.mean.size());
    }
    next += kWarm + kTraced;

    apply_precision(offline);
    const MeanVar& in64 = offline_in[cycle % offline_in.size()];
    for (std::size_t i = 0; i < in32_mean.size(); ++i) {
      in32_mean[i] = static_cast<float>(in64.mean.data()[i]);
      in32_var[i] = static_cast<float>(in64.var.data()[i]);
    }
    for (std::size_t k = 0; k < kWarm + kTraced; ++k) {
      ScopedSpan s(k < kWarm ? nullptr : &log, "core.f32_propagate");
      os->session->propagate(in64, out32);
    }
    for (std::size_t k = 0; k < kWarm + kTraced; ++k) {
      const float* fin32 =
          sweep_f32_fused(op, in32_mean.data(), in32_var.data(),
                          offline.batch, buf32, k < kWarm ? nullptr : &log);
      if (cycle == 0 && k == 0) {
        const std::vector<double> wide(fin32, fin32 + out32.mean.size());
        f32_identity =
            max_scaled_diff(out32.mean.data(), wide.data(), wide.size());
      }
    }
    for (std::size_t k = 0; k < kWarm + kTraced; ++k)
      sweep_f32_unfused(op, in32_mean.data(), in32_var.data(), offline.batch,
                        buf32, k < kWarm ? nullptr : &log);

    apply_precision(stream);
    const Matrix& x = stream_in[next % stream_in.size()].mean;
    for (std::size_t k = 0; k < kWarm + kTraced; ++k) {
      ScopedSpan s(k < kWarm ? nullptr : &log, "nn.forward_stochastic");
      (void)ss->mlp.forward_stochastic(x, mc_rng);
    }
    std::vector<Matrix> samples;
    {
      ScopedSpan s(&log, "uncertainty.mcdrop_collect");
      samples = apds::mcdrop_collect(ss->mlp, x, kMcdropSamples, mc_rng);
    }
    {
      ScopedSpan s(&log, "uncertainty.mcdrop_reduce");
      (void)apds::mcdrop_regression_from_samples(samples, kMcdropSamples);
    }
    for (GemmShape& g : gemms)
      for (std::size_t k = 0; k < kWarm + kTraced; ++k)
        run_gemm(g, k < kWarm ? nullptr : &log);
  }
  const std::size_t end_b = log.size();

  // Phase C: the workload's own chain, alternately untraced and traced.
  apply_precision(spec);
  std::unique_ptr<Server> own_storage;
  Server* own = spec.chain == Chain::kApdRegression        ? ss.get()
                : spec.chain == Chain::kApdClassification ? os.get()
                                                          : nullptr;
  if (!own) {
    own_storage = set_up(spec, prep, seed, nullptr);
    own = own_storage.get();
  }
  std::vector<double> untraced_ms, traced_ms;
  const double end_c_us = now_us() + (1.0 - kProbeShare) * seconds * 1e6;
  for (std::size_t i = 0; traced_ms.size() < 2 || now_us() < end_c_us; ++i) {
    const bool traced = i % 2 == 1;
    SpanLog* lg = traced ? &log : nullptr;
    if (traced) log.begin_request();
    bool ok = true;
    Response r;
    const double t0 = now_us();
    try {
      ScopedSpan req(lg, "request");
      r = serve(spec, *own, prep.payloads[i % prep.payloads.size()], lg);
    } catch (const std::exception&) {
      ok = false;
    }
    const double t1 = now_us();
    if (traced) log.end_request();
    (traced ? traced_ms : untraced_ms).push_back((t1 - t0) * 1e-3);
    rep.count_request(!(ok && response_valid(spec, r)));
  }

  // Per-layer metrics: medians of span durations per phase.
  const auto med_us = [&](const std::string& name, std::size_t first,
                          std::size_t last) {
    const std::vector<double> d = log.durations_us(name, first, last);
    if (d.empty()) throw std::logic_error("no spans named " + name);
    return median(d);
  };
  const auto in_a = [&](const std::string& n) { return med_us(n, 0, end_a); };
  const auto in_b = [&](const std::string& n) { return med_us(n, end_a, end_b); };

  rep.metric("machine.peak_fma_gflops.f32", peak32, "GFLOP/s",
             std::string("single-core FMA probe at the ") +
                 apds::kernel_backend_name(tier) + " tier");
  rep.metric("machine.peak_fma_gflops.f64", peak64, "GFLOP/s",
             std::string("single-core FMA probe at the ") +
                 apds::kernel_backend_name(tier) + " tier");

  const std::string setup_note =
      "stream_b1 set-up (BPEst-Tanh), median of " + std::to_string(kSetupTraces);
  rep.metric("nn.load_model_ms", in_a("nn.load_model") * 1e-3, "ms", setup_note);
  rep.metric("core.pwl_fit_ms", in_a("core.pwl_fits") * 1e-3, "ms",
             "PiecewiseLinear::for_activation for every layer, once");
  rep.metric("uncertainty.estimator_build_ms",
             in_a("uncertainty.estimator_build") * 1e-3, "ms", setup_note);
  rep.metric("core.session_build_ms", in_a("core.session_build") * 1e-3, "ms",
             setup_note);
  rep.metric("core.first_propagate_ms", in_a("core.first_propagate") * 1e-3,
             "ms", "first stream_b1 request (plans the arena)");

  const double predict_us = in_b("uncertainty.predict");
  const double propagate_us = in_b("core.propagate");
  rep.metric("data.scale_in_us", in_b("data.scale_in"), "us", "stream_b1 chain");
  rep.metric("data.scale_out_us", in_b("data.scale_out"), "us", "stream_b1 chain");
  rep.metric("obs.request_scope_us",
             in_b("obs.request_scope_open") + in_b("obs.request_scope_close"),
             "us", "RequestScope open + close, stream_b1 chain");
  rep.metric("uncertainty.predict_us", predict_us, "us",
             "ApdEstimator::predict_regression, stream_b1 chain");
  rep.metric("core.propagate_us", propagate_us, "us",
             "InferenceSession::propagate on the same input");

  const std::size_t L = sp.dims.size() - 1;
  double sum64 = 0.0, sum32 = 0.0;
  for (std::size_t l = 0; l < L; ++l) {
    const std::string stem = "core.l" + std::to_string(l + 1);
    const auto [lin_flops, act_flops] = layer_flops(ss->mlp, l);
    const double b = static_cast<double>(stream.batch);
    const double in_d = static_cast<double>(sp.dims[l]);
    const double out_d = static_cast<double>(sp.dims[l + 1]);
    const double lin_ms = in_b(stem + ".linear") * 1e-3;
    const double act_ms = in_b(stem + ".act") * 1e-3;
    sum64 += (lin_ms + act_ms) * 1e3;
    const double lin_gf = b * lin_flops / (lin_ms * 1e6);
    const double act_gf = b * act_flops / (act_ms * 1e6);
    rep.metric(stem + ".linear_ms", lin_ms, "ms", "f64 moment_linear_into, stream_b1");
    rep.metric(stem + ".linear.gflops", lin_gf, "GFLOP/s");
    rep.metric(stem + ".linear.pct_peak", 100.0 * lin_gf / peak64, "%");
    rep.metric(stem + ".act_ms", act_ms, "ms", "f64 moment_activation_batch, stream_b1");
    rep.metric(stem + ".act.gflops", act_gf, "GFLOP/s");
    rep.metric(stem + ".act.pct_peak", 100.0 * act_gf / peak64, "%");
    const std::string shape = std::to_string(stream.batch) + "x" +
                              std::to_string(sp.dims[l]) + "x" +
                              std::to_string(sp.dims[l + 1]);
    rep.constant(stem + ".linear.flops", b * lin_flops, "FLOP",
                 "f64 " + shape + ", platform/cost_model");
    rep.constant(stem + ".linear.bytes",
                 8.0 * (2.0 * in_d * out_d + out_d + 2.0 * b * in_d + 2.0 * b * out_d),
                 "B", "computed: W, W∘W, bias, input and output moments at 8 B");
    rep.constant(stem + ".act.flops", b * act_flops, "FLOP",
                 "f64 " + shape + ", platform/cost_model");
    rep.constant(stem + ".act.bytes", 8.0 * 4.0 * b * out_d, "B",
                 "computed: output moments read and written at 8 B");
  }
  for (std::size_t l = 0; l < op.dims.size() - 1; ++l) {
    const std::string stem = "core.l" + std::to_string(l + 1);
    const auto [lin_flops, act_flops] = layer_flops(os->mlp, l);
    const double b = static_cast<double>(offline.batch);
    const double in_d = static_cast<double>(op.dims[l]);
    const double out_d = static_cast<double>(op.dims[l + 1]);
    const double fused_ms = in_b(stem + ".fused") * 1e-3;
    sum32 += fused_ms * 1e3;
    const double gf = b * (lin_flops + act_flops) / (fused_ms * 1e6);
    rep.metric(stem + ".fused_ms", fused_ms, "ms", "f32 moment_linear_act_into, offline_b64");
    rep.metric(stem + ".fused.gflops", gf, "GFLOP/s");
    rep.metric(stem + ".fused.pct_peak", 100.0 * gf / peak32, "%");
    rep.metric(stem + ".f32_linear_ms", in_b(stem + ".f32_linear") * 1e-3, "ms",
               "diagnostic: unfused f32 moment_linear_into");
    rep.metric(stem + ".f32_act_ms", in_b(stem + ".f32_act") * 1e-3, "ms",
               "diagnostic: unfused f32 moment_activation_batch");
    const std::string shape = std::to_string(offline.batch) + "x" +
                              std::to_string(op.dims[l]) + "x" +
                              std::to_string(op.dims[l + 1]);
    rep.constant(stem + ".fused.flops", b * (lin_flops + act_flops), "FLOP",
                 "f32 " + shape + ", platform/cost_model");
    rep.constant(stem + ".fused.bytes",
                 4.0 * (2.0 * in_d * out_d + out_d + 2.0 * b * in_d + 2.0 * b * out_d),
                 "B", "computed: W, W∘W, bias, input and output moments at 4 B");
  }
  const double f32_propagate_us = in_b("core.f32_propagate");
  rep.metric("core.f32_propagate_ms", f32_propagate_us * 1e-3, "ms",
             "f32 InferenceSession::propagate, offline_b64 batch");
  const double ratio64 = sum64 / propagate_us;
  const double ratio32 = sum32 / f32_propagate_us;
  rep.metric("core.layer_sum_ratio", ratio64, "ratio",
             "sum of f64 linear_ms + act_ms over core.propagate_us (stream_b1)");
  rep.metric("core.f32_layer_sum_ratio", ratio32, "ratio",
             "sum of fused_ms over core.f32_propagate_ms (offline_b64)");

  for (const GemmShape& g : gemms) {
    const double us = in_b(g.span);
    const double flops = 2.0 * static_cast<double>(g.m * g.k * g.n);
    rep.metric(std::string(g.span) + ".gflops", flops / (us * 1e3), "GFLOP/s");
    rep.constant(std::string(g.span) + ".flops", flops, "FLOP", "2mkn");
    rep.constant(std::string(g.span) + ".bytes",
                 (g.f32 ? 4.0 : 8.0) *
                     static_cast<double>(g.m * g.k + g.k * g.n + g.m * g.n),
                 "B", "computed: A, B and C once at the precision's width");
  }

  const double collect_us = in_b("uncertainty.mcdrop_collect");
  const double reduce_us = in_b("uncertainty.mcdrop_reduce");
  rep.metric("nn.forward_stochastic_ms", in_b("nn.forward_stochastic") * 1e-3,
             "ms", "one stochastic pass, stream_b1 model and rows");
  rep.metric("uncertainty.mcdrop_collect_ms", collect_us * 1e-3, "ms",
             "mcdrop_collect, k = 50");
  rep.metric("uncertainty.mcdrop_reduce_us", reduce_us, "us",
             "mcdrop_regression_from_samples, k = 50");

  const double traced_p50 = median(traced_ms);
  const double untraced_p50 = median(untraced_ms);
  rep.metric("bench.tracing_overhead_us", (traced_p50 - untraced_p50) * 1e3,
             "us", "traced minus untraced latency p50, " + spec.name + " chain");
  rep.info("traced_latency_p50_ms", traced_p50, "ms",
           std::to_string(traced_ms.size()) + " requests");
  rep.info("untraced_latency_p50_ms", untraced_p50, "ms",
           std::to_string(untraced_ms.size()) + " requests, interleaved");

  std::ostringstream paper;
  paper << "paper shape (information only): ApDeepSense saves "
        << 100.0 * (1.0 - predict_us / (collect_us + reduce_us))
        << "% of MCDrop-50's time per request on the stream_b1 model (predict "
        << predict_us * 1e-3 << " ms vs collect + reduce "
        << (collect_us + reduce_us) * 1e-3
        << " ms, p50); the paper reports ~83.6% for Tanh";
  rep.note(paper.str());

  // Self time per span name: the breakdown (phases A and B), then the
  // workload's own traced requests (phase C).
  const auto self_times = [&](const std::string& prefix, std::size_t first,
                              std::size_t last) {
    for (const auto& [name, sum] : summarize(log, first, last))
      rep.info(prefix + name, sum.median_self_us, "us",
               "median self time over " + std::to_string(sum.count) +
                   " spans; total self " +
                   std::to_string(sum.total_self_us * 1e-3) + " ms");
  };
  self_times("self.", 0, end_b);
  self_times("self." + spec.name + ".", end_b, log.size());

  const bool closure = std::fabs(ratio64 - 1.0) <= kLayerSumTolerance &&
                       std::fabs(ratio32 - 1.0) <= kLayerSumTolerance;
  std::ostringstream cd;
  cd << "core.layer_sum_ratio " << ratio64 << ", core.f32_layer_sum_ratio "
     << ratio32 << "; tolerance 1 +/- " << kLayerSumTolerance;
  rep.check("layer_sum_closure", closure, cd.str());
  std::ostringstream sd;
  sd << "layer sweeps vs session output, max |session - sweep| / "
        "(|session| + 1): f64 "
     << f64_identity << " (bound 1e-12), f32 " << f32_identity
     << " (bound 1e-6)";
  rep.check("sweeps_match_session",
            f64_identity <= 1e-12 && f32_identity <= 1e-6, sd.str());

  if (!spans_out.empty()) log.write_json(spans_out);
}

}  // namespace perfbench
