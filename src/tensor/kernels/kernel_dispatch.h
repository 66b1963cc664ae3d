// Runtime CPU-feature kernel dispatch (MLAS-style).
//
// The f32 hot kernels exist in three builds of one shared body
// (kernel_body.inl): a baseline TU compiled with the project defaults
// (SSE2 on x86-64), an AVX2+FMA TU and a Skylake-X AVX-512 TU (F+BW+DQ+VL,
// kept as-is so the f32 codegen does not move), each with its own
// -m flags (see src/tensor/CMakeLists.txt). At startup the dispatcher
// probes CPUID once and binds the best supported table; every caller goes
// through kernel_ops() function pointers, so one binary serves the whole
// ISA range an IoT fleet actually spans.
//
// Resolution precedence mirrors the thread-pool width and precision:
//   set_global_kernel_backend() (the benches' --kernel flag lands here)
//   > the APDS_KERNEL environment variable ("scalar" | "avx2" | "avx512")
//   > the CPUID probe (best supported level).
// Forcing a backend the CPU cannot execute logs a warning and clamps to
// the best supported one — an override must never SIGILL a device.
//
// The f64 reference path does NOT dispatch: it keeps the default FP flags
// and one TU so its arithmetic stays bit-identical across releases. Only
// the f32 fast path routes through this table, and it keeps the
// per-output-element accumulation order of the serial loops, so results are bit-identical across thread counts *within* a
// backend (across backends they agree to documented tolerances — FMA
// contraction and vector shuffles change rounding, not math).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace apds {

/// ISA tiers the dispatcher can bind. Ordered: a CPU supporting a level
/// supports every lower one (AVX-512F implies AVX2+FMA implies SSE2).
enum class KernelBackend {
  kScalar = 0,  ///< project-default flags (SSE2 baseline on x86-64)
  kAvx2 = 1,    ///< -mavx2 -mfma
  kAvx512 = 2,  ///< Skylake-X set: -mavx512f -mavx512bw -mavx512dq -mavx512vl
};

/// "scalar" / "avx2" / "avx512" (flag spelling, also in bench row names).
const char* kernel_backend_name(KernelBackend b);

/// Parse "scalar"/"avx2"/"avx512" (case-insensitive; "sse2" is accepted as
/// an alias of scalar). Throws InvalidArgument on anything else.
KernelBackend parse_kernel_backend(const std::string& name);

/// The best backend this CPU can execute, probed once via CPUID.
KernelBackend best_supported_backend();

/// Whether this CPU can execute `b` (scalar is always supported).
bool kernel_backend_supported(KernelBackend b);

/// Pin the process-wide backend, overriding APDS_KERNEL. An unsupported
/// value logs a warning and clamps to best_supported_backend().
void set_global_kernel_backend(KernelBackend b);

/// Revert to the APDS_KERNEL / probe resolution (mainly for tests).
void clear_global_kernel_backend();

/// The backend inference kernels run on, resolved per the precedence
/// above. An unparseable APDS_KERNEL value logs a warning and falls back
/// to the probe.
KernelBackend global_kernel_backend();

/// Column-tile width of the fused moment->activation kernels; callers size
/// their stack tiles (mean/var/deterministic-mask) with this.
inline constexpr std::size_t kKernelMomentTile = 128;

/// Row-block height of the fused moment->activation kernels. A moment tile
/// accumulates a (rows x columns) block so each streamed W/Wsq panel is
/// reused across every row of the block — per-row tiles would re-stream
/// the full weight columns once per batch row and lose to the unfused
/// GEMM path on memory bandwidth.
inline constexpr std::size_t kKernelMomentRows = 16;

/// Column width of one packed f32 weight panel (see kernel_panel_floats).
/// One layout serves every tier — 16 floats is one AVX-512 register, two
/// AVX2 registers, four SSE2 registers — so a pack built at load stays
/// valid whichever tier kernel_ops() binds later.
inline constexpr std::size_t kKernelPanelCols = 16;
static_assert(kKernelMomentTile % kKernelPanelCols == 0,
              "column tiles must start on a panel boundary");

/// Floats in the column-panel packing of a kdim x n row-major matrix:
/// ceil(n / kKernelPanelCols) panels, each kdim rows of kKernelPanelCols
/// contiguous floats, laid out [panel][k][lane]; the last panel's lanes
/// past n are zero. Element (k, j) lives at
///   (j / kKernelPanelCols) * kdim * kKernelPanelCols
///   + k * kKernelPanelCols + j % kKernelPanelCols.
constexpr std::size_t kernel_panel_floats(std::size_t kdim, std::size_t n) {
  return (n + kKernelPanelCols - 1) / kKernelPanelCols * kdim *
         kKernelPanelCols;
}

/// Non-owning view of a piece-wise linear surrogate in kernel layout:
/// per-piece upper boundaries (double, last may be +inf) plus f32 slopes
/// and intercepts. Built from core's PiecewiseLinear via pack_pwl() — the
/// kernel layer deliberately knows nothing about core types.
struct PwlView {
  double lo0 = 0.0;            ///< lower bound of piece 0 (may be -inf)
  const double* hi = nullptr;  ///< [pieces] upper boundaries
  const float* k = nullptr;    ///< [pieces] slopes
  const float* c = nullptr;    ///< [pieces] intercepts
  std::size_t pieces = 0;
};

/// Owning storage behind a PwlView.
struct PwlPack {
  double lo0 = 0.0;
  std::vector<double> hi;
  std::vector<float> k;
  std::vector<float> c;

  PwlView view() const {
    return {lo0, hi.data(), k.data(), c.data(), hi.size()};
  }
};

/// The function-pointer table one ISA tier exports: exactly the f32
/// inference kernels (f32 is an inference precision only; backprop's
/// gemm_tn/gemm_nt stay f64 in tensor/gemm.cpp). All kernels take raw
/// row-major buffers; shape checks and thread partitioning stay in the
/// generic drivers (tensor/gemm.cpp, core/moment_*.cpp), which call these
/// on disjoint output ranges.
struct KernelOps {
  const char* name;  ///< kernel_backend_name of the TU that built the table

  /// C[i0:i1, j0:j1] (+)= A[i0:i1, :] B[:, j0:j1]; A is m x k, B k x n,
  /// C m x n. Same k-blocked, k-ascending per-element accumulation order
  /// as the f64 reference gemm_tile.
  void (*gemm_tile_f32)(const float* a, const float* b, float* c,
                        std::size_t k, std::size_t n, bool accumulate,
                        std::size_t i0, std::size_t i1, std::size_t j0,
                        std::size_t j1);

  /// The fused elementwise prep of moment_linear's two GEMM inputs:
  ///   sm[i] = mu[i] p,  vi[i] = (mu[i]^2 + var[i]) p - mu[i]^2 p^2.
  void (*moment_prep_f32)(const float* mu, const float* var, float* sm,
                          float* vi, std::size_t n, float p, float p2);

  /// In-place PWL activation moments for up to kKernelMomentTile elements.
  /// Lanes whose input variance is below det_threshold are left UNTOUCHED
  /// (still holding the input moments), marked det[i] = 1, and the call
  /// returns true — the caller fixes them up through the f64 scalar path
  /// (the closed form loses to linearization there at f32 epsilon). det
  /// must hold n bytes; it is only written when the return value is true.
  bool (*act_tile_f32)(const PwlView& f, float* m, float* v, std::size_t n,
                       float det_threshold, unsigned char* det);

  /// Pack the kdim x n block at `w` (row-major, row stride ldw >= n) into
  /// `panels` in the column-panel layout of kernel_panel_floats, last
  /// panel zero-padded. A pure copy: every tier writes the same bytes, so a
  /// pack built under one tier serves any other.
  void (*pack_panels_f32)(const float* w, std::size_t ldw, std::size_t kdim,
                          std::size_t n, float* panels);

  /// One row-block x column-tile of the fused moment_linear: for r in
  /// [r0, r1), j in [j0, j1),
  ///   tmean[(r-r0)(j1-j0) + j-j0] = dot(sm[r,:], W[:,j]) + bias[j]
  ///   tvar [(r-r0)(j1-j0) + j-j0] = max(0, dot(vi[r,:], Wsq[:,j]))
  /// sm/vi are the full prepped input matrices (batch x kdim row-major);
  /// wp/wsqp are W and W∘W in the column-panel layout of
  /// kernel_panel_floats (packed once at session load). j0 is a multiple of
  /// kKernelPanelCols, r1 - r0 <= kKernelMomentRows and
  /// j1 - j0 <= kKernelMomentTile. A register-blocked micro-kernel keeps a
  /// (tier-chosen rows) x kKernelPanelCols accumulator block in registers
  /// across the whole k loop; each element's sum still runs over k in
  /// ascending order with the tier TU's FMA contraction, so the result is
  /// bit-identical to gemm_tile_f32 on the row-major W/W∘W (plus bias and
  /// the clamp) and partition-invariant. Zero-padded panel lanes are
  /// computed but never stored. The caller runs the activation tile on
  /// (tmean, tvar) while they are still hot and only then spills to the
  /// output matrix — the pre-activation moment matrices never exist in
  /// memory.
  void (*moment_tile_f32)(const float* sm, const float* vi, const float* wp,
                          const float* wsqp, const float* bias,
                          std::size_t kdim, std::size_t r0, std::size_t r1,
                          std::size_t j0, std::size_t j1, float* tmean,
                          float* tvar);
};

/// The table bound to the globally resolved backend.
const KernelOps& kernel_ops();

/// The table of an explicit backend (agreement tests compare these).
/// Requesting an unsupported tier returns the scalar table.
const KernelOps& kernel_ops(KernelBackend b);

}  // namespace apds
