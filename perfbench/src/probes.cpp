#include "probes.h"

#include <algorithm>
#include <cstring>

#include "spans.h"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace perfbench {

namespace {

volatile double g_sink = 0.0;

template <typename V>
void consume(const V& v) {
  double lanes[sizeof(V) / sizeof(double)];
  std::memcpy(lanes, &v, sizeof(V));
  g_sink = g_sink + lanes[0];
}

// Each probe runs ACCS independent multiply-add chains (enough to cover
// FMA latency times the number of FMA ports) and returns GFLOP/s.
#define PERFBENCH_FMA_PROBE(fn, attr, VT, SET1, MADD, ACCS, LANES)          \
  attr double fn(std::size_t iters) {                                       \
    VT acc[ACCS];                                                           \
    for (int i = 0; i < ACCS; ++i) acc[i] = SET1(1.0 + 1e-3 * i);           \
    const VT m = SET1(0.99999);                                             \
    const VT a = SET1(1e-5);                                                \
    const double t0 = now_us();                                             \
    for (std::size_t it = 0; it < iters; ++it)                              \
      for (int i = 0; i < ACCS; ++i) acc[i] = MADD(acc[i], m, a);           \
    const double t1 = now_us();                                             \
    for (int i = 1; i < ACCS; ++i) consume(acc[i]);                         \
    consume(acc[0]);                                                        \
    const double flops = 2.0 * LANES * ACCS * static_cast<double>(iters);   \
    return flops / ((t1 - t0) * 1e3);                                       \
  }

#if defined(__x86_64__)
#define ATTR_AVX512 __attribute__((target("avx512f")))
#define ATTR_AVX2 __attribute__((target("avx2,fma")))

ATTR_AVX512 inline __m512 set1_ps512(double v) {
  return _mm512_set1_ps(static_cast<float>(v));
}
ATTR_AVX512 inline __m512d set1_pd512(double v) { return _mm512_set1_pd(v); }
ATTR_AVX2 inline __m256 set1_ps256(double v) {
  return _mm256_set1_ps(static_cast<float>(v));
}
ATTR_AVX2 inline __m256d set1_pd256(double v) { return _mm256_set1_pd(v); }
inline __m128 set1_ps128(double v) { return _mm_set1_ps(static_cast<float>(v)); }
inline __m128d set1_pd128(double v) { return _mm_set1_pd(v); }
inline __m128 madd_ps128(__m128 x, __m128 m, __m128 a) {
  return _mm_add_ps(_mm_mul_ps(x, m), a);
}
inline __m128d madd_pd128(__m128d x, __m128d m, __m128d a) {
  return _mm_add_pd(_mm_mul_pd(x, m), a);
}

PERFBENCH_FMA_PROBE(probe_f32_avx512, ATTR_AVX512, __m512, set1_ps512,
                    _mm512_fmadd_ps, 16, 16)
PERFBENCH_FMA_PROBE(probe_f64_avx512, ATTR_AVX512, __m512d, set1_pd512,
                    _mm512_fmadd_pd, 16, 8)
PERFBENCH_FMA_PROBE(probe_f32_avx2, ATTR_AVX2, __m256, set1_ps256,
                    _mm256_fmadd_ps, 10, 8)
PERFBENCH_FMA_PROBE(probe_f64_avx2, ATTR_AVX2, __m256d, set1_pd256,
                    _mm256_fmadd_pd, 10, 4)
PERFBENCH_FMA_PROBE(probe_f32_sse2, , __m128, set1_ps128, madd_ps128, 12, 4)
PERFBENCH_FMA_PROBE(probe_f64_sse2, , __m128d, set1_pd128, madd_pd128, 12, 2)
#else
inline double set1_d(double v) { return v; }
inline double madd_d(double x, double m, double a) { return x * m + a; }
PERFBENCH_FMA_PROBE(probe_f64_portable, , double, set1_d, madd_d, 8, 1)
#endif

using Probe = double (*)(std::size_t);

double best_of(Probe probe) {
  probe(1 << 16);  // warm up clocks and caches
  double best = 0.0;
  for (int trial = 0; trial < 7; ++trial)
    best = std::max(best, probe(std::size_t{1} << 20));
  return best;
}

}  // namespace

double peak_fma_gflops_f32(apds::KernelBackend tier) {
#if defined(__x86_64__)
  switch (tier) {
    case apds::KernelBackend::kAvx512: return best_of(probe_f32_avx512);
    case apds::KernelBackend::kAvx2: return best_of(probe_f32_avx2);
    default: return best_of(probe_f32_sse2);
  }
#else
  (void)tier;
  return best_of(probe_f64_portable);
#endif
}

double peak_fma_gflops_f64(apds::KernelBackend tier) {
#if defined(__x86_64__)
  switch (tier) {
    case apds::KernelBackend::kAvx512: return best_of(probe_f64_avx512);
    case apds::KernelBackend::kAvx2: return best_of(probe_f64_avx2);
    default: return best_of(probe_f64_sse2);
  }
#else
  (void)tier;
  return best_of(probe_f64_portable);
#endif
}

}  // namespace perfbench
