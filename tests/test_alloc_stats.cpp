// Allocation accounting via the replacement global operator new/delete:
// the hooks must actually be linked (a build that drops the replacement TU
// silently reports 0 forever), must count every allocation path (plain,
// array, over-aligned), and — the property ROADMAP's zero-alloc work will
// lean on — a warmed-up propagate must allocate a STABLE number of times
// per call on every precision path, so per-request alloc counts in the
// flight recorder are attributable rather than noise.
#include "obs/alloc_stats.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <memory>
#include <vector>

#include "common/precision.h"
#include "common/rng.h"
#include "core/apdeepsense.h"

namespace apds {
namespace {

TEST(AllocStats, ReplacementHooksAreLinkedAndCounting) {
  EXPECT_TRUE(obs::alloc_hooks_active());
}

TEST(AllocStats, ThreadCountersSeeEveryAllocationShape) {
  const obs::AllocCounters before = obs::thread_alloc_counters();
  {
    auto plain = std::make_unique<int>(7);
    auto array = std::make_unique<double[]>(1000);
    struct alignas(64) Wide {
      double d[8];
    };
    auto aligned = std::make_unique<Wide>();
    std::vector<char> grown(4096);
    const obs::AllocCounters mid =
        obs::thread_alloc_counters() - before;
    EXPECT_GE(mid.allocs, 4u);
    // Bytes are "requested" semantics: at least the payload sizes.
    EXPECT_GE(mid.bytes, sizeof(int) + 1000 * sizeof(double) +
                             sizeof(Wide) + 4096);
  }
  const obs::AllocCounters after = obs::thread_alloc_counters() - before;
  // Everything scoped above was released through the counted deletes.
  EXPECT_GE(after.frees, 4u);
  EXPECT_EQ(after.allocs, after.frees);
}

TEST(AllocStats, ProcessCountersIncludeTheCallingThread) {
  const obs::AllocCounters thread0 = obs::thread_alloc_counters();
  const obs::AllocCounters process0 = obs::process_alloc_counters();
  { auto p = std::make_unique<std::vector<int>>(512); }
  const obs::AllocCounters dt = obs::thread_alloc_counters() - thread0;
  const obs::AllocCounters dp = obs::process_alloc_counters() - process0;
  // >= 1, not 2: the optimizer may legally elide the unused buffer
  // allocation, but the unique_ptr's object allocation escapes.
  EXPECT_GE(dt.allocs, 1u);
  EXPECT_GE(dp.allocs, dt.allocs);
  EXPECT_GE(dp.bytes, dt.bytes);
}

/// Calling-thread allocation count of one propagate call after `warmup`
/// identical calls (the lazily built session for `p` and this thread's
/// arena settle during warm-up; what remains is the by-value result).
std::uint64_t propagate_allocs(const ApDeepSense& apd, const MeanVar& input,
                               Precision p, int warmup = 3) {
  for (int i = 0; i < warmup; ++i) {
    MeanVar out = apd.propagate(input, p);
    (void)out;
  }
  const obs::AllocCounters before = obs::thread_alloc_counters();
  MeanVar out = apd.propagate(input, p);
  (void)out;
  return (obs::thread_alloc_counters() - before).allocs;
}

TEST(AllocStats, SteadyStatePropagateAllocationsAreStablePerPrecision) {
  Rng rng(11);
  MlpSpec spec;
  spec.dims = {16, 32, 32, 8};
  spec.hidden_act = Activation::kTanh;
  spec.hidden_keep_prob = 0.9;
  const Mlp mlp = Mlp::make(spec, rng);
  const ApDeepSense apd(mlp);
  Matrix x(4, 16);
  for (double& v : x.flat()) v = rng.normal();
  const MeanVar input = MeanVar::point(x);

  for (const Precision p : {Precision::kF64, Precision::kF32}) {
    const std::uint64_t first = propagate_allocs(apd, input, p);
    const std::uint64_t second = propagate_allocs(apd, input, p, 0);
    EXPECT_GT(first, 0u) << static_cast<int>(p);
    EXPECT_EQ(first, second)
        << "allocation count drifted between warmed-up propagate calls "
           "(precision "
        << static_cast<int>(p) << ")";
  }
}

}  // namespace
}  // namespace apds
