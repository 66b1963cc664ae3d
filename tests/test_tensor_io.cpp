#include "tensor/tensor_io.h"

#include <gtest/gtest.h>

#include <sstream>

#include "common/rng.h"
#include "obs/alloc_stats.h"
#include "tensor/ops.h"

namespace apds {
namespace {

TEST(TensorIo, RoundTripPreservesValues) {
  Rng rng(3);
  Matrix m(7, 11);
  for (double& v : m.flat()) v = rng.normal();

  std::stringstream ss;
  write_matrix(ss, m);
  const Matrix back = read_matrix(ss);
  EXPECT_EQ(back.rows(), 7u);
  EXPECT_EQ(back.cols(), 11u);
  EXPECT_EQ(back, m);
}

TEST(TensorIo, EmptyMatrixRoundTrips) {
  std::stringstream ss;
  write_matrix(ss, Matrix());
  const Matrix back = read_matrix(ss);
  EXPECT_TRUE(back.empty());
}

TEST(TensorIo, TruncatedHeaderThrows) {
  std::stringstream ss;
  ss.write("abc", 3);
  EXPECT_THROW(read_matrix(ss), IoError);
}

TEST(TensorIo, TruncatedPayloadThrows) {
  std::stringstream ss;
  write_matrix(ss, Matrix(4, 4, 1.0));
  std::string data = ss.str();
  data.resize(data.size() - 8);  // drop one double
  std::stringstream truncated(data);
  EXPECT_THROW(read_matrix(truncated), IoError);
}

TEST(TensorIo, TruncatedPayloadDoesNotAllocateClaimedShape) {
  // A header claiming 2^24 elements (128 MiB) followed by one double: the
  // reader must fail on the missing payload without first allocating the
  // claimed shape.
  std::stringstream ss;
  const std::uint64_t rows = 1ULL << 12;
  const std::uint64_t cols = 1ULL << 12;
  const double one = 1.0;
  ss.write(reinterpret_cast<const char*>(&rows), 8);
  ss.write(reinterpret_cast<const char*>(&cols), 8);
  ss.write(reinterpret_cast<const char*>(&one), 8);
  ASSERT_TRUE(obs::alloc_hooks_active());
  const obs::AllocCounters before = obs::thread_alloc_counters();
  EXPECT_THROW(read_matrix(ss), IoError);
  const obs::AllocCounters grown = obs::thread_alloc_counters() - before;
  EXPECT_LT(grown.bytes, 16ULL << 20);
}

TEST(TensorIo, LargeLoadAllocatesThePayloadOnce) {
  // 512 x 512 doubles is 2 MiB, above the 1 MiB read chunk. A stream that
  // reports its length gets its buffer sized once; growing chunk by chunk
  // would request 1 MiB and then 2 MiB (1.5x the payload).
  std::stringstream ss;
  write_matrix(ss, Matrix(512, 512, 0.5));
  const std::uint64_t payload = 512ULL * 512ULL * sizeof(double);
  ASSERT_TRUE(obs::alloc_hooks_active());
  const obs::AllocCounters before = obs::thread_alloc_counters();
  const Matrix back = read_matrix(ss);
  const obs::AllocCounters used = obs::thread_alloc_counters() - before;
  EXPECT_EQ(back.rows(), 512u);
  EXPECT_EQ(back(511, 511), 0.5);
  EXPECT_LT(static_cast<double>(used.bytes),
            1.25 * static_cast<double>(payload))
      << used.bytes << " bytes requested for a " << payload
      << "-byte payload";
}

TEST(TensorIo, ImplausibleShapeRejected) {
  std::stringstream ss;
  const std::uint64_t rows = 1ULL << 40;
  const std::uint64_t cols = 1ULL << 40;
  ss.write(reinterpret_cast<const char*>(&rows), 8);
  ss.write(reinterpret_cast<const char*>(&cols), 8);
  EXPECT_THROW(read_matrix(ss), IoError);
}

TEST(TensorIo, SequentialMatricesReadBack) {
  std::stringstream ss;
  Matrix a{{1.0, 2.0}};
  Matrix b{{3.0}, {4.0}};
  write_matrix(ss, a);
  write_matrix(ss, b);
  EXPECT_EQ(read_matrix(ss), a);
  EXPECT_EQ(read_matrix(ss), b);
}

}  // namespace
}  // namespace apds
