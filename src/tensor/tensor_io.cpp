#include "tensor/tensor_io.h"

#include <algorithm>
#include <cstdint>
#include <istream>
#include <ostream>

namespace apds {

namespace {

/// Payload read granularity: 1 MiB of doubles.
constexpr std::size_t kReadChunkElems = (std::size_t{1} << 20) / sizeof(double);

void write_u64(std::ostream& os, std::uint64_t v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

std::uint64_t read_u64(std::istream& is) {
  std::uint64_t v = 0;
  is.read(reinterpret_cast<char*>(&v), sizeof(v));
  if (!is) throw IoError("read_matrix: truncated header");
  return v;
}
}  // namespace

void write_matrix(std::ostream& os, const Matrix& m) {
  write_u64(os, m.rows());
  write_u64(os, m.cols());
  os.write(reinterpret_cast<const char*>(m.data()),
           static_cast<std::streamsize>(sizeof(double) * m.size()));
  if (!os) throw IoError("write_matrix: stream failure");
}

Matrix read_matrix(std::istream& is, std::size_t max_elems) {
  const std::uint64_t rows = read_u64(is);
  const std::uint64_t cols = read_u64(is);
  if (rows != 0 && cols > max_elems / rows)
    throw IoError("read_matrix: implausible shape (corrupt file?)");
  // Grow the buffer as the payload arrives, at most one chunk ahead of
  // what has been read, instead of trusting the header up front: a corrupt
  // 16-byte file claiming 2^28 elements must not zero-fill 2 GiB before
  // failing. std::vector's geometric growth keeps this linear, so a lying
  // header costs at most about twice the bytes actually present plus one
  // chunk.
  const std::size_t total = static_cast<std::size_t>(rows * cols);
  std::vector<double> data;
  while (data.size() < total) {
    const std::size_t have = data.size();
    const std::size_t step = std::min(total - have, kReadChunkElems);
    data.resize(have + step);
    is.read(reinterpret_cast<char*>(data.data() + have),
            static_cast<std::streamsize>(sizeof(double) * step));
    if (!is) throw IoError("read_matrix: truncated payload");
  }
  return Matrix::from_data(rows, cols, std::move(data));
}

}  // namespace apds
