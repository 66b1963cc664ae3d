#include "tensor/tensor_io.h"

#include <algorithm>
#include <cstdint>
#include <istream>
#include <ostream>

namespace apds {

namespace {

/// Payload read granularity: 1 MiB of doubles.
constexpr std::size_t kReadChunkElems = (std::size_t{1} << 20) / sizeof(double);

/// Bytes left between the read position and the end of `is`, or -1 when
/// the stream cannot seek (a pipe, a custom streambuf). Leaves the read
/// position where it was.
std::streamoff remaining_bytes(std::istream& is) {
  std::streambuf* buf = is.rdbuf();
  const std::streampos here =
      buf->pubseekoff(0, std::ios_base::cur, std::ios_base::in);
  if (here == std::streampos(-1)) return -1;
  const std::streampos end =
      buf->pubseekoff(0, std::ios_base::end, std::ios_base::in);
  buf->pubseekpos(here, std::ios_base::in);
  if (end == std::streampos(-1)) return -1;
  return end - here;
}

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
  const std::size_t total = static_cast<std::size_t>(rows * cols);
  std::vector<double> data;
  // A stream that knows its length (files, string streams) has the header
  // checked against it before anything is allocated, then gets its buffer
  // sized once, so the chunked reads below never reallocate. Otherwise the
  // buffer grows as the payload arrives, at most one chunk ahead of what
  // has been read, instead of trusting the header up front: a corrupt
  // 16-byte header claiming 2^28 elements must not zero-fill 2 GiB before
  // failing. std::vector's geometric growth keeps that linear, so a lying
  // header costs at most about twice the bytes actually present plus one
  // chunk.
  if (const std::streamoff left = remaining_bytes(is); left >= 0) {
    if (static_cast<std::uint64_t>(left) / sizeof(double) < total)
      throw IoError("read_matrix: truncated payload");
    data.reserve(total);
  }
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
