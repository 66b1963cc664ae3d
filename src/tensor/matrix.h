// Dense row-major matrix — the numeric workhorse of the library.
//
// MatrixT<T> is parameterized on the scalar type so the inference fast path
// can run in single precision (twice the SIMD lanes, half the memory
// traffic) while training and the reference path stay in double. `Matrix`
// remains the f64 alias every pre-existing call site compiles against;
// `MatrixF` is the f32 storage used by the packed-weight kernels.
//
// A matrix with rows()==1 doubles as a row vector; most of the
// neural-network code works on minibatch matrices of shape [batch, features].
#pragma once

#include <cstddef>
#include <initializer_list>
#include <span>
#include <vector>

#include "common/error.h"

namespace apds {

/// Dense row-major matrix of T. Value type with cheap moves.
template <typename T>
class MatrixT {
 public:
  using value_type = T;

  /// Empty 0x0 matrix.
  MatrixT() = default;

  /// rows x cols matrix, zero-initialized.
  MatrixT(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, T(0)) {}

  /// rows x cols matrix filled with `fill`.
  MatrixT(std::size_t rows, std::size_t cols, T fill)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  /// Build from a nested initializer list: Matrix{{1,2},{3,4}}.
  MatrixT(std::initializer_list<std::initializer_list<T>> init) {
    rows_ = init.size();
    cols_ = rows_ == 0 ? 0 : init.begin()->size();
    data_.reserve(rows_ * cols_);
    for (const auto& r : init) {
      APDS_CHECK_MSG(r.size() == cols_, "ragged initializer list");
      data_.insert(data_.end(), r.begin(), r.end());
    }
  }

  /// Build a 1 x n row vector from values.
  static MatrixT row_vector(std::span<const T> values) {
    MatrixT m;
    m.rows_ = 1;
    m.cols_ = values.size();
    m.data_.assign(values.begin(), values.end());
    return m;
  }

  /// Build from raw row-major data (size must equal rows*cols).
  static MatrixT from_data(std::size_t rows, std::size_t cols,
                           std::vector<T> data) {
    APDS_CHECK_MSG(data.size() == rows * cols,
                   "from_data: size " << data.size() << " != " << rows << "x"
                                      << cols);
    MatrixT m;
    m.rows_ = rows;
    m.cols_ = cols;
    m.data_ = std::move(data);
    return m;
  }

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  T& operator()(std::size_t r, std::size_t c) { return data_[r * cols_ + c]; }
  T operator()(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }

  /// Bounds-checked element access.
  T& at(std::size_t r, std::size_t c) {
    APDS_CHECK_MSG(r < rows_ && c < cols_, "at(" << r << "," << c
                                                 << ") out of " << rows_ << "x"
                                                 << cols_);
    return (*this)(r, c);
  }
  T at(std::size_t r, std::size_t c) const {
    APDS_CHECK_MSG(r < rows_ && c < cols_, "at(" << r << "," << c
                                                 << ") out of " << rows_ << "x"
                                                 << cols_);
    return (*this)(r, c);
  }

  T* data() { return data_.data(); }
  const T* data() const { return data_.data(); }

  /// Mutable view of row r.
  std::span<T> row(std::size_t r) { return {data_.data() + r * cols_, cols_}; }
  std::span<const T> row(std::size_t r) const {
    return {data_.data() + r * cols_, cols_};
  }

  /// Copy of row r as a 1 x cols matrix.
  MatrixT row_copy(std::size_t r) const {
    APDS_CHECK(r < rows_);
    return row_vector(row(r));
  }

  /// Flat view of all elements, row-major.
  std::span<T> flat() { return {data_.data(), data_.size()}; }
  std::span<const T> flat() const { return {data_.data(), data_.size()}; }

  /// Set every element to `value`.
  void fill(T value) { std::fill(data_.begin(), data_.end(), value); }

  /// Reshape to rows x cols, reusing the existing allocation when it is
  /// large enough (scratch-buffer reuse in hot loops). Element values are
  /// unspecified afterwards; callers must overwrite before reading.
  void resize(std::size_t rows, std::size_t cols) {
    rows_ = rows;
    cols_ = cols;
    data_.resize(rows * cols);
  }

  /// Transposed copy.
  MatrixT transposed() const {
    MatrixT t(cols_, rows_);
    for (std::size_t r = 0; r < rows_; ++r)
      for (std::size_t c = 0; c < cols_; ++c) t(c, r) = (*this)(r, c);
    return t;
  }

  /// Shape equality.
  bool same_shape(const MatrixT& other) const {
    return rows_ == other.rows_ && cols_ == other.cols_;
  }

  bool operator==(const MatrixT& other) const = default;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<T> data_;
};

/// The f64 matrix all pre-existing code is written against.
using Matrix = MatrixT<double>;
/// Single-precision storage for the packed-weight inference fast path.
using MatrixF = MatrixT<float>;

// The two library instantiations live in matrix.cpp.
extern template class MatrixT<double>;
extern template class MatrixT<float>;

/// Elementwise scalar-type conversion (value-rounding copy).
template <typename To, typename From>
MatrixT<To> matrix_cast(const MatrixT<From>& src) {
  std::vector<To> data(src.size());
  const From* s = src.data();
  for (std::size_t i = 0; i < data.size(); ++i)
    data[i] = static_cast<To>(s[i]);
  return MatrixT<To>::from_data(src.rows(), src.cols(), std::move(data));
}

/// f64 -> f32 (weight packing, fast-path inputs).
inline MatrixF to_f32(const Matrix& m) { return matrix_cast<float>(m); }
/// f32 -> f64 (fast-path outputs rejoining the double world).
inline Matrix to_f64(const MatrixF& m) { return matrix_cast<double>(m); }

}  // namespace apds
