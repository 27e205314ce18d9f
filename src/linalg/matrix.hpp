/// \file matrix.hpp
/// \brief Small dense row-major matrix and vector types used across ehsim.
///
/// The linearised state-space technique of the paper works on small dense
/// systems (the complete harvester model is an 11x11 state matrix with a 4x4
/// algebraic block), so a cache-friendly row-major dense representation with
/// no expression templates is the right tool. All hot-path operations have
/// in-place variants that write into caller-provided storage so that the
/// simulation loop performs no allocation after elaboration.
#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <iosfwd>
#include <span>
#include <vector>

#include "common/assert.hpp"

namespace ehsim::linalg {

/// Dense column vector of doubles.
class Vector {
 public:
  Vector() = default;
  /// Zero-initialised vector of dimension \p n.
  explicit Vector(std::size_t n) : data_(n, 0.0) {}
  /// Vector of dimension \p n filled with \p value.
  Vector(std::size_t n, double value) : data_(n, value) {}
  Vector(std::initializer_list<double> init) : data_(init) {}

  [[nodiscard]] std::size_t size() const noexcept { return data_.size(); }
  [[nodiscard]] bool empty() const noexcept { return data_.empty(); }

  [[nodiscard]] double& operator[](std::size_t i) {
    EHSIM_ASSERT(i < data_.size(), "vector index out of range");
    return data_[i];
  }
  [[nodiscard]] double operator[](std::size_t i) const {
    EHSIM_ASSERT(i < data_.size(), "vector index out of range");
    return data_[i];
  }

  [[nodiscard]] double* data() noexcept { return data_.data(); }
  [[nodiscard]] const double* data() const noexcept { return data_.data(); }
  [[nodiscard]] std::span<double> span() noexcept { return {data_.data(), data_.size()}; }
  [[nodiscard]] std::span<const double> span() const noexcept {
    return {data_.data(), data_.size()};
  }

  auto begin() noexcept { return data_.begin(); }
  auto end() noexcept { return data_.end(); }
  [[nodiscard]] auto begin() const noexcept { return data_.begin(); }
  [[nodiscard]] auto end() const noexcept { return data_.end(); }

  /// Resize to \p n elements, zero-filling new entries.
  void resize(std::size_t n) { data_.resize(n, 0.0); }
  /// Set every element to \p value.
  void fill(double value);

  /// this += alpha * other (dimensions must match).
  void axpy(double alpha, const Vector& other);

  [[nodiscard]] bool operator==(const Vector& other) const = default;

 private:
  std::vector<double> data_;
};

/// Maximum absolute entry.
[[nodiscard]] double norm_inf(const Vector& v);

/// Dense row-major matrix of doubles.
class Matrix {
 public:
  Matrix() = default;
  /// Zero-initialised rows x cols matrix.
  Matrix(std::size_t rows, std::size_t cols) : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}
  /// Build from nested initializer list; all rows must have equal length.
  Matrix(std::initializer_list<std::initializer_list<double>> init);

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }
  [[nodiscard]] bool empty() const noexcept { return data_.empty(); }
  [[nodiscard]] bool is_square() const noexcept { return rows_ == cols_; }

  [[nodiscard]] double& operator()(std::size_t r, std::size_t c) {
    EHSIM_ASSERT(r < rows_ && c < cols_, "matrix index out of range");
    return data_[r * cols_ + c];
  }
  [[nodiscard]] double operator()(std::size_t r, std::size_t c) const {
    EHSIM_ASSERT(r < rows_ && c < cols_, "matrix index out of range");
    return data_[r * cols_ + c];
  }

  /// Contiguous view of row \p r.
  [[nodiscard]] std::span<double> row(std::size_t r) {
    EHSIM_ASSERT(r < rows_, "row index out of range");
    return {data_.data() + r * cols_, cols_};
  }
  [[nodiscard]] std::span<const double> row(std::size_t r) const {
    EHSIM_ASSERT(r < rows_, "row index out of range");
    return {data_.data() + r * cols_, cols_};
  }

  [[nodiscard]] double* data() noexcept { return data_.data(); }
  [[nodiscard]] const double* data() const noexcept { return data_.data(); }

  /// Reshape to rows x cols, zero-filling; existing contents are discarded.
  void resize(std::size_t rows, std::size_t cols);
  /// Set every element to \p value.
  void fill(double value);
  /// Set to the identity; must be square.
  void set_identity();

  /// this += alpha * other (dimensions must match).
  void add_scaled(double alpha, const Matrix& other);

  /// out = this * x. \p out may not alias \p x. Dimensions checked.
  void matvec(std::span<const double> x, std::span<double> out) const;

  [[nodiscard]] bool operator==(const Matrix& other) const = default;

  /// n x n identity.
  [[nodiscard]] static Matrix identity(std::size_t n);

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// The non-zero entries of a Matrix, row by row, for products that skip its
/// zeros (the Eq. 4 elimination's Jxy dy).
class SparseRows {
 public:
  /// Record the non-zero entries of \p a, reusing this object's storage.
  void assign(const Matrix& a);

  /// out[r] += sum of a(r, c) * x[c] over the recorded entries, each row's
  /// sum formed from 0 in ascending column order. For finite \p x this is
  /// bit for bit the same row by row sum over every entry: a sum that starts
  /// at +0 never becomes -0, and adding a zero product to it changes
  /// nothing. \p out may not alias \p x.
  void multiply_add(std::span<const double> x, std::span<double> out) const;

 private:
  struct Entry {
    std::uint32_t col;
    double value;
  };
  std::size_t cols_ = 0;
  std::vector<std::uint32_t> row_end_;  // one past each row's last entry
  std::vector<Entry> entries_;
};

[[nodiscard]] Matrix operator-(const Matrix& a, const Matrix& b);
[[nodiscard]] Matrix operator*(const Matrix& a, const Matrix& b);

/// Maximum absolute entry.
[[nodiscard]] double norm_max(const Matrix& a);

/// Human-readable printing, mainly for diagnostics and tests.
std::ostream& operator<<(std::ostream& os, const Matrix& a);

}  // namespace ehsim::linalg
