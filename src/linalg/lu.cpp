#include "linalg/lu.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace ehsim::linalg {

namespace {
// Pivots smaller than this (relative to the largest entry of the column) are
// treated as numerical breakdown.
constexpr double kBreakdownThreshold = 1e-300;
}  // namespace

bool LuFactorization::factor(const Matrix& a) {
  EHSIM_ASSERT(a.is_square(), "LU requires a square matrix");
  n_ = a.rows();
  lu_.assign(a.data(), a.data() + n_ * n_);
  pivot_.resize(n_);
  ok_ = true;

  for (std::size_t col = 0; col < n_; ++col) {
    // Partial pivoting: find the largest entry in this column at/below diag.
    std::size_t pivot_row = col;
    double pivot_mag = std::abs(lu_[col * n_ + col]);
    for (std::size_t r = col + 1; r < n_; ++r) {
      const double mag = std::abs(lu_[r * n_ + col]);
      if (mag > pivot_mag) {
        pivot_mag = mag;
        pivot_row = r;
      }
    }
    pivot_[col] = pivot_row;
    if (pivot_mag < kBreakdownThreshold) {
      ok_ = false;
      return false;
    }
    if (pivot_row != col) {
      for (std::size_t c = 0; c < n_; ++c) {
        std::swap(lu_[col * n_ + c], lu_[pivot_row * n_ + c]);
      }
    }
    const double inv_pivot = 1.0 / lu_[col * n_ + col];
    for (std::size_t r = col + 1; r < n_; ++r) {
      const double factor = lu_[r * n_ + col] * inv_pivot;
      lu_[r * n_ + col] = factor;
      if (factor == 0.0) {
        continue;
      }
      const double* src = lu_.data() + col * n_;
      double* dst = lu_.data() + r * n_;
      for (std::size_t c = col + 1; c < n_; ++c) {
        dst[c] -= factor * src[c];
      }
    }
  }
  return true;
}

void LuFactorization::solve_inplace(std::span<double> b) const {
  EHSIM_ASSERT(ok_, "solve on a singular/unfactored LU");
  EHSIM_ASSERT(b.size() == n_, "LU solve dimension mismatch");
  // Apply the row permutation.
  for (std::size_t i = 0; i < n_; ++i) {
    if (pivot_[i] != i) {
      std::swap(b[i], b[pivot_[i]]);
    }
  }
  // Forward substitution with unit-diagonal L.
  for (std::size_t r = 1; r < n_; ++r) {
    const double* row = lu_.data() + r * n_;
    double acc = b[r];
    for (std::size_t c = 0; c < r; ++c) {
      acc -= row[c] * b[c];
    }
    b[r] = acc;
  }
  // Back substitution with U.
  for (std::size_t ri = n_; ri-- > 0;) {
    const double* row = lu_.data() + ri * n_;
    double acc = b[ri];
    for (std::size_t c = ri + 1; c < n_; ++c) {
      acc -= row[c] * b[c];
    }
    b[ri] = acc / row[ri];
  }
}

void LuFactorization::solve(std::span<const double> b, std::span<double> x) const {
  EHSIM_ASSERT(b.size() == x.size(), "LU solve dimension mismatch");
  std::copy(b.begin(), b.end(), x.begin());
  solve_inplace(x);
}

void LuFactorization::solve_matrix(const Matrix& b, Matrix& x) const {
  EHSIM_ASSERT(b.rows() == n_, "LU solve_matrix dimension mismatch");
  x.resize(b.rows(), b.cols());
  std::vector<double> col(n_);
  for (std::size_t c = 0; c < b.cols(); ++c) {
    for (std::size_t r = 0; r < n_; ++r) {
      col[r] = b(r, c);
    }
    solve_inplace(col);
    for (std::size_t r = 0; r < n_; ++r) {
      x(r, c) = col[r];
    }
  }
}

Matrix inverse(const Matrix& a) {
  LuFactorization lu;
  if (!lu.factor(a)) {
    throw SolverError("inverse: matrix is singular to working precision");
  }
  Matrix inv;
  lu.solve_matrix(Matrix::identity(a.rows()), inv);
  return inv;
}

}  // namespace ehsim::linalg
