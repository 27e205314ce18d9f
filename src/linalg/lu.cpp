#include "linalg/lu.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

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
  nonzeros_recorded_ = false;

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

void LuFactorization::record_nonzeros() {
  EHSIM_ASSERT(ok_, "record_nonzeros on a singular/unfactored LU");
  index_.reserve(3 * n_);
  index_.resize(n_);
  for (std::size_t i = 0; i < n_; ++i) {
    index_[i] = static_cast<std::uint32_t>(i);
  }
  for (std::size_t i = 0; i < n_; ++i) {
    std::swap(index_[i], index_[pivot_[i]]);
  }
  nonzeros_.clear();
  nonzeros_.reserve(n_ * n_);
  auto keep = [&](std::size_t r, std::size_t c) {
    const double value = lu_[r * n_ + c];
    if (value != 0.0) {
      nonzeros_.push_back({static_cast<std::uint32_t>(c), value});
    }
  };
  for (std::size_t r = 0; r < n_; ++r) {
    for (std::size_t c = 0; c < r; ++c) {
      keep(r, c);
    }
    index_.push_back(static_cast<std::uint32_t>(nonzeros_.size()));
  }
  for (std::size_t ri = n_; ri-- > 0;) {
    for (std::size_t c = ri + 1; c < n_; ++c) {
      keep(ri, c);
    }
    index_.push_back(static_cast<std::uint32_t>(nonzeros_.size()));
  }
  nonzeros_recorded_ = true;
}

void LuFactorization::solve_nonzeros(std::span<const double> b, std::span<double> x) const {
  EHSIM_ASSERT(nonzeros_recorded_, "solve_nonzeros without record_nonzeros after factor");
  EHSIM_ASSERT(b.size() == n_ && x.size() == n_, "LU solve dimension mismatch");
  EHSIM_ASSERT(b.data() != x.data(), "solve_nonzeros aliasing not allowed");
  // The same operations as solve_inplace(), in the same order, minus the
  // terms whose factor entry is zero.
  const std::uint32_t* row_of = index_.data();
  const std::uint32_t* end = index_.data() + n_;
  for (std::size_t i = 0; i < n_; ++i) {
    x[i] = b[row_of[i]];
  }
  std::size_t k = 0;
  for (std::size_t r = 0; r < n_; ++r) {
    double acc = x[r];
    for (; k < end[r]; ++k) {
      acc -= nonzeros_[k].value * x[nonzeros_[k].col];
    }
    x[r] = acc;
  }
  for (std::size_t ri = n_; ri-- > 0;) {
    double acc = x[ri];
    for (; k < end[2 * n_ - 1 - ri]; ++k) {
      acc -= nonzeros_[k].value * x[nonzeros_[k].col];
    }
    x[ri] = acc / lu_[ri * n_ + ri];
  }
  // A result that is neither zero nor non-finite is exact (see the header).
  for (std::size_t i = 0; i < n_; ++i) {
    const double magnitude = std::abs(x[i]);
    if (!(magnitude > 0.0 && magnitude <= std::numeric_limits<double>::max())) {
      solve(b, x);
      return;
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
