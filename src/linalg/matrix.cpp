#include "linalg/matrix.hpp"

#include <algorithm>
#include <cmath>
#include <ostream>

#include "common/error.hpp"

namespace ehsim::linalg {

void Vector::fill(double value) { std::fill(data_.begin(), data_.end(), value); }

void Vector::axpy(double alpha, const Vector& other) {
  EHSIM_ASSERT(size() == other.size(), "axpy dimension mismatch");
  for (std::size_t i = 0; i < data_.size(); ++i) {
    data_[i] += alpha * other.data_[i];
  }
}

double norm_inf(const Vector& v) {
  double acc = 0.0;
  for (std::size_t i = 0; i < v.size(); ++i) {
    acc = std::max(acc, std::abs(v[i]));
  }
  return acc;
}

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> init) {
  rows_ = init.size();
  cols_ = rows_ == 0 ? 0 : init.begin()->size();
  data_.reserve(rows_ * cols_);
  for (const auto& row_init : init) {
    if (row_init.size() != cols_) {
      throw ModelError("Matrix initializer rows have unequal lengths");
    }
    data_.insert(data_.end(), row_init.begin(), row_init.end());
  }
}

void Matrix::resize(std::size_t rows, std::size_t cols) {
  rows_ = rows;
  cols_ = cols;
  data_.assign(rows * cols, 0.0);
}

void Matrix::fill(double value) { std::fill(data_.begin(), data_.end(), value); }

void Matrix::set_identity() {
  EHSIM_ASSERT(is_square(), "set_identity requires a square matrix");
  fill(0.0);
  for (std::size_t i = 0; i < rows_; ++i) {
    data_[i * cols_ + i] = 1.0;
  }
}

void Matrix::add_scaled(double alpha, const Matrix& other) {
  EHSIM_ASSERT(rows_ == other.rows_ && cols_ == other.cols_, "add_scaled dimension mismatch");
  for (std::size_t i = 0; i < data_.size(); ++i) {
    data_[i] += alpha * other.data_[i];
  }
}

void Matrix::matvec(std::span<const double> x, std::span<double> out) const {
  EHSIM_ASSERT(x.size() == cols_ && out.size() == rows_, "matvec dimension mismatch");
  EHSIM_ASSERT(x.data() != out.data(), "matvec aliasing not allowed");
  for (std::size_t r = 0; r < rows_; ++r) {
    const double* row_ptr = data_.data() + r * cols_;
    double acc = 0.0;
    for (std::size_t c = 0; c < cols_; ++c) {
      acc += row_ptr[c] * x[c];
    }
    out[r] = acc;
  }
}

void SparseRows::assign(const Matrix& a) {
  cols_ = a.cols();
  row_end_.clear();
  row_end_.reserve(a.rows());
  entries_.clear();
  entries_.reserve(a.rows() * cols_);
  for (std::size_t r = 0; r < a.rows(); ++r) {
    for (std::size_t c = 0; c < cols_; ++c) {
      if (a(r, c) != 0.0) {
        entries_.push_back({static_cast<std::uint32_t>(c), a(r, c)});
      }
    }
    row_end_.push_back(static_cast<std::uint32_t>(entries_.size()));
  }
}

void SparseRows::multiply_add(std::span<const double> x, std::span<double> out) const {
  EHSIM_ASSERT(x.size() == cols_ && out.size() == row_end_.size(),
               "multiply_add dimension mismatch");
  EHSIM_ASSERT(x.data() != out.data(), "multiply_add aliasing not allowed");
  std::size_t k = 0;
  for (std::size_t r = 0; r < out.size(); ++r) {
    double acc = 0.0;
    for (; k < row_end_[r]; ++k) {
      acc += entries_[k].value * x[entries_[k].col];
    }
    out[r] += acc;
  }
}

Matrix Matrix::identity(std::size_t n) {
  Matrix out(n, n);
  out.set_identity();
  return out;
}

Matrix operator-(const Matrix& a, const Matrix& b) {
  EHSIM_ASSERT(a.rows() == b.rows() && a.cols() == b.cols(), "matrix sub dimension mismatch");
  Matrix out = a;
  out.add_scaled(-1.0, b);
  return out;
}

Matrix operator*(const Matrix& a, const Matrix& b) {
  EHSIM_ASSERT(a.cols() == b.rows(), "matrix multiply dimension mismatch");
  Matrix out(a.rows(), b.cols());
  for (std::size_t r = 0; r < a.rows(); ++r) {
    for (std::size_t k = 0; k < a.cols(); ++k) {
      const double aik = a(r, k);
      if (aik == 0.0) {
        continue;
      }
      for (std::size_t c = 0; c < b.cols(); ++c) {
        out(r, c) += aik * b(k, c);
      }
    }
  }
  return out;
}

double norm_max(const Matrix& a) {
  double acc = 0.0;
  for (std::size_t r = 0; r < a.rows(); ++r) {
    for (double v : a.row(r)) {
      acc = std::max(acc, std::abs(v));
    }
  }
  return acc;
}

std::ostream& operator<<(std::ostream& os, const Matrix& a) {
  for (std::size_t r = 0; r < a.rows(); ++r) {
    os << (r == 0 ? "[" : " ");
    for (std::size_t c = 0; c < a.cols(); ++c) {
      os << a(r, c) << (c + 1 < a.cols() ? ", " : "");
    }
    os << (r + 1 < a.rows() ? ";\n" : "]");
  }
  return os;
}

}  // namespace ehsim::linalg
