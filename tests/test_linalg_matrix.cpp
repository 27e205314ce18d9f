/// \file test_linalg_matrix.cpp
/// \brief Unit tests for the dense matrix/vector substrate.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>

#include "common/error.hpp"
#include "linalg/matrix.hpp"

namespace {

using ehsim::ModelError;
using ehsim::linalg::Matrix;
using ehsim::linalg::Vector;

TEST(Vector, DefaultIsEmpty) {
  Vector v;
  EXPECT_EQ(v.size(), 0u);
  EXPECT_TRUE(v.empty());
}

TEST(Vector, ZeroInitialised) {
  Vector v(5);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(v[i], 0.0);
  }
}

TEST(Vector, FillValueConstructor) {
  Vector v(4, 2.5);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(v[i], 2.5);
  }
}

TEST(Vector, InitializerList) {
  Vector v{1.0, 2.0, 3.0};
  EXPECT_EQ(v.size(), 3u);
  EXPECT_EQ(v[0], 1.0);
  EXPECT_EQ(v[2], 3.0);
}

TEST(Vector, AxpyAccumulates) {
  Vector v{1.0, 2.0};
  const Vector w{10.0, 20.0};
  v.axpy(0.5, w);
  EXPECT_DOUBLE_EQ(v[0], 6.0);
  EXPECT_DOUBLE_EQ(v[1], 12.0);
}

TEST(Vector, Norms) {
  const Vector v{3.0, -4.0};
  EXPECT_DOUBLE_EQ(norm_inf(v), 4.0);
}

TEST(Vector, ResizeZeroFillsNewEntries) {
  Vector v{1.0};
  v.resize(3);
  EXPECT_DOUBLE_EQ(v[0], 1.0);
  EXPECT_DOUBLE_EQ(v[2], 0.0);
}

TEST(Matrix, ZeroInitialised) {
  Matrix a(2, 3);
  EXPECT_EQ(a.rows(), 2u);
  EXPECT_EQ(a.cols(), 3u);
  EXPECT_FALSE(a.is_square());
  for (std::size_t r = 0; r < 2; ++r) {
    for (std::size_t c = 0; c < 3; ++c) {
      EXPECT_EQ(a(r, c), 0.0);
    }
  }
}

TEST(Matrix, InitializerList) {
  const Matrix a{{1.0, 2.0}, {3.0, 4.0}};
  EXPECT_EQ(a(0, 1), 2.0);
  EXPECT_EQ(a(1, 0), 3.0);
  EXPECT_TRUE(a.is_square());
}

TEST(Matrix, RaggedInitializerThrows) {
  EXPECT_THROW(Matrix({{1.0, 2.0}, {3.0}}), ModelError);
}

TEST(Matrix, Identity) {
  const Matrix eye = Matrix::identity(3);
  for (std::size_t r = 0; r < 3; ++r) {
    for (std::size_t c = 0; c < 3; ++c) {
      EXPECT_EQ(eye(r, c), r == c ? 1.0 : 0.0);
    }
  }
}

TEST(Matrix, RowSpanIsContiguousView) {
  Matrix a{{1.0, 2.0}, {3.0, 4.0}};
  auto row = a.row(1);
  row[0] = 9.0;
  EXPECT_EQ(a(1, 0), 9.0);
}

TEST(Matrix, MatVec) {
  const Matrix a{{1.0, 2.0}, {3.0, 4.0}};
  const Vector x{1.0, 1.0};
  Vector y(2);
  a.matvec(x.span(), y.span());
  EXPECT_DOUBLE_EQ(y[0], 3.0);
  EXPECT_DOUBLE_EQ(y[1], 7.0);
}

TEST(Matrix, SparseRowsMultiplyAddSkipsZeros) {
  const Matrix a{{2.0, 0.0, -0.0}, {0.0, 0.0, 0.0}, {1.0, 0.0, 3.0}};
  ehsim::linalg::SparseRows rows;
  rows.assign(a);
  // The zero column meets an infinity: skipped, so no 0 * inf NaN.
  const Vector x{1.0, std::numeric_limits<double>::infinity(), 2.0};
  Vector out{10.0, -0.0, 10.0};
  rows.multiply_add(x.span(), out.span());
  EXPECT_EQ(out[0], 12.0);
  EXPECT_EQ(out[1], 0.0);
  EXPECT_FALSE(std::signbit(out[1]));  // -0 + (+0 sum of no entries) = +0, as densely
  EXPECT_EQ(out[2], 17.0);
}

TEST(Matrix, MatrixMultiply) {
  const Matrix a{{1.0, 2.0}, {3.0, 4.0}};
  const Matrix b{{0.0, 1.0}, {1.0, 0.0}};
  const Matrix ab = a * b;
  EXPECT_DOUBLE_EQ(ab(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(ab(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(ab(1, 0), 4.0);
  EXPECT_DOUBLE_EQ(ab(1, 1), 3.0);
}

TEST(Matrix, Subtract) {
  const Matrix a{{1.0, 2.0}, {3.0, 4.0}};
  const Matrix b{{1.0, 1.0}, {1.0, 1.0}};
  EXPECT_DOUBLE_EQ((a - b)(0, 0), 0.0);
  EXPECT_DOUBLE_EQ((a - b)(1, 1), 3.0);
}

TEST(Matrix, Norms) {
  const Matrix a{{1.0, -2.0}, {-3.0, 4.0}};
  EXPECT_DOUBLE_EQ(norm_max(a), 4.0);
}

TEST(Matrix, AddScaled) {
  Matrix a{{1.0, 0.0}, {0.0, 1.0}};
  const Matrix b{{1.0, 1.0}, {1.0, 1.0}};
  a.add_scaled(2.0, b);
  EXPECT_DOUBLE_EQ(a(0, 0), 3.0);
  EXPECT_DOUBLE_EQ(a(0, 1), 2.0);
}

TEST(Matrix, SetIdentityRequiresSquare) {
  Matrix a(2, 3);
  EXPECT_DEATH(a.set_identity(), "square");
}

TEST(Matrix, StreamOutputContainsEntries) {
  const Matrix a{{1.5, 2.0}};
  std::ostringstream os;
  os << a;
  EXPECT_NE(os.str().find("1.5"), std::string::npos);
}

TEST(Matrix, ResizeDiscardsAndZeroes) {
  Matrix a{{1.0, 2.0}, {3.0, 4.0}};
  a.resize(3, 1);
  EXPECT_EQ(a.rows(), 3u);
  EXPECT_EQ(a.cols(), 1u);
  EXPECT_EQ(a(2, 0), 0.0);
}

}  // namespace
