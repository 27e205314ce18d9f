/// \file test_linalg_lu.cpp
/// \brief Unit + property tests for the LU factorisation.
#include <gtest/gtest.h>

#include <random>

#include "linalg/lu.hpp"

namespace {

using ehsim::linalg::inverse;
using ehsim::linalg::LuFactorization;
using ehsim::linalg::Matrix;
using ehsim::linalg::Vector;

// Solves A x = b the way the engine does: factor once, then solve in place.
Vector solve(const Matrix& a, Vector b) {
  const LuFactorization lu(a);
  EXPECT_TRUE(lu.ok());
  lu.solve_inplace(b.span());
  return b;
}

TEST(Lu, Solves2x2) {
  const Matrix a{{2.0, 1.0}, {1.0, 3.0}};
  const Vector b{5.0, 10.0};
  const Vector x = solve(a, b);
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(Lu, SolvesIdentity) {
  const Matrix eye = Matrix::identity(4);
  const Vector b{1.0, 2.0, 3.0, 4.0};
  const Vector x = solve(eye, b);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(x[i], b[i]);
  }
}

TEST(Lu, PivotingHandlesZeroLeadingDiagonal) {
  const Matrix a{{0.0, 1.0}, {1.0, 0.0}};
  const Vector b{2.0, 3.0};
  const Vector x = solve(a, b);
  EXPECT_NEAR(x[0], 3.0, 1e-14);
  EXPECT_NEAR(x[1], 2.0, 1e-14);
}

TEST(Lu, SingularMatrixReportsFailure) {
  const Matrix a{{1.0, 2.0}, {2.0, 4.0}};
  LuFactorization lu;
  EXPECT_FALSE(lu.factor(a));
  EXPECT_FALSE(lu.ok());
}

TEST(Lu, SolveMatrixSolvesColumns) {
  const Matrix a{{2.0, 0.0}, {0.0, 4.0}};
  const Matrix b{{2.0, 4.0}, {8.0, 12.0}};
  LuFactorization lu(a);
  Matrix x;
  lu.solve_matrix(b, x);
  EXPECT_NEAR(x(0, 0), 1.0, 1e-14);
  EXPECT_NEAR(x(0, 1), 2.0, 1e-14);
  EXPECT_NEAR(x(1, 0), 2.0, 1e-14);
  EXPECT_NEAR(x(1, 1), 3.0, 1e-14);
}

TEST(Lu, InverseTimesOriginalIsIdentity) {
  const Matrix a{{3.0, 1.0, 0.0}, {1.0, 3.0, 1.0}, {0.0, 1.0, 3.0}};
  const Matrix prod = a * inverse(a);
  for (std::size_t r = 0; r < 3; ++r) {
    for (std::size_t c = 0; c < 3; ++c) {
      EXPECT_NEAR(prod(r, c), r == c ? 1.0 : 0.0, 1e-12);
    }
  }
}

/// Property: random diagonally-dominant systems solve to tight residuals.
class LuRandomSolve : public ::testing::TestWithParam<std::size_t> {};

TEST_P(LuRandomSolve, ResidualIsSmall) {
  const std::size_t n = GetParam();
  std::mt19937 rng(1234u + static_cast<unsigned>(n));
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  Matrix a(n, n);
  for (std::size_t r = 0; r < n; ++r) {
    double row_sum = 0.0;
    for (std::size_t c = 0; c < n; ++c) {
      a(r, c) = dist(rng);
      row_sum += std::abs(a(r, c));
    }
    a(r, r) += row_sum + 1.0;  // force dominance -> well-conditioned
  }
  Vector b(n);
  for (std::size_t i = 0; i < n; ++i) {
    b[i] = dist(rng);
  }
  const Vector x = solve(a, b);
  Vector res(n);
  a.matvec(x.span(), res.span());
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(res[i], b[i], 1e-10) << "n=" << n << " row " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, LuRandomSolve,
                         ::testing::Values(1, 2, 3, 4, 5, 8, 11, 16, 32));

}  // namespace
