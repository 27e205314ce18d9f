/// \file test_linalg_lu.cpp
/// \brief Unit + property tests for the LU factorisation.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <vector>

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

/// solve_nonzeros equals the dense solve bit for bit on random matrices with
/// structural zeros (+0 and -0) that need row pivoting, for right-hand sides
/// with +0, -0 and non-finite entries.
TEST(LuNonzeros, MatchDenseSolveBitForBit) {
  std::mt19937_64 rng(99);
  std::uniform_real_distribution<double> unit(-1.0, 1.0);
  std::uniform_real_distribution<double> decade(-3.0, 3.0);
  std::bernoulli_distribution coin(0.5);
  std::uniform_int_distribution<int> kind(0, 9);
  auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  std::size_t solved = 0;
  std::size_t zero_results = 0;
  for (int trial = 0; trial < 4000; ++trial) {
    const std::size_t n = 1 + static_cast<std::size_t>(trial % 8);
    Matrix a(n, n);
    for (std::size_t r = 0; r < n; ++r) {
      for (std::size_t c = 0; c < n; ++c) {
        a(r, c) = coin(rng) ? (coin(rng) ? 0.0 : -0.0) : unit(rng) * std::pow(10.0, decade(rng));
      }
    }
    LuFactorization lu;
    if (!lu.factor(a)) {
      continue;
    }
    lu.record_nonzeros();
    for (int rhs = 0; rhs < 4; ++rhs) {
      std::vector<double> b(n);
      for (double& v : b) {
        switch (kind(rng)) {
          case 0: case 1: case 2: v = 0.0; break;
          case 3: case 4: case 5: v = -0.0; break;
          case 6: v = trial % 50 == 0 ? std::numeric_limits<double>::infinity() : unit(rng); break;
          default: v = unit(rng); break;
        }
      }
      std::vector<double> dense(n), nonzeros(n);
      lu.solve(b, dense);
      lu.solve_nonzeros(b, nonzeros);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(bits(dense[i]), bits(nonzeros[i]))
            << "trial " << trial << " rhs " << rhs << " entry " << i;
        zero_results += dense[i] == 0.0 ? 1 : 0;
      }
      ++solved;
    }
  }
  EXPECT_GT(solved, 8000u);
  EXPECT_GT(zero_results, 1000u);
}

/// The case the dense fallback exists for: skipping L's -0 entry would leave
/// -0 where the dense forward substitution forms -0 - (-0) = +0.
TEST(LuNonzeros, KeepsTheSignOfAZeroResult) {
  const Matrix a{{-1.0, 0.0}, {0.0, 1.0}};
  LuFactorization lu(a);
  lu.record_nonzeros();
  const std::vector<double> b{1.0, -0.0};
  std::vector<double> dense(2), nonzeros(2);
  lu.solve(b, dense);
  lu.solve_nonzeros(b, nonzeros);
  ASSERT_EQ(dense[1], 0.0);
  EXPECT_FALSE(std::signbit(dense[1]));
  EXPECT_FALSE(std::signbit(nonzeros[1]));
  EXPECT_EQ(dense[0], nonzeros[0]);
}

}  // namespace
