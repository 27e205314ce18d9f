/// \file test_linalg_eigen.cpp
/// \brief Tests for the QR eigensolver and polynomial root finder.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <numbers>
#include <random>

#include "linalg/eigen.hpp"

namespace {

using ehsim::linalg::eigenvalues;
using ehsim::linalg::Matrix;
using ehsim::linalg::polynomial_roots;
using ehsim::linalg::spectral_abscissa;

/// Sort eigenvalues by (real, imag) for comparison.
std::vector<std::complex<double>> sorted(std::vector<std::complex<double>> v) {
  std::sort(v.begin(), v.end(), [](const auto& a, const auto& b) {
    if (a.real() != b.real()) {
      return a.real() < b.real();
    }
    return a.imag() < b.imag();
  });
  return v;
}

TEST(Eigen, DiagonalMatrix) {
  const Matrix a{{3.0, 0.0, 0.0}, {0.0, -1.0, 0.0}, {0.0, 0.0, 7.0}};
  const auto eig = sorted(eigenvalues(a));
  ASSERT_EQ(eig.size(), 3u);
  EXPECT_NEAR(eig[0].real(), -1.0, 1e-10);
  EXPECT_NEAR(eig[1].real(), 3.0, 1e-10);
  EXPECT_NEAR(eig[2].real(), 7.0, 1e-10);
  for (const auto& l : eig) {
    EXPECT_NEAR(l.imag(), 0.0, 1e-10);
  }
}

TEST(Eigen, UpperTriangularEigenvaluesAreDiagonal) {
  const Matrix a{{1.0, 5.0, -3.0}, {0.0, 2.0, 8.0}, {0.0, 0.0, 4.0}};
  const auto eig = sorted(eigenvalues(a));
  EXPECT_NEAR(eig[0].real(), 1.0, 1e-9);
  EXPECT_NEAR(eig[1].real(), 2.0, 1e-9);
  EXPECT_NEAR(eig[2].real(), 4.0, 1e-9);
}

TEST(Eigen, SymmetricKnownSpectrum) {
  const Matrix a{{2.0, 1.0}, {1.0, 2.0}};  // eigenvalues 1, 3
  const auto eig = sorted(eigenvalues(a));
  EXPECT_NEAR(eig[0].real(), 1.0, 1e-10);
  EXPECT_NEAR(eig[1].real(), 3.0, 1e-10);
}

TEST(Eigen, RotationGivesComplexPair) {
  const Matrix a{{0.0, -1.0}, {1.0, 0.0}};  // eigenvalues +-i
  const auto eig = sorted(eigenvalues(a));
  ASSERT_EQ(eig.size(), 2u);
  EXPECT_NEAR(eig[0].real(), 0.0, 1e-10);
  EXPECT_NEAR(std::abs(eig[0].imag()), 1.0, 1e-10);
  EXPECT_NEAR(eig[0].imag(), -eig[1].imag(), 1e-12);
}

TEST(Eigen, DampedOscillatorCompanionForm) {
  // x'' + 2 zeta w x' + w^2 x = 0, w = 440, zeta = 0.01: lambda =
  // -zeta w +- i w sqrt(1 - zeta^2). This is the harvester's mechanical mode.
  const double w = 440.0;
  const double zeta = 0.01;
  const Matrix a{{0.0, 1.0}, {-w * w, -2.0 * zeta * w}};
  const auto eig = eigenvalues(a);
  ASSERT_EQ(eig.size(), 2u);
  for (const auto& l : eig) {
    EXPECT_NEAR(l.real(), -zeta * w, 1e-6 * w);
    EXPECT_NEAR(std::abs(l.imag()), w * std::sqrt(1.0 - zeta * zeta), 1e-6 * w);
  }
}

TEST(Eigen, SingularMatrixHasZeroEigenvalue) {
  const Matrix a{{1.0, 2.0}, {2.0, 4.0}};  // rank 1: eigenvalues 0, 5
  const auto eig = sorted(eigenvalues(a));
  EXPECT_NEAR(eig[0].real(), 0.0, 1e-10);
  EXPECT_NEAR(eig[1].real(), 5.0, 1e-10);
}

TEST(Eigen, SpectralAbscissaOfStableSystem) {
  const Matrix a{{-1.0, 100.0}, {0.0, -2.0}};
  EXPECT_NEAR(spectral_abscissa(a), -1.0, 1e-9);
}

TEST(Eigen, OneByOne) {
  Matrix a(1, 1);
  a(0, 0) = -42.0;
  const auto eig = eigenvalues(a);
  ASSERT_EQ(eig.size(), 1u);
  EXPECT_DOUBLE_EQ(eig[0].real(), -42.0);
}

TEST(Eigen, WideMagnitudeSpread) {
  // Time constants spanning six orders of magnitude, as in the harvester's
  // eliminated system (balancing must keep the small ones accurate).
  Matrix a(4, 4);
  a(0, 0) = -1e-2;
  a(1, 1) = -1.0;
  a(2, 2) = -1e2;
  a(3, 3) = -1e4;
  a(0, 1) = 5.0;
  a(1, 2) = -3.0;
  a(2, 3) = 70.0;
  const auto eig = sorted(eigenvalues(a));
  EXPECT_NEAR(eig[0].real(), -1e4, 1e-4);
  EXPECT_NEAR(eig[1].real(), -1e2, 1e-7);
  EXPECT_NEAR(eig[2].real(), -1.0, 1e-9);
  EXPECT_NEAR(eig[3].real(), -1e-2, 1e-9);
}

/// Property: trace equals eigenvalue sum, for random matrices of many sizes.
class EigenTrace : public ::testing::TestWithParam<std::size_t> {};

TEST_P(EigenTrace, TraceMatchesEigenvalueSum) {
  const std::size_t n = GetParam();
  std::mt19937 rng(99u + static_cast<unsigned>(n));
  std::uniform_real_distribution<double> dist(-2.0, 2.0);
  Matrix a(n, n);
  double trace = 0.0;
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) {
      a(r, c) = dist(rng);
    }
    trace += a(r, r);
  }
  const auto eig = eigenvalues(a);
  ASSERT_EQ(eig.size(), n);
  std::complex<double> sum{0.0, 0.0};
  for (const auto& l : eig) {
    sum += l;
  }
  EXPECT_NEAR(sum.real(), trace, 1e-8 * std::max(1.0, std::abs(trace)));
  EXPECT_NEAR(sum.imag(), 0.0, 1e-8);
}

INSTANTIATE_TEST_SUITE_P(Sizes, EigenTrace, ::testing::Values(2, 3, 4, 5, 6, 8, 11, 13, 16));

TEST(PolynomialRoots, Quadratic) {
  // z^2 - 3z + 2 = (z-1)(z-2)
  const auto roots = polynomial_roots({{2.0, 0.0}, {-3.0, 0.0}});
  ASSERT_EQ(roots.size(), 2u);
  double r1 = std::min(roots[0].real(), roots[1].real());
  double r2 = std::max(roots[0].real(), roots[1].real());
  EXPECT_NEAR(r1, 1.0, 1e-10);
  EXPECT_NEAR(r2, 2.0, 1e-10);
}

TEST(PolynomialRoots, ComplexPair) {
  // z^2 + 1 = 0
  const auto roots = polynomial_roots({{1.0, 0.0}, {0.0, 0.0}});
  ASSERT_EQ(roots.size(), 2u);
  for (const auto& r : roots) {
    EXPECT_NEAR(std::abs(r), 1.0, 1e-10);
    EXPECT_NEAR(r.real(), 0.0, 1e-10);
  }
}

TEST(PolynomialRoots, QuarticRootsOnUnitCircle) {
  // z^4 - 1 = 0: roots are the 4th roots of unity.
  const auto roots = polynomial_roots({{-1.0, 0.0}, {0.0, 0.0}, {0.0, 0.0}, {0.0, 0.0}});
  ASSERT_EQ(roots.size(), 4u);
  for (const auto& r : roots) {
    EXPECT_NEAR(std::abs(r), 1.0, 1e-9);
  }
}

TEST(PolynomialRoots, LinearAndEmpty) {
  const auto lin = polynomial_roots({{5.0, 0.0}});
  ASSERT_EQ(lin.size(), 1u);
  EXPECT_NEAR(lin[0].real(), -5.0, 1e-14);
  EXPECT_TRUE(polynomial_roots({}).empty());
}

}  // namespace
