/// \file test_linalg_spectral.cpp
/// \brief Tests for the diagonal-dominance step rule and power iteration.
#include <gtest/gtest.h>

#include <cmath>

#include "linalg/spectral.hpp"

namespace {

using ehsim::linalg::Matrix;
using ehsim::linalg::max_stable_step_by_dominance;
using ehsim::linalg::power_iteration_spectral_radius;

TEST(MaxStableStep, MatchesAnalyticFor1x1) {
  // dx/dt = -a x: FE stable iff h < 2/a; the dominance rule returns exactly
  // 2/(|a|+0).
  Matrix a(1, 1);
  a(0, 0) = -100.0;
  const auto h = max_stable_step_by_dominance(a);
  ASSERT_TRUE(h.has_value());
  EXPECT_DOUBLE_EQ(*h, 0.02);
}

TEST(MaxStableStep, SymmetricCouplingReducesStep) {
  const Matrix a{{-2.0, 1.0}, {1.0, -2.0}};
  const auto h = max_stable_step_by_dominance(a);
  ASSERT_TRUE(h.has_value());
  EXPECT_DOUBLE_EQ(*h, 2.0 / 3.0);
}

TEST(MaxStableStep, PositiveDiagonalRejected) {
  const Matrix a{{1.0, 0.0}, {0.0, -1.0}};
  EXPECT_FALSE(max_stable_step_by_dominance(a).has_value());
}

TEST(MaxStableStep, NonDominantRowRejected) {
  // Oscillator-style row with zero diagonal cannot be stabilised through
  // the Gershgorin argument (the paper's fallback case).
  const Matrix a{{0.0, 1.0}, {-1.0, 0.0}};
  EXPECT_FALSE(max_stable_step_by_dominance(a).has_value());
}

TEST(MaxStableStep, NanRowRejected) {
  const Matrix a{{std::nan(""), 0.0}, {0.0, -1.0}};
  EXPECT_FALSE(max_stable_step_by_dominance(a).has_value());
  const Matrix b{{-1.0, std::nan("")}, {0.0, -1.0}};
  EXPECT_FALSE(max_stable_step_by_dominance(b).has_value());
}

TEST(MaxStableStep, ZeroRowsImposeNoConstraint) {
  Matrix a(3, 3);
  a(1, 1) = -4.0;
  const auto h = max_stable_step_by_dominance(a);
  ASSERT_TRUE(h.has_value());
  EXPECT_DOUBLE_EQ(*h, 0.5);
}

TEST(PowerIteration, DominantRealEigenvalue) {
  const Matrix a{{3.0, 0.0}, {0.0, 1.0}};
  const auto est = power_iteration_spectral_radius(a);
  EXPECT_TRUE(est.converged);
  EXPECT_NEAR(est.radius, 3.0, 1e-4);
}

TEST(PowerIteration, ComplexPairViaTwoStepGrowth) {
  // Rotation scaled by 2: eigenvalues 2e^{+-i pi/2}, radius 2.
  const Matrix a{{0.0, -2.0}, {2.0, 0.0}};
  const auto est = power_iteration_spectral_radius(a);
  EXPECT_NEAR(est.radius, 2.0, 1e-3);
}

TEST(PowerIteration, ZeroMatrix) {
  const Matrix a(3, 3);
  const auto est = power_iteration_spectral_radius(a);
  EXPECT_NEAR(est.radius, 0.0, 1e-12);
}

TEST(PowerIteration, EmptyMatrixConverges) {
  const Matrix a(0, 0);
  const auto est = power_iteration_spectral_radius(a);
  EXPECT_TRUE(est.converged);
  EXPECT_EQ(est.radius, 0.0);
}

}  // namespace
