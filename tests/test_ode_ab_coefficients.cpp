/// \file test_ode_ab_coefficients.cpp
/// \brief Variable-step Adams-Bashforth coefficient tests (paper Eq. 5).
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <random>
#include <span>

#include "common/error.hpp"
#include "ode/ab_coefficients.hpp"

namespace {

using ehsim::ModelError;
using ehsim::ode::AbCoefficients;
using ehsim::ode::compute_ab_coefficients;
using ehsim::ode::constant_step_ab_coefficients;

TEST(AbCoefficients, Order1IsForwardEuler) {
  const std::array<double, 1> past{0.0};
  const auto c = compute_ab_coefficients(past, 0.1);
  EXPECT_EQ(c.order, 1u);
  EXPECT_NEAR(c.beta[0], 0.1, 1e-15);
}

TEST(AbCoefficients, ConstantStepOrder2MatchesClassic) {
  const double h = 0.05;
  const std::array<double, 2> past{0.0, -h};
  const auto c = compute_ab_coefficients(past, h);
  EXPECT_NEAR(c.beta[0], 1.5 * h, 1e-14);
  EXPECT_NEAR(c.beta[1], -0.5 * h, 1e-14);
}

TEST(AbCoefficients, ConstantStepOrder3MatchesClassic) {
  const double h = 0.01;
  const std::array<double, 3> past{0.0, -h, -2.0 * h};
  const auto c = compute_ab_coefficients(past, h);
  EXPECT_NEAR(c.beta[0], 23.0 / 12.0 * h, 1e-14);
  EXPECT_NEAR(c.beta[1], -16.0 / 12.0 * h, 1e-14);
  EXPECT_NEAR(c.beta[2], 5.0 / 12.0 * h, 1e-14);
}

TEST(AbCoefficients, ConstantStepOrder4MatchesClassic) {
  const double h = 0.2;
  const std::array<double, 4> past{0.0, -h, -2.0 * h, -3.0 * h};
  const auto c = compute_ab_coefficients(past, h);
  EXPECT_NEAR(c.beta[0], 55.0 / 24.0 * h, 1e-12);
  EXPECT_NEAR(c.beta[1], -59.0 / 24.0 * h, 1e-12);
  EXPECT_NEAR(c.beta[2], 37.0 / 24.0 * h, 1e-12);
  EXPECT_NEAR(c.beta[3], -9.0 / 24.0 * h, 1e-12);
}

TEST(AbCoefficients, ConstantStepHelperAgreesWithGeneral) {
  for (std::size_t order = 1; order <= 4; ++order) {
    const double h = 0.037;
    std::array<double, 4> past{};
    for (std::size_t i = 0; i < order; ++i) {
      past[i] = -static_cast<double>(i) * h;
    }
    const auto general =
        compute_ab_coefficients(std::span<const double>(past.data(), order), h);
    const auto direct = constant_step_ab_coefficients(order, h);
    for (std::size_t i = 0; i < order; ++i) {
      EXPECT_NEAR(general.beta[i], direct.beta[i], 1e-13) << "order " << order << " i " << i;
    }
  }
}

TEST(AbCoefficients, CoefficientsSumToStep) {
  // Moment condition k = 0: integrating a constant exactly means the
  // coefficients sum to h, for any step history.
  const std::array<double, 4> past{0.0, -0.013, -0.05, -0.081};
  const double h = 0.021;
  const auto c = compute_ab_coefficients(past, h);
  double sum = 0.0;
  for (std::size_t i = 0; i < c.order; ++i) {
    sum += c.beta[i];
  }
  EXPECT_NEAR(sum, h, 1e-14);
}

TEST(AbCoefficients, RejectsNonDecreasingHistory) {
  const std::array<double, 2> past{0.0, 0.0};
  EXPECT_THROW((void)compute_ab_coefficients(past, 0.1), ModelError);
}

TEST(AbCoefficients, RejectsNonPositiveStep) {
  const std::array<double, 1> past{1.0};
  EXPECT_THROW((void)compute_ab_coefficients(past, 1.0), ModelError);
  EXPECT_THROW((void)compute_ab_coefficients(past, 0.5), ModelError);
}

TEST(AbCoefficients, RejectsBadOrder) {
  EXPECT_THROW((void)constant_step_ab_coefficients(0, 0.1), ModelError);
  EXPECT_THROW((void)constant_step_ab_coefficients(5, 0.1), ModelError);
}

/// Orders 1 and 2 come in closed form; they equal the moment elimination
/// bit for bit on random variable-step histories, from t = 0 up to the
/// long runs' hundreds of seconds.
TEST(AbCoefficients, ClosedFormsEqualTheMomentSolveBitForBit) {
  std::mt19937_64 rng(31);
  std::uniform_real_distribution<double> log_step(-9.0, -2.0);
  std::uniform_real_distribution<double> log_ratio(-2.0, 2.0);
  std::uniform_real_distribution<double> start(0.0, 3300.0);
  auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  for (int trial = 0; trial < 20000; ++trial) {
    const double h = std::pow(10.0, log_step(rng));
    std::array<double, 4> past{};
    past[0] = trial % 5 == 0 ? 0.0 : start(rng);
    for (std::size_t i = 1; i < past.size(); ++i) {
      past[i] = past[i - 1] - h * std::pow(10.0, log_ratio(rng));
    }
    for (std::size_t order = 1; order <= 4; ++order) {
      const std::span<const double> history(past.data(), order);
      if (order > 1 && !(history[order - 1] < history[order - 2])) {
        break;  // a step vanished below the history times' ulp
      }
      const AbCoefficients closed = compute_ab_coefficients(history, past[0] + h);
      const AbCoefficients moments = ehsim::ode::solve_ab_moments(history, past[0] + h);
      ASSERT_EQ(closed.order, moments.order);
      for (std::size_t i = 0; i < order; ++i) {
        ASSERT_EQ(bits(closed.beta[i]), bits(moments.beta[i]))
            << "trial " << trial << " order " << order << " beta " << i;
      }
    }
  }
  const std::array<double, 2> past{0.0, 0.1};
  EXPECT_THROW((void)ehsim::ode::solve_ab_moments(past, 0.2), ModelError);
}

/// Property: for any (randomised) step history the moment conditions hold,
/// i.e. polynomials up to degree p-1 are integrated exactly over the step.
class AbMomentProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(AbMomentProperty, PolynomialExactness) {
  const std::size_t order = GetParam();
  // Irregular history with step ratios between 0.4x and 2.7x.
  const std::array<double, 4> all_past{0.0, -0.010, -0.037, -0.047};
  const std::span<const double> past(all_past.data(), order);
  const double h = 0.017;
  const auto c = compute_ab_coefficients(past, h);

  for (std::size_t k = 0; k < order; ++k) {
    // f(t) = t^k (relative to t_n): quadrature must equal h^{k+1}/(k+1).
    double quad = 0.0;
    for (std::size_t i = 0; i < order; ++i) {
      quad += c.beta[i] * std::pow(past[i], static_cast<double>(k));
    }
    const double exact = std::pow(h, static_cast<double>(k + 1)) / static_cast<double>(k + 1);
    EXPECT_NEAR(quad, exact, 1e-12 * std::max(1.0, std::abs(exact)))
        << "order " << order << " moment " << k;
  }
}

INSTANTIATE_TEST_SUITE_P(Orders, AbMomentProperty, ::testing::Values(1, 2, 3, 4));

}  // namespace
