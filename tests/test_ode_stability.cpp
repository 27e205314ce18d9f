/// \file test_ode_stability.cpp
/// \brief Stability-limit tests (paper Eqs. 6-7) for the explicit march.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <limits>
#include <vector>

#include "linalg/eigen.hpp"
#include "ode/ab_coefficients.hpp"
#include "ode/stability.hpp"

namespace {

using ehsim::linalg::Matrix;
using ehsim::linalg::polynomial_roots;
using ehsim::ode::ab_real_axis_stability_limit;
using ehsim::ode::ab_root_amplification;
using ehsim::ode::ab_scalar_stable;
using ehsim::ode::is_step_empirically_stable;
using ehsim::ode::max_stable_step;
using ehsim::ode::max_stable_step_spectral;
using ehsim::ode::refine_stable_step;
using ehsim::ode::StabilityLimitSource;

TEST(AbScalarStability, RealAxisLimitsMatchTheory) {
  // Known real-axis absolute-stability intervals (-L, 0):
  // AB1: 2, AB2: 1, AB3: 6/11, AB4: 0.3.
  for (std::size_t order = 1; order <= 4; ++order) {
    const double limit = ab_real_axis_stability_limit(order);
    EXPECT_TRUE(ab_scalar_stable({-0.98 * limit, 0.0}, order)) << "order " << order;
    EXPECT_FALSE(ab_scalar_stable({-1.05 * limit, 0.0}, order)) << "order " << order;
  }
}

TEST(AbScalarStability, OriginIsMarginallyStable) {
  for (std::size_t order = 1; order <= 4; ++order) {
    EXPECT_TRUE(ab_scalar_stable({0.0, 0.0}, order));
    EXPECT_NEAR(ab_root_amplification({0.0, 0.0}, order), 1.0, 1e-9);
  }
}

TEST(AbScalarStability, ForwardEulerCircle) {
  // AB1 = FE: stability region |1 + mu| <= 1.
  EXPECT_TRUE(ab_scalar_stable({-1.0, 0.9}, 1));
  EXPECT_FALSE(ab_scalar_stable({-1.0, 1.1}, 1));
  EXPECT_FALSE(ab_scalar_stable({0.0, 0.5}, 1));  // imaginary axis unstable
}

TEST(AbScalarStability, Ab3IncludesImaginarySegment) {
  // AB3's region famously includes a segment of the imaginary axis
  // (roughly up to |mu| ~ 0.72); AB2's does not.
  EXPECT_TRUE(ab_scalar_stable({0.0, 0.4}, 3));
  EXPECT_FALSE(ab_scalar_stable({0.0, 0.4}, 2));
  EXPECT_FALSE(ab_scalar_stable({0.0, 0.8}, 3));
}

TEST(AbScalarStability, AmplificationGrowsWithMu) {
  const double a1 = ab_root_amplification({-0.5, 0.0}, 2);
  const double a2 = ab_root_amplification({-1.5, 0.0}, 2);
  EXPECT_LT(a1, 1.0);
  EXPECT_GT(a2, 1.0);
}

/// Roots of the order-p AB characteristic polynomial at \p mu through the
/// general Durand-Kerner solver, as the monic coefficients c[0..p-1].
std::vector<std::complex<double>> ab_characteristic_roots(std::complex<double> mu,
                                                          std::size_t order) {
  const auto coeff = ehsim::ode::constant_step_ab_coefficients(order, 1.0);
  std::vector<std::complex<double>> c(order);
  c[order - 1] = -(1.0 + mu * coeff.beta[0]);
  for (std::size_t i = 1; i < order; ++i) {
    c[order - 1 - i] = -mu * coeff.beta[i];
  }
  return polynomial_roots(c);
}

double max_magnitude(const std::vector<std::complex<double>>& roots) {
  double m = 0.0;
  for (const auto& r : roots) {
    m = std::max(m, std::abs(r));
  }
  return m;
}

TEST(AbScalarStability, Ab2ClosedFormMatchesDurandKerner) {
  // Re mu in [-3, 0.5], Im mu in [-2, 2] at spacing 1/200 (mu = -1, the
  // real-axis boundary, is a grid point), then the two double roots.
  std::size_t separated = 0;
  double worst_separated = 0.0;
  double worst_close = 0.0;
  std::size_t verdicts_differ = 0;
  for (int i = -600; i <= 100; ++i) {
    for (int j = -400; j <= 400; ++j) {
      const std::complex<double> mu(i / 200.0, j / 200.0);
      const auto roots = ab_characteristic_roots(mu, 2);
      const double reference = max_magnitude(roots);
      const double closed = ab_root_amplification(mu, 2);
      const double error = std::abs(closed - reference);
      if (std::abs(roots[0] - roots[1]) > 1e-3) {
        ++separated;
        worst_separated = std::max(worst_separated, error);
      } else {
        worst_close = std::max(worst_close, error);
      }
      verdicts_differ += (closed <= 1.0 + 1e-9) != (reference <= 1.0 + 1e-9) ? 1 : 0;
    }
  }
  // The double roots, b^2 = 2 mu with b = 1 + 3mu/2: mu = (-1 +- 2 sqrt(2) i)
  // / 4.5, where Durand-Kerner converges only linearly.
  for (const double sign : {1.0, -1.0}) {
    const std::complex<double> mu(-1.0 / 4.5, sign * 2.0 * std::sqrt(2.0) / 4.5);
    worst_close = std::max(worst_close, std::abs(ab_root_amplification(mu, 2) -
                                                 max_magnitude(ab_characteristic_roots(mu, 2))));
  }
  EXPECT_GT(separated, 500000u);
  EXPECT_LE(worst_separated, 1e-14);
  EXPECT_LE(worst_close, 1e-8);
  EXPECT_EQ(verdicts_differ, 0u);
  EXPECT_EQ(ab_root_amplification({-1.0, 0.0}, 2), 1.0);
}

TEST(AbScalarStability, Orders3And4GoThroughPolynomialRoots) {
  for (const std::size_t order : {3u, 4u}) {
    for (const std::complex<double> mu :
         {std::complex<double>(-0.3, 0.0), std::complex<double>(-0.1, 0.6),
          std::complex<double>(-2.0, -1.0)}) {
      EXPECT_EQ(ab_root_amplification(mu, order),
                max_magnitude(ab_characteristic_roots(mu, order)))
          << "order " << order << " mu " << mu;
    }
  }
}

TEST(MaxStableStep, DominantDiagonalUsesGershgorinPath) {
  const Matrix a{{-100.0, 10.0}, {10.0, -100.0}};
  const auto limit = max_stable_step(a, 1, 1.0);
  EXPECT_EQ(limit.source, StabilityLimitSource::kDiagonalDominance);
  EXPECT_NEAR(limit.h_max, 2.0 / 110.0, 1e-12);
}

TEST(MaxStableStep, OscillatorLeavesTheBoundToTheSpectrum) {
  // The zero diagonal of the position row defeats the dominance rule.
  const Matrix a{{0.0, 1.0}, {-1e4, -10.0}};
  const auto limit = max_stable_step(a, 2, 1.0);
  EXPECT_EQ(limit.source, StabilityLimitSource::kSpectrum);
  EXPECT_TRUE(std::isinf(limit.h_max));
}

TEST(MaxStableStep, ZeroMatrixUnbounded) {
  const Matrix a(3, 3);
  const auto limit = max_stable_step(a, 2, 1.0);
  EXPECT_EQ(limit.source, StabilityLimitSource::kUnbounded);
  EXPECT_TRUE(std::isinf(limit.h_max));
}

TEST(SpectralStep, MatchesRealAxisTheoryForDiagonalSystem) {
  // Single mode lambda = -1000: h_max = L(order)/1000.
  const std::vector<std::complex<double>> spectrum{{-1000.0, 0.0}};
  for (std::size_t order = 1; order <= 4; ++order) {
    const double h = max_stable_step_spectral(spectrum, order, 1.0);
    EXPECT_NEAR(h, ab_real_axis_stability_limit(order) / 1000.0, 1e-6) << "order " << order;
  }
}

TEST(SpectralStep, LightlyDampedModeCanBind) {
  // A slow real mode plus a fast lightly damped oscillator: the oscillator
  // (not the real mode) binds, because the AB2 region near the imaginary
  // axis only extends to |mu| ~ 0.4. The naive real-axis scaling would get
  // this wrong — the regression test for the harvester's mechanical mode.
  const double w = 440.0;
  const double zeta = 0.005;
  const std::vector<std::complex<double>> spectrum{
      {-100.0, 0.0},
      {-zeta * w, w},
      {-zeta * w, -w},
  };
  const double h = max_stable_step_spectral(spectrum, 2, 1.0);
  // Must be stricter than the real-mode-only limit 1/100.
  EXPECT_LT(h, 1.0 / 100.0);
  // And every mode must actually be stable at the returned step.
  for (const auto& lambda : spectrum) {
    EXPECT_TRUE(ab_scalar_stable(lambda * h, 2));
  }
  // The boundary is tight for the oscillator pair.
  EXPECT_FALSE(ab_scalar_stable(spectrum[1] * (1.3 * h), 2));
}

TEST(SpectralStep, IntegratorModesImposeNoConstraint) {
  const std::vector<std::complex<double>> spectrum{{0.0, 0.0}, {-10.0, 0.0}};
  const double h = max_stable_step_spectral(spectrum, 1, 1.0);
  EXPECT_NEAR(h, 0.2, 1e-6);
}

TEST(SpectralStep, UpperBoundRespected) {
  const std::vector<std::complex<double>> spectrum{{-1.0, 0.0}};
  EXPECT_DOUBLE_EQ(max_stable_step_spectral(spectrum, 1, 0.05), 0.05);
}

TEST(RefineStableStep, AgreesWithBruteForceOnOscillator) {
  const double w = 100.0;
  const double zeta = 0.05;
  const Matrix a{{0.0, 1.0}, {-w * w, -2.0 * zeta * w}};
  const double h_ok = 0.5 * 2.0 * zeta / w;   // well inside for FE
  const double h_bad = 10.0 * 2.0 * zeta / w; // well outside
  EXPECT_EQ(refine_stable_step(a, 1, h_ok, 0.0), h_ok);
  EXPECT_TRUE(is_step_empirically_stable(a, h_ok));
  EXPECT_FALSE(is_step_empirically_stable(a, h_bad));
  // The refined step sits at the brute-force boundary, within a factor 2.
  const double refined = refine_stable_step(a, 1, h_bad, 0.0);
  EXPECT_LT(refined, h_bad);
  EXPECT_TRUE(is_step_empirically_stable(a, 0.5 * refined));
  EXPECT_FALSE(is_step_empirically_stable(a, 2.0 * refined));
}

TEST(RefineStableStep, ReturnsZeroBelowFloor) {
  Matrix a(1, 1);
  a(0, 0) = -1e9;
  EXPECT_EQ(refine_stable_step(a, 2, 1.0, 1e-3), 0.0);
}

TEST(RefineStableStep, KeepsCandidateWhenStable) {
  Matrix a(1, 1);
  a(0, 0) = -1.0;
  EXPECT_NEAR(refine_stable_step(a, 1, 0.1, 1e-9), 0.1, 1e-12);
}

constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(RefineStableStep, InfiniteCandidateGivesTheRealAxisLimitOfADominantRealMode) {
  // Triangular, eigenvalues -1000 and -10; the 5000 coupling defeats the
  // dominance rule, so max_stable_step leaves the bound to the spectrum.
  const Matrix a{{-1000.0, 0.0}, {5000.0, -10.0}};
  for (std::size_t order = 1; order <= 4; ++order) {
    ASSERT_TRUE(std::isinf(max_stable_step(a, order, 1.0).h_max));
    const double expected = ab_real_axis_stability_limit(order) / 1000.0;
    EXPECT_NEAR(refine_stable_step(a, order, kInf, 1e-12), expected, 1e-12 * expected)
        << "order " << order;
  }
}

TEST(RefineStableStep, RhoCapIsANoOpWhereTheDominanceRuleBounds) {
  const Matrix a{{-100.0, 10.0}, {10.0, -100.0}};  // eigenvalues -90, -110
  for (std::size_t order = 1; order <= 4; ++order) {
    const auto limit = max_stable_step(a, order, 1.0);
    ASSERT_EQ(limit.source, StabilityLimitSource::kDiagonalDominance);
    EXPECT_DOUBLE_EQ(refine_stable_step(a, order, limit.h_max, 0.0), limit.h_max)
        << "order " << order;
  }
}

/// Real block-diagonal matrix with \p spectrum (conjugate pairs adjacent,
/// positive imaginary part first).
Matrix with_spectrum(const std::vector<std::complex<double>>& spectrum) {
  Matrix a(spectrum.size(), spectrum.size());
  for (std::size_t i = 0; i < spectrum.size(); ++i) {
    const auto lambda = spectrum[i];
    a(i, i) = lambda.real();
    if (lambda.imag() > 0.0) {
      a(i, i + 1) = lambda.imag();
      a(i + 1, i) = -lambda.imag();
      a(i + 1, i + 1) = lambda.real();
      ++i;
    }
  }
  return a;
}

TEST(RefineStableStep, InfiniteCandidateGivesTheBisectionBoundaryOfLightlyDampedModes) {
  const double w = 440.0;
  const double zeta = 0.005;
  const std::vector<std::vector<std::complex<double>>> spectra = {
      {{-100.0, 0.0}, {-zeta * w, w}, {-zeta * w, -w}},
      {{-40.0, 800.0}, {-40.0, -800.0}},
      {{-3000.0, 0.0}, {-5.0, 500.0}, {-5.0, -500.0}, {0.0, 0.0}},
  };
  std::size_t bisection_binds = 0;
  for (const auto& spectrum : spectra) {
    const Matrix a = with_spectrum(spectrum);
    double rho = 0.0;
    for (const auto& lambda : spectrum) {
      rho = std::max(rho, std::abs(lambda));
    }
    for (std::size_t order = 1; order <= 4; ++order) {
      const double boundary = max_stable_step_spectral(spectrum, order, 1.0);
      if (boundary >= 0.9 * ab_real_axis_stability_limit(order) / rho) {
        continue;  // a real mode or the L_p / rho cap binds instead
      }
      ++bisection_binds;
      EXPECT_NEAR(refine_stable_step(a, order, kInf, 1e-12), boundary, 1e-9 * boundary)
          << "order " << order << ", " << spectrum.size() << " modes";
    }
  }
  EXPECT_GE(bisection_binds, 5u);
}

/// Property: across orders and spectra, the returned step is stable and
/// 1.3x the returned step is unstable (boundary tightness), for binding
/// constraints strictly inside the upper bound.
struct SpectrumCase {
  const char* name;
  std::vector<std::complex<double>> spectrum;
};

class SpectralBoundary : public ::testing::TestWithParam<std::tuple<std::size_t, int>> {};

TEST_P(SpectralBoundary, ReturnedStepIsTightlyStable) {
  const std::size_t order = std::get<0>(GetParam());
  const int which = std::get<1>(GetParam());
  std::vector<std::complex<double>> spectrum;
  switch (which) {
    case 0:
      spectrum = {{-5000.0, 0.0}, {-20.0, 0.0}};
      break;
    case 1:
      spectrum = {{-40.0, 800.0}, {-40.0, -800.0}};
      break;
    default:
      spectrum = {{-3000.0, 0.0}, {-5.0, 500.0}, {-5.0, -500.0}, {0.0, 0.0}};
      break;
  }
  const double h = max_stable_step_spectral(spectrum, order, 1.0);
  ASSERT_GT(h, 0.0);
  ASSERT_LT(h, 1.0);  // binding
  for (const auto& lambda : spectrum) {
    EXPECT_TRUE(ab_scalar_stable(lambda * h, order, 1e-6))
        << "order " << order << " case " << which;
  }
  bool any_unstable = false;
  for (const auto& lambda : spectrum) {
    any_unstable = any_unstable || !ab_scalar_stable(lambda * h * 1.3, order);
  }
  EXPECT_TRUE(any_unstable) << "boundary not tight: order " << order << " case " << which;
}

INSTANTIATE_TEST_SUITE_P(OrdersAndSpectra, SpectralBoundary,
                         ::testing::Combine(::testing::Values(1u, 2u, 3u, 4u),
                                            ::testing::Values(0, 1, 2)));

}  // namespace
