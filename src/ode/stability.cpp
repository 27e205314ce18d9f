#include "ode/stability.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.hpp"
#include "linalg/eigen.hpp"
#include "linalg/spectral.hpp"
#include "ode/ab_coefficients.hpp"

namespace ehsim::ode {

double ab_real_axis_stability_limit(std::size_t order) {
  switch (order) {
    case 1:
      return 2.0;
    case 2:
      return 1.0;
    case 3:
      return 6.0 / 11.0;
    case 4:
      return 0.3;
    default:
      throw ModelError("ab_real_axis_stability_limit: order must be 1..4");
  }
}

StabilityLimit max_stable_step(const linalg::Matrix& a, std::size_t ab_order, double safety) {
  if (!(safety > 0.0 && safety <= 1.0)) {
    throw ModelError("max_stable_step: safety must be in (0, 1]");
  }
  const double order_scale = ab_real_axis_stability_limit(ab_order) / 2.0;

  StabilityLimit limit;
  if (linalg::norm_max(a) == 0.0) {
    limit.source = StabilityLimitSource::kUnbounded;
    limit.h_max = std::numeric_limits<double>::infinity();
    return limit;
  }

  if (const auto h_fe = linalg::max_stable_step_by_dominance(a)) {
    limit.source = StabilityLimitSource::kDiagonalDominance;
    limit.h_max = *h_fe * order_scale * safety;
    return limit;
  }
  // No dominance bound: refine_stable_step caps the step at L_p / rho from
  // the spectrum it computes.
  limit.source = StabilityLimitSource::kSpectrum;
  limit.h_max = std::numeric_limits<double>::infinity();
  return limit;
}

double ab_root_amplification(std::complex<double> mu, std::size_t order) {
  if (order == 0 || order > kMaxAbOrder) {
    throw ModelError("ab_root_amplification: order must be 1..4");
  }
  if (order == 1) {
    return std::abs(1.0 + mu);  // zeta = 1 + mu
  }
  if (order == 2) {
    // zeta^2 - b zeta + c with b = 1 + 3mu/2, c = mu/2 (beta = 3/2, -1/2):
    // roots (b +- s)/2 with s^2 = b^2 - 4c. The larger magnitude is the
    // non-cancelling sum, so neither root loses precision.
    const std::complex<double> b = 1.0 + 1.5 * mu;
    const std::complex<double> s = std::sqrt(b * b - 2.0 * mu);
    return 0.5 * std::max(std::abs(b + s), std::abs(b - s));
  }
  // beta-hat = constant-step coefficients with h = 1.
  const auto coeff = constant_step_ab_coefficients(order, 1.0);
  // Monic characteristic: zeta^p - (1 + mu b0) zeta^{p-1} - mu b1 zeta^{p-2}
  // - ... - mu b_{p-1} = 0. coeffs[k] multiplies zeta^k.
  std::vector<std::complex<double>> coeffs(order, {0.0, 0.0});
  coeffs[order - 1] = -(1.0 + mu * coeff.beta[0]);
  for (std::size_t i = 1; i < order; ++i) {
    coeffs[order - 1 - i] = -mu * coeff.beta[i];
  }
  double amplification = 0.0;
  for (const auto& root : linalg::polynomial_roots(coeffs)) {
    amplification = std::max(amplification, std::abs(root));
  }
  return amplification;
}

bool ab_scalar_stable(std::complex<double> mu, std::size_t order, double tolerance) {
  return ab_root_amplification(mu, order) <= 1.0 + tolerance;
}

double max_stable_step_spectral(std::span<const std::complex<double>> spectrum,
                                std::size_t order, double h_upper) {
  if (!(h_upper > 0.0)) {
    throw ModelError("max_stable_step_spectral: h_upper must be positive");
  }
  double noise_floor = 0.0;
  for (const auto& lambda : spectrum) {
    noise_floor = std::max(noise_floor, std::abs(lambda));
  }
  noise_floor *= 1e-9;  // QR roundoff scale for "zero" eigenvalues

  const double real_limit = ab_real_axis_stability_limit(order);
  double h_min_over_modes = h_upper;
  for (auto lambda : spectrum) {
    if (std::abs(lambda) <= noise_floor) {
      continue;  // integrator mode: no constraint
    }
    if (lambda.real() > -noise_floor) {
      // Nonnegative real part: an explicit method cannot damp it; constrain
      // magnitude for accuracy and treat the growth as the model's own.
      h_min_over_modes = std::min(h_min_over_modes, real_limit / std::abs(lambda));
      continue;
    }
    if (ab_scalar_stable(lambda * h_upper, order)) {
      continue;  // h_upper already inside the region for this mode
    }
    // Bisect the boundary along the ray h*lambda, keeping lo stable.
    double lo = 0.0;
    double hi = h_upper;
    for (int iter = 0; iter < 60; ++iter) {
      const double mid = 0.5 * (lo + hi);
      if (ab_scalar_stable(lambda * mid, order)) {
        lo = mid;
      } else {
        hi = mid;
      }
    }
    h_min_over_modes = std::min(h_min_over_modes, lo);
  }
  return h_min_over_modes;
}

double refine_stable_step(const linalg::Matrix& a, std::size_t order, double h_candidate,
                          double h_floor) {
  const auto spectrum = linalg::eigenvalues(a);
  double rho = 0.0;
  for (const auto& lambda : spectrum) {
    rho = std::max(rho, std::abs(lambda));
  }
  if (rho > 0.0) {
    h_candidate = std::min(h_candidate, ab_real_axis_stability_limit(order) / rho);
  }
  const double h = max_stable_step_spectral(spectrum, order, h_candidate);
  return h >= h_floor ? h : 0.0;
}

bool is_step_empirically_stable(const linalg::Matrix& a, double h, std::size_t iterations) {
  // Estimate rho(I + hA) directly; the propagation matrix of Eq. 6 must stay
  // inside the unit circle (Eq. 7). A small tolerance absorbs the estimation
  // error of the power iteration at the stability boundary.
  linalg::Matrix m = linalg::Matrix::identity(a.rows());
  m.add_scaled(h, a);
  const auto estimate = linalg::power_iteration_spectral_radius(m, iterations, 1e-9);
  return estimate.radius <= 1.0 + 1e-6;
}

}  // namespace ehsim::ode
