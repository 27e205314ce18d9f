#include "linalg/spectral.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

namespace ehsim::linalg {

namespace {

/// Off-diagonal absolute row sum for row \p r.
double off_diagonal_sum(const Matrix& a, std::size_t r) {
  double sum = 0.0;
  const auto row = a.row(r);
  for (std::size_t c = 0; c < row.size(); ++c) {
    if (c != r) {
      sum += std::abs(row[c]);
    }
  }
  return sum;
}

}  // namespace

std::optional<double> max_stable_step_by_dominance(const Matrix& a) {
  EHSIM_ASSERT(a.is_square(), "stability step requires a square matrix");
  double h_max = std::numeric_limits<double>::infinity();
  for (std::size_t r = 0; r < a.rows(); ++r) {
    const double diag = a(r, r);
    const double off = off_diagonal_sum(a, r);
    if (diag == 0.0 && off == 0.0) {
      continue;  // zero row: pure integrator output, no constraint
    }
    // Requirement: |1 + h*diag| + h*off <= 1 for some h > 0. With diag < 0
    // and off <= |diag| the admissible range is (0, 2/(|diag|+off)].
    if (!(diag < 0.0 && off <= std::abs(diag))) {
      return std::nullopt;  // row not dominance-stabilisable (or NaN)
    }
    h_max = std::min(h_max, 2.0 / (std::abs(diag) + off));
  }
  return h_max;
}

SpectralEstimate power_iteration_spectral_radius(const Matrix& a, std::size_t max_iterations,
                                                 double tol) {
  EHSIM_ASSERT(a.is_square(), "power iteration requires a square matrix");
  const std::size_t n = a.rows();
  SpectralEstimate result;
  if (n == 0) {
    result.converged = true;
    return result;
  }

  // Deterministic, non-degenerate start vector (alternating ramp) so results
  // are reproducible across runs.
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = 1.0 + 0.37 * static_cast<double>(i) * (i % 2 == 0 ? 1.0 : -1.0);
  }
  std::vector<double> w(n);

  auto normalise = [](std::vector<double>& x) {
    double norm = 0.0;
    for (double value : x) {
      norm += value * value;
    }
    norm = std::sqrt(norm);
    if (norm > 0.0) {
      for (double& value : x) {
        value /= norm;
      }
    }
    return norm;
  };
  normalise(v);

  // Track the two-step growth factor: for a complex-conjugate dominant pair
  // the one-step Rayleigh quotient oscillates, but ||A^2 v|| / ||v|| still
  // converges to rho^2.
  double prev_estimate = 0.0;
  for (std::size_t it = 1; it <= max_iterations; ++it) {
    a.matvec(std::span<const double>(v), std::span<double>(w));
    const double g1 = normalise(w);
    a.matvec(std::span<const double>(w), std::span<double>(v));
    const double g2 = normalise(v);
    const double estimate = std::sqrt(std::max(g1 * g2, 0.0));
    result.iterations = it;
    result.radius = estimate;
    if (g1 == 0.0 || g2 == 0.0) {  // reached the null space: radius ~ 0
      result.converged = true;
      return result;
    }
    if (it > 1 && std::abs(estimate - prev_estimate) <=
                      tol * std::max(1.0, std::abs(estimate))) {
      result.converged = true;
      return result;
    }
    prev_estimate = estimate;
  }
  return result;
}

}  // namespace ehsim::linalg
