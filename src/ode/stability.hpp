/// \file stability.hpp
/// \brief Explicit-integration stability limits (paper Eqs. 6-7).
///
/// The march-in-time process x_{n+1} = x_n + h (A x_n + b) is numerically
/// stable when rho(I + h A) < 1 (Eq. 7). The paper enforces this through
/// diagonal dominance of the point total-step matrix, exploiting the
/// passivity of the analogue blocks. Higher-order Adams-Bashforth methods
/// have strictly smaller real-axis stability intervals than Forward Euler,
/// so the dominance-derived step is scaled by the per-order interval ratio.
/// Where the dominance rule does not apply (the mechanical position row has
/// a zero diagonal), the step is bounded from the QR spectrum of A alone:
/// h <= L_p / rho(A), then the AB_p root condition for every mode.
#pragma once

#include <complex>
#include <cstddef>
#include <span>

#include "linalg/matrix.hpp"

namespace ehsim::ode {

/// Length of the real-axis stability interval (-L, 0) of the order-p
/// Adams-Bashforth method: AB1/FE: 2, AB2: 1, AB3: 6/11, AB4: 3/10.
[[nodiscard]] double ab_real_axis_stability_limit(std::size_t order);

/// How the stability step limit was obtained.
enum class StabilityLimitSource {
  kDiagonalDominance,  ///< paper's fast path (Gershgorin on I + hA)
  kSpectrum,           ///< dominance rule rejected A: refine_stable_step bounds h
  kUnbounded,          ///< A == 0 (no dynamics)
};

struct StabilityLimit {
  double h_max = 0.0;
  StabilityLimitSource source = StabilityLimitSource::kUnbounded;
};

/// Maximum stable step for the order-p AB method applied to dx/dt = A x + b.
///
/// The paper's diagonal-dominance rule, h_FE = min_rows
/// 2/(|a_ii| + sum|a_ij|), scaled by ab_real_axis_stability_limit(p)/2.
/// Rows with a zero/positive or non-dominant diagonal (e.g. the mechanical
/// position/velocity pair) defeat the rule: the result is then an infinite
/// h_max with source kSpectrum, and refine_stable_step, which computes the
/// spectrum anyway, supplies the bound. \p safety (0..1] multiplies a
/// finite step.
[[nodiscard]] StabilityLimit max_stable_step(const linalg::Matrix& a, std::size_t ab_order,
                                             double safety = 0.8);

/// Brute-force check used by tests and the ablation bench: is the iteration
/// x <- (I + hA) x contractive over \p iterations steps? (Spectral radius
/// check by explicit propagation of a worst-case basis.)
[[nodiscard]] bool is_step_empirically_stable(const linalg::Matrix& a, double h,
                                              std::size_t iterations = 2000);

/// Largest root magnitude of the order-p Adams-Bashforth characteristic
/// polynomial zeta^p - zeta^{p-1} - mu * sum_i beta_i zeta^{p-1-i} for
/// mu = h*lambda. The method is absolutely stable at mu iff this is <= 1.
/// Orders 1 and 2 are solved in closed form (|1 + mu|; the quadratic
/// zeta^2 - (1 + 3mu/2) zeta + mu/2 with one complex square root), orders 3
/// and 4 by linalg::polynomial_roots.
[[nodiscard]] double ab_root_amplification(std::complex<double> mu, std::size_t order);

/// Scalar AB_p absolute-stability test at mu = h*lambda.
[[nodiscard]] bool ab_scalar_stable(std::complex<double> mu, std::size_t order,
                                    double tolerance = 1e-9);

/// Largest h <= h_upper for which every eigenvalue in \p spectrum satisfies
/// the AB_p root condition (bisection; the spectrum is computed once by the
/// caller). Eigenvalues with a nonnegative real part contribute an
/// accuracy-style magnitude cap instead (an explicit method cannot damp a
/// growing mode; tiny positive real parts are QR roundoff of integrator
/// modes).
[[nodiscard]] double max_stable_step_spectral(std::span<const std::complex<double>> spectrum,
                                              std::size_t order, double h_upper);

/// The Eq. 7 step from the spectrum of \p a (one linalg::eigenvalues):
/// h_candidate, capped at ab_real_axis_stability_limit(order) / rho(a), then
/// max_stable_step_spectral. \p h_candidate may be infinite (max_stable_step
/// found no dominance bound); where the dominance rule did bound it the rho
/// cap is a no-op up to rounding, since Gershgorin's discs give
/// rho <= max_i(|a_ii| + sum_{j!=i}|a_ij|). Returns 0 below \p h_floor.
[[nodiscard]] double refine_stable_step(const linalg::Matrix& a, std::size_t order,
                                        double h_candidate, double h_floor);

}  // namespace ehsim::ode
