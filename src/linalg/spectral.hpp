/// \file spectral.hpp
/// \brief The diagonal-dominance step rule and a power-iteration estimate.
///
/// The paper's stability argument (Eqs. 6-7): the explicit march-in-time
/// process x_{n+1} = (I + h A) x_n + ... is numerically stable when the
/// spectral radius rho(I + h A) < 1. Because the analogue harvester blocks
/// are passive, the paper enforces this "in a straightforward way by
/// adjusting the step-size such that the point total-step matrix is
/// diagonally dominant" — i.e. through Gershgorin's circle theorem. Where
/// row dominance fails the engine bounds the step from the QR spectrum
/// (ode::refine_stable_step); the power iteration here is the independent
/// reference behind ode::is_step_empirically_stable.
#pragma once

#include <cstddef>
#include <optional>

#include "linalg/matrix.hpp"

namespace ehsim::linalg {

/// Largest step h such that I + h*A is row diagonally dominant with all
/// Gershgorin discs inside the unit circle, i.e. such that for every row
/// |1 + h a_ii| + h sum_{j!=i}|a_ij| <= 1.
///
/// For a row with a_ii < 0 and sum_{j!=i}|a_ij| <= |a_ii| this yields
/// h <= 2 / (|a_ii| + sum_{j!=i}|a_ij|); rows that are not dominant (or have
/// a_ii >= 0, or hold a NaN) admit no h under this criterion and the
/// function returns nullopt — callers then bound the step from the spectrum.
/// Zero rows (isolated integrators) impose no limit.
[[nodiscard]] std::optional<double> max_stable_step_by_dominance(const Matrix& a);

/// Result of power_iteration_spectral_radius.
struct SpectralEstimate {
  double radius = 0.0;   ///< estimated spectral radius
  bool converged = false;///< true when the iteration met \p tol
  std::size_t iterations = 0;
};

/// Power-iteration estimate of rho(A). Deterministic start vector; handles
/// complex-conjugate dominant pairs by tracking the two-step growth factor.
[[nodiscard]] SpectralEstimate power_iteration_spectral_radius(const Matrix& a,
                                                               std::size_t max_iterations = 200,
                                                               double tol = 1e-6);

}  // namespace ehsim::linalg
