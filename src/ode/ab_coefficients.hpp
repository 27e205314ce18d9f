/// \file ab_coefficients.hpp
/// \brief Variable-step Adams-Bashforth coefficients (paper Eq. 5).
///
/// The paper advances the linearised state equations with "the multi-step
/// Adams-Bashforth formula due to its simplicity and accuracy", with
/// coefficients "dependent on the varying step-size". For a history of
/// solution points t_n > t_{n-1} > ... > t_{n-p+1} and a target point
/// t_{n+1} = t_n + h, the order-p AB coefficients beta_i satisfy the moment
/// (polynomial exactness) conditions
///
///   sum_i beta_i * (t_{n-i} - t_n)^k = h^{k+1} / (k+1),   k = 0..p-1,
///
/// i.e. the quadrature integrates every polynomial of degree < p exactly
/// over [t_n, t_{n+1}]. For constant step these reduce to the classical
/// values (e.g. p=2: {3h/2, -h/2}; p=4: {55,-59,37,-9}h/24). The local
/// truncation error is O(h^{p+1}).
#pragma once

#include <array>
#include <cstddef>
#include <span>

namespace ehsim::ode {

/// Maximum Adams-Bashforth order supported (the paper's case study uses the
/// multi-step formula; orders beyond 4 have impractically small stability
/// regions for this application).
inline constexpr std::size_t kMaxAbOrder = 4;

/// Coefficients of one AB step: x_{n+1} = x_n + sum_i beta[i] * f(t_{n-i}).
/// beta[i] already includes the step size (dimension: time).
struct AbCoefficients {
  std::array<double, kMaxAbOrder> beta{};  ///< beta[0] multiplies the newest f
  std::size_t order = 0;

  [[nodiscard]] std::span<const double> span() const noexcept { return {beta.data(), order}; }
};

/// Compute variable-step AB coefficients.
///
/// \param past_times  history times, newest first: past_times[0] = t_n,
///                    past_times[1] = t_{n-1}, ... (size = requested order,
///                    1..kMaxAbOrder, strictly decreasing)
/// \param t_next      target time t_{n+1} > t_n
///
/// Orders 1 and 2 in closed form, with exactly the operations the moment
/// elimination performs for them (s = (t_{n-1} - t_n)/h, beta_1 = (h/2)/s,
/// beta_0 = h - beta_1; beta_0 = h at order 1); orders 3 and 4 by the
/// moment elimination. No allocation.
[[nodiscard]] AbCoefficients compute_ab_coefficients(std::span<const double> past_times,
                                                     double t_next);

/// The same coefficients from Gaussian elimination (partial pivoting) on the
/// moment system, at every order: compute_ab_coefficients' orders 3 and 4,
/// and the reference its closed forms equal bit for bit.
[[nodiscard]] AbCoefficients solve_ab_moments(std::span<const double> past_times,
                                              double t_next);

/// Classical constant-step AB coefficients scaled by h (testing reference and
/// fast path when the controller holds the step constant).
[[nodiscard]] AbCoefficients constant_step_ab_coefficients(std::size_t order, double h);

}  // namespace ehsim::ode
