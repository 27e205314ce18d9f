#include "ode/ab_coefficients.hpp"

#include <cmath>

#include "common/assert.hpp"
#include "common/error.hpp"

namespace ehsim::ode {

namespace {

/// The step h = t_next - t_n, after checking the arguments.
double checked_step(std::span<const double> past_times, double t_next) {
  const std::size_t p = past_times.size();
  if (p == 0 || p > kMaxAbOrder) {
    throw ModelError("AB coefficients: order must be 1..4");
  }
  const double h = t_next - past_times[0];
  if (!(h > 0.0)) {
    throw ModelError("AB coefficients: t_next must exceed the newest history time");
  }
  for (std::size_t i = 1; i < p; ++i) {
    if (!(past_times[i] < past_times[i - 1])) {
      throw ModelError("AB coefficients: history times must be strictly decreasing");
    }
  }
  return h;
}

}  // namespace

AbCoefficients solve_ab_moments(std::span<const double> past_times, double t_next) {
  const double h = checked_step(past_times, t_next);
  const std::size_t p = past_times.size();
  const double t_n = past_times[0];
  // Moment system V beta = m with V[k][i] = tau_i^k, tau_i = t_{n-i} - t_n,
  // m[k] = h^{k+1}/(k+1). Scale tau by h for conditioning: with s_i =
  // tau_i / h the system becomes sum_i beta_i s_i^k = h / (k+1).
  std::array<std::array<double, kMaxAbOrder>, kMaxAbOrder> v{};
  std::array<double, kMaxAbOrder> m{};
  for (std::size_t i = 0; i < p; ++i) {
    const double s = (past_times[i] - t_n) / h;  // 0, negative, ...
    double power = 1.0;
    for (std::size_t k = 0; k < p; ++k) {
      v[k][i] = power;
      power *= s;
    }
  }
  for (std::size_t k = 0; k < p; ++k) {
    m[k] = h / static_cast<double>(k + 1);
  }

  // Gaussian elimination with partial pivoting on the tiny p x p system.
  std::array<std::size_t, kMaxAbOrder> perm{};
  for (std::size_t i = 0; i < p; ++i) {
    perm[i] = i;
  }
  for (std::size_t col = 0; col < p; ++col) {
    std::size_t pivot = col;
    for (std::size_t r = col + 1; r < p; ++r) {
      if (std::abs(v[perm[r]][col]) > std::abs(v[perm[pivot]][col])) {
        pivot = r;
      }
    }
    std::swap(perm[col], perm[pivot]);
    const double diag = v[perm[col]][col];
    EHSIM_ASSERT(std::abs(diag) > 0.0, "AB moment system is singular (duplicate times?)");
    for (std::size_t r = col + 1; r < p; ++r) {
      const double factor = v[perm[r]][col] / diag;
      if (factor == 0.0) {
        continue;
      }
      for (std::size_t c = col; c < p; ++c) {
        v[perm[r]][c] -= factor * v[perm[col]][c];
      }
      m[perm[r]] -= factor * m[perm[col]];
    }
  }

  AbCoefficients out;
  out.order = p;
  for (std::size_t ri = p; ri-- > 0;) {
    double acc = m[perm[ri]];
    for (std::size_t c = ri + 1; c < p; ++c) {
      acc -= v[perm[ri]][c] * out.beta[c];
    }
    out.beta[ri] = acc / v[perm[ri]][ri];
  }
  return out;
}

AbCoefficients compute_ab_coefficients(std::span<const double> past_times, double t_next) {
  if (past_times.size() > 2) {
    return solve_ab_moments(past_times, t_next);
  }
  const double h = checked_step(past_times, t_next);
  // What solve_ab_moments computes for p <= 2, operation for operation: with
  // s = (t_{n-1} - t_n)/h the system is [1 1; 0 s] beta = [h; h/2], whose
  // elimination skips its zero sub-diagonal and back-substitutes.
  AbCoefficients out;
  out.order = past_times.size();
  if (out.order == 1) {
    out.beta[0] = h;
    return out;
  }
  const double s = (past_times[1] - past_times[0]) / h;
  EHSIM_ASSERT(std::abs(s) > 0.0, "AB moment system is singular (duplicate times?)");
  out.beta[1] = (h / 2.0) / s;
  out.beta[0] = h - out.beta[1];
  return out;
}

AbCoefficients constant_step_ab_coefficients(std::size_t order, double h) {
  if (order == 0 || order > kMaxAbOrder) {
    throw ModelError("constant_step_ab_coefficients: order must be 1..4");
  }
  if (!(h > 0.0)) {
    throw ModelError("constant_step_ab_coefficients: step must be positive");
  }
  AbCoefficients out;
  out.order = order;
  switch (order) {
    case 1:
      out.beta = {h, 0.0, 0.0, 0.0};
      break;
    case 2:
      out.beta = {1.5 * h, -0.5 * h, 0.0, 0.0};
      break;
    case 3:
      out.beta = {23.0 / 12.0 * h, -16.0 / 12.0 * h, 5.0 / 12.0 * h, 0.0};
      break;
    case 4:
      out.beta = {55.0 / 24.0 * h, -59.0 / 24.0 * h, 37.0 / 24.0 * h, -9.0 / 24.0 * h};
      break;
    default:
      break;  // unreachable, guarded above
  }
  return out;
}

}  // namespace ehsim::ode
