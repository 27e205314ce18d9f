/// \file test_ode_explicit.cpp
/// \brief Adams-Bashforth history tests: order ramp, exactness, convergence.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/error.hpp"
#include "ode/explicit_integrators.hpp"

namespace {

using ehsim::ode::AbHistory;

TEST(AbHistory, ColdStartRampsOrder) {
  AbHistory history(1, 4);
  EXPECT_EQ(history.effective_order(), 0u);
  const std::vector<double> f{1.0};
  history.push(0.0, f);
  EXPECT_EQ(history.effective_order(), 1u);
  history.push(0.1, f);
  EXPECT_EQ(history.effective_order(), 2u);
  history.push(0.2, f);
  history.push(0.3, f);
  history.push(0.4, f);
  EXPECT_EQ(history.effective_order(), 4u);  // saturates at max order
}

TEST(AbHistory, ClearResetsOrder) {
  AbHistory history(1, 2);
  const std::vector<double> f{1.0};
  history.push(0.0, f);
  history.clear();
  EXPECT_EQ(history.size(), 0u);
}

TEST(AbHistory, StepMatchesForwardEulerAtOrder1) {
  AbHistory history(2, 4);
  const std::vector<double> f{2.0, -1.0};
  history.push(0.0, f);
  std::vector<double> x{10.0, 20.0};
  history.step(0.5, x);
  EXPECT_NEAR(x[0], 11.0, 1e-14);
  EXPECT_NEAR(x[1], 19.5, 1e-14);
}

TEST(AbHistory, Ab2IntegratesLinearRhsExactly) {
  // f(t) = t: AB2 is exact for polynomials of degree 1.
  AbHistory history(1, 2);
  std::vector<double> x{0.0};
  double t = 0.0;
  const double h = 0.1;
  std::vector<double> f{t};
  history.push(t, f);
  // First step is order 1 (FE); start comparing after the ramp by taking
  // the exact value at each push.
  for (int i = 0; i < 20; ++i) {
    const double t_next = t + h;
    if (history.effective_order() >= 2) {
      std::vector<double> x_probe = x;
      history.step(t_next, x_probe);
      // Exact integral of f = t over [t, t+h] added to exact x = t^2/2.
      EXPECT_NEAR(x_probe[0] - x[0], 0.5 * (t_next * t_next - t * t), 1e-12);
    }
    history.step(t_next, x);
    t = t_next;
    f[0] = t;
    history.push(t, f);
  }
}

TEST(AbHistory, VariableStepConvergenceOrder2) {
  // Integrate dx/dt = -x with alternating steps; error should scale ~h^2.
  auto run = [](double h_base) {
    AbHistory history(1, 2);
    double x = 1.0;
    double t = 0.0;
    std::vector<double> f{-x};
    history.push(t, f);
    while (t < 1.0 - 1e-12) {
      const double h = std::min(t / h_base / 2.0 == 0 ? h_base : (static_cast<int>(t / h_base) % 2 == 0 ? h_base : 0.6 * h_base),
                                1.0 - t);
      std::vector<double> xv{x};
      history.step(t + h, xv);
      x = xv[0];
      t += h;
      f[0] = -x;
      history.push(t, f);
    }
    return std::abs(x - std::exp(-1.0));
  };
  const double e1 = run(0.02);
  const double e2 = run(0.01);
  EXPECT_GT(e1 / e2, 3.0);  // ~4x for order 2
}

TEST(AbHistory, RejectsBadMaxOrder) {
  EXPECT_THROW(AbHistory(1, 0), ehsim::ModelError);
  EXPECT_THROW(AbHistory(1, 9), ehsim::ModelError);
}

}  // namespace
