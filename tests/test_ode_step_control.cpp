/// \file test_ode_step_control.cpp
/// \brief Step controller tests.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "common/error.hpp"
#include "ode/step_control.hpp"

namespace {

using ehsim::ModelError;
using ehsim::ode::StepControlOptions;
using ehsim::ode::StepController;

StepControlOptions options(double h_min = 1e-9, double h_max = 1.0) {
  StepControlOptions o;
  o.h_min = h_min;
  o.h_max = h_max;
  return o;
}

TEST(StepController, AcceptsSmallError) {
  StepController c(options(), 2);
  c.set_step(0.1);
  EXPECT_TRUE(c.update(0.1));
  EXPECT_EQ(c.acceptances(), 1u);
  EXPECT_EQ(c.rejections(), 0u);
}

TEST(StepController, GrowsOnSmallError) {
  StepController c(options(), 2);
  c.set_step(0.1);
  c.update(1e-6);
  EXPECT_GT(c.suggested_step(), 0.1);
}

TEST(StepController, RejectsAndShrinksOnLargeError) {
  StepController c(options(), 2);
  c.set_step(0.1);
  EXPECT_FALSE(c.update(100.0));
  EXPECT_LT(c.suggested_step(), 0.1);
  EXPECT_EQ(c.rejections(), 1u);
}

TEST(StepController, GrowthCapped) {
  StepController c(options(), 1);
  c.set_step(0.1);
  c.update(1e-12);
  EXPECT_LE(c.suggested_step(), 0.1 * c.options().max_growth + 1e-15);
}

TEST(StepController, ShrinkFloored) {
  StepController c(options(), 1);
  c.set_step(0.1);
  c.update(1e12);
  EXPECT_GE(c.suggested_step(), 0.1 * c.options().max_shrink - 1e-15);
}

TEST(StepController, ClampsToBounds) {
  StepController c(options(1e-3, 0.5), 1);
  c.set_step(10.0);
  EXPECT_DOUBLE_EQ(c.suggested_step(), 0.5);
  c.set_step(1e-9);
  EXPECT_DOUBLE_EQ(c.suggested_step(), 1e-3);
}

TEST(StepController, HoldsGrowthAfterRejection) {
  StepController c(options(), 1);
  c.set_step(0.1);
  c.update(10.0);  // reject
  const double after_reject = c.suggested_step();
  c.update(1e-9);  // accept with tiny error — growth suppressed while holding
  EXPECT_LE(c.suggested_step(), after_reject * 1.0 + 1e-15);
}

TEST(StepController, GrowthResumesAfterHoldExpires) {
  StepControlOptions o = options();
  o.hold_after_reject = 1;
  StepController c(o, 1);
  c.set_step(0.1);
  c.update(10.0);   // reject -> hold for 1 accepted step
  c.update(1e-9);   // accepted, hold consumed
  const double h1 = c.suggested_step();
  c.update(1e-9);   // growth allowed again
  EXPECT_GT(c.suggested_step(), h1);
}

TEST(StepController, RejectsInvalidOptions) {
  StepControlOptions bad;
  bad.h_min = 0.0;
  EXPECT_THROW(StepController(bad, 1), ModelError);
  StepControlOptions bad2;
  bad2.h_min = 1.0;
  bad2.h_max = 0.5;
  EXPECT_THROW(StepController(bad2, 1), ModelError);
  StepControlOptions bad3;
  bad3.safety = 0.0;
  EXPECT_THROW(StepController(bad3, 1), ModelError);
}

/// update()'s power law as a formula, for a first accepted step.
double power_law_step(const StepControlOptions& o, std::size_t order, double h, double ratio) {
  const double exponent = -1.0 / static_cast<double>(order + 1);
  double factor = o.safety * std::pow(std::max(ratio, 1e-12), exponent);
  factor = std::clamp(factor, o.max_shrink, o.max_growth);
  return std::clamp(h * factor, o.h_min, o.h_max);
}

/// At or below the 1e-12 floor the factor is a constant the controller
/// computes once; it equals the power law bit for bit, and a NaN ratio
/// still goes through the power law (and is rejected).
TEST(StepController, FloorFactorEqualsThePowerLaw) {
  StepControlOptions o = options(1e-12, 1e3);
  o.max_growth = 1e9;  // no clamp hides the factor
  for (std::size_t order = 1; order <= 4; ++order) {
    for (const double ratio : {0.0, -0.0, 1e-13, 1e-12, -1.0, 2e-12, 0.5}) {
      StepController c(o, order);
      c.set_step(1e-7);
      EXPECT_TRUE(c.update(ratio));
      EXPECT_EQ(std::bit_cast<std::uint64_t>(c.suggested_step()),
                std::bit_cast<std::uint64_t>(power_law_step(o, order, 1e-7, ratio)))
          << "order " << order << " ratio " << ratio;
    }
    StepController c(o, order);
    c.set_step(1e-7);
    EXPECT_FALSE(c.update(std::numeric_limits<double>::quiet_NaN()));
    EXPECT_TRUE(std::isnan(c.suggested_step()));
  }
}

TEST(StepController, HigherOrderReactsLessAggressively) {
  StepController c1(options(), 1);
  StepController c4(options(), 4);
  c1.set_step(0.1);
  c4.set_step(0.1);
  c1.update(0.5);
  c4.update(0.5);
  // Same error ratio: the order-4 controller changes h less (exponent
  // 1/(p+1)).
  EXPECT_LT(c4.suggested_step(), c1.suggested_step());
}

}  // namespace
