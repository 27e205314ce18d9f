/// \file test_pwl.cpp
/// \brief Piecewise-linear table and diode linearisation tests (paper §III-B).
#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "pwl/diode_table.hpp"
#include "pwl/pwl_table.hpp"

namespace {

using ehsim::ModelError;
using ehsim::pwl::diode_conductance;
using ehsim::pwl::diode_current;
using ehsim::pwl::DiodeParams;
using ehsim::pwl::DiodeTable;
using ehsim::pwl::PwlTable;
using ehsim::pwl::voltage_at_conductance;

TEST(PwlTable, ExactAtBreakpoints) {
  const PwlTable table([](double x) { return x * x; }, 0.0, 4.0, 8);
  for (int i = 0; i <= 8; ++i) {
    const double x = 0.5 * i;
    EXPECT_NEAR(table.value(x), x * x, 1e-12) << "x=" << x;
  }
}

TEST(PwlTable, LinearFunctionReproducedExactly) {
  const PwlTable table([](double x) { return 3.0 * x - 2.0; }, -1.0, 1.0, 4);
  EXPECT_NEAR(table.value(0.3), 3.0 * 0.3 - 2.0, 1e-12);
  EXPECT_NEAR(table.slope(0.3), 3.0, 1e-12);
}

TEST(PwlTable, BoundaryExtrapolationIsLinear) {
  const PwlTable table([](double x) { return x * x; }, 0.0, 1.0, 2);
  // Below x_min: first segment extended; slope of [0, 0.5] chord is 0.5.
  EXPECT_NEAR(table.value(-1.0), 0.0 + 0.5 * (-1.0), 1e-12);
  // Above x_max: last segment slope is (1 - 0.25)/0.5 = 1.5.
  EXPECT_NEAR(table.value(2.0), 1.0 + 1.5 * 1.0, 1e-12);
}

/// Just below x_max of a table whose |x_min| exceeds x_max (the diode
/// tables' shape), x - x_min rounds to x_max - x_min: the index must still
/// name the last segment, not one past it.
TEST(PwlTable, SegmentJustBelowTheTopIsTheLast) {
  const PwlTable table([](double x) { return x * x; }, -6.0, 0.52, 512);
  const double below = std::nextafter(0.52, 0.0);
  EXPECT_EQ(table.segment(below), 511u);
  EXPECT_EQ(table.affine(below).slope, table.affine(0.52).slope);
}

TEST(PwlTable, AffineFormConsistent) {
  const PwlTable table([](double x) { return std::sin(x); }, 0.0, 3.0, 32);
  const double x = 1.234;
  const auto affine = table.affine(x);
  EXPECT_NEAR(affine.slope * x + affine.intercept, table.value(x), 1e-14);
  EXPECT_DOUBLE_EQ(affine.slope, table.slope(x));
}

TEST(PwlTable, ErrorShrinksQuadraticallyWithSegments) {
  // Chord interpolation error is O(dx^2): 4x the segments -> ~16x smaller.
  const auto fn = [](double x) { return std::exp(x); };
  const PwlTable coarse(fn, 0.0, 1.0, 16);
  const PwlTable fine(fn, 0.0, 1.0, 64);
  const double e_coarse = coarse.max_error_against(fn);
  const double e_fine = fine.max_error_against(fn);
  EXPECT_GT(e_coarse / e_fine, 10.0);
  EXPECT_LT(e_coarse / e_fine, 25.0);
}

TEST(PwlTable, InvalidConstruction) {
  EXPECT_THROW(PwlTable(nullptr, 0.0, 1.0, 4), ModelError);
  EXPECT_THROW(PwlTable([](double x) { return x; }, 1.0, 0.0, 4), ModelError);
  EXPECT_THROW(PwlTable([](double x) { return x; }, 0.0, 1.0, 0), ModelError);
}

TEST(Diode, ShockleyCurrentAndConductanceConsistent) {
  const DiodeParams params;
  const double vd = 0.25;
  const double dv = 1e-7;
  const double numeric_g =
      (diode_current(params, vd + dv) - diode_current(params, vd - dv)) / (2.0 * dv);
  EXPECT_NEAR(diode_conductance(params, vd), numeric_g, 1e-6 * numeric_g + 1e-15);
}

TEST(Diode, ReverseSaturation) {
  const DiodeParams params;
  // Far reverse bias: current ~ -Is + g_min * vd.
  const double i = diode_current(params, -2.0);
  EXPECT_NEAR(i, -params.saturation_current + params.g_min * -2.0,
              1e-3 * params.saturation_current);
}

TEST(Diode, VoltageAtConductanceInvertsConductance) {
  const DiodeParams params;
  const double g_target = 0.005;
  const double v = voltage_at_conductance(params, g_target);
  EXPECT_NEAR(diode_conductance(params, v), g_target, 1e-9);
}

TEST(DiodeTable, CompanionMatchesShockleyAtOperatingPoints) {
  const DiodeParams params;
  const DiodeTable table(params, 4096, -1.0, 0.005);
  // Probe inside the tabulated domain (it ends where G reaches g_max,
  // ~0.18 V for these parameters; beyond it the device is deliberately
  // ohmic — see ConductanceClampBoundsSlope).
  for (double vd : {-0.5, -0.1, 0.0, 0.05, 0.1, 0.15}) {
    const auto companion = table.conductance_and_source(vd);
    const double i_lin = companion.slope * vd + companion.intercept;
    EXPECT_NEAR(i_lin, diode_current(params, vd), 5e-7) << "vd=" << vd;
  }
}

TEST(DiodeTable, ConductanceClampBoundsSlope) {
  const DiodeParams params;
  const double g_max = 0.005;
  const DiodeTable table(params, 512, -1.0, g_max);
  // Beyond the table the device continues ohmically with a bounded slope —
  // the property that keeps the Eq. 7 stability step practical.
  const auto companion = table.conductance_and_source(2.0);
  EXPECT_LE(companion.slope, g_max * 1.2);
}

TEST(DiodeTable, ErrorDecreasesWithGranularity) {
  // Paper: "the granularity of the piece-wise linear models can be
  // arbitrarily fine since the size of the look-up tables does not affect
  // the simulation speed."
  const DiodeParams params;
  const DiodeTable coarse(params, 64);
  const DiodeTable fine(params, 1024);
  EXPECT_GT(coarse.max_table_error(), fine.max_table_error() * 50.0);
}

TEST(DiodeTable, InvalidConstruction) {
  const DiodeParams params;
  EXPECT_THROW(DiodeTable(params, 0), ModelError);
  EXPECT_THROW((void)voltage_at_conductance(params, 0.0), ModelError);
}

/// Property sweep: the PWL companion current is continuous across segment
/// boundaries (chord construction), which is what keeps the AB derivative
/// history usable across segment changes.
class DiodeTableContinuity : public ::testing::TestWithParam<std::size_t> {};

TEST_P(DiodeTableContinuity, CurrentContinuousAcrossBreakpoints) {
  const DiodeParams params;
  const std::size_t segments = GetParam();
  const DiodeTable table(params, segments);
  const double v0 = -1.0;
  const double dx = (table.v_max() - v0) / static_cast<double>(segments);
  for (std::size_t k = 1; k < segments; ++k) {
    const double vb = v0 + dx * static_cast<double>(k);
    const double left = table.current(vb - 1e-12);
    const double right = table.current(vb + 1e-12);
    EXPECT_NEAR(left, right, 1e-9 + 1e-6 * std::abs(left)) << "segments=" << segments;
  }
}

INSTANTIATE_TEST_SUITE_P(Granularities, DiodeTableContinuity,
                         ::testing::Values(16, 64, 256, 1024));

}  // namespace
