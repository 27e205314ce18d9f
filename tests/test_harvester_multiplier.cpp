/// \file test_harvester_multiplier.cpp
/// \brief Dickson voltage multiplier block tests (paper Eq. 14).
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <numbers>

#include "core/linearised_solver.hpp"
#include "harvester/dickson_multiplier.hpp"
#include "linalg/matrix.hpp"

namespace {

using ehsim::core::SystemAssembler;
using ehsim::harvester::DeviceEvalMode;
using ehsim::harvester::DicksonMultiplier;
using ehsim::harvester::MultiplierParams;
using ehsim::linalg::Matrix;
using ehsim::linalg::Vector;

MultiplierParams small_params(std::size_t stages = 5) {
  MultiplierParams p;
  p.stages = stages;
  return p;
}

TEST(Multiplier, Dimensions) {
  DicksonMultiplier mult(small_params(5), DeviceEvalMode::kPwlTable);
  EXPECT_EQ(mult.num_states(), 6u);  // 5 pump caps + filter node
  EXPECT_EQ(mult.num_terminals(), 4u);
  EXPECT_EQ(mult.num_algebraic(), 2u);
  EXPECT_EQ(mult.state_name(4), "V5");
  EXPECT_EQ(mult.state_name(5), "Vf");
  EXPECT_EQ(mult.terminal_name(2), "Vc");
}

TEST(Multiplier, DiodeVoltagesFollowTopology) {
  DicksonMultiplier mult(small_params(3), DeviceEvalMode::kExactShockley);
  // States: V1, V2, V3, Vf.
  Vector x{0.1, 0.2, 0.3, 0.5};
  Vector y{0.5, 1e-3, 1.0, 2e-3};  // Vm, Im, Vc, Ic
  // node0 = 0; node1 = V1 + Vf (odd); node2 = V2; node3 = V3 + Vf.
  const double vd[] = {0.0 - (0.1 + 0.5), (0.1 + 0.5) - 0.2, 0.2 - (0.3 + 0.5),
                       (0.3 + 0.5) - 1.0};
  double id[4];
  for (std::size_t i = 0; i < 4; ++i) {
    id[i] = ehsim::pwl::diode_current(mult.params().diode, vd[i]);
  }
  Vector fx(4), fy(2);
  mult.eval(0.0, x.span(), y.span(), fx.span(), fy.span());
  const double c = mult.params().stage_capacitance;
  const double cf = mult.params().input_filter_capacitance;
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_NEAR(fx[i], (id[i] - id[i + 1]) / c, 1e-9 * std::abs(fx[i])) << i;
  }
  // The odd stages' pump capacitors feed the filter node.
  EXPECT_NEAR(fx[3], (1e-3 + (id[0] - id[1]) + (id[2] - id[3])) / cf, 1e-9 * std::abs(fx[3]));
  EXPECT_NEAR(fy[0], 0.5 - 0.5, 1e-15);
  EXPECT_NEAR(fy[1], 2e-3 - id[3], 1e-12);
}

TEST(Multiplier, JacobiansMatchFiniteDifferences) {
  for (auto mode : {DeviceEvalMode::kPwlTable, DeviceEvalMode::kExactShockley}) {
    DicksonMultiplier mult(small_params(4), mode);
    const std::size_t n = mult.num_states();
    Vector x(n);
    for (std::size_t i = 0; i < n; ++i) {
      x[i] = 0.15 * static_cast<double>(i) - 0.1;
    }
    Vector y{0.4, 1e-4, 1.2, 1e-5};
    Matrix jxx(n, n), jxy(n, 4), jyx(2, n), jyy(2, 4);
    mult.jacobians(0.0, x.span(), y.span(), jxx, jxy, jyx, jyy);

    Vector fx0(n), fy0(2), fx1(n), fy1(2);
    mult.eval(0.0, x.span(), y.span(), fx0.span(), fy0.span());
    const double eps = 1e-8;
    for (std::size_t j = 0; j < n; ++j) {
      Vector xp = x;
      xp[j] += eps;
      mult.eval(0.0, xp.span(), y.span(), fx1.span(), fy1.span());
      for (std::size_t i = 0; i < n; ++i) {
        const double fd = (fx1[i] - fx0[i]) / eps;
        EXPECT_NEAR(jxx(i, j), fd, 1e-3 * std::max(1.0, std::abs(fd)) + 1e-6)
            << "mode " << static_cast<int>(mode) << " dfx" << i << "/dx" << j;
      }
      for (std::size_t i = 0; i < 2; ++i) {
        const double fd = (fy1[i] - fy0[i]) / eps;
        EXPECT_NEAR(jyx(i, j), fd, 1e-3 * std::max(1.0, std::abs(fd)) + 1e-9);
      }
    }
    for (std::size_t j = 0; j < 4; ++j) {
      Vector yp = y;
      yp[j] += eps;
      mult.eval(0.0, x.span(), yp.span(), fx1.span(), fy1.span());
      for (std::size_t i = 0; i < n; ++i) {
        const double fd = (fx1[i] - fx0[i]) / eps;
        EXPECT_NEAR(jxy(i, j), fd, 1e-3 * std::max(1.0, std::abs(fd)) + 1e-6);
      }
      for (std::size_t i = 0; i < 2; ++i) {
        const double fd = (fy1[i] - fy0[i]) / eps;
        EXPECT_NEAR(jyy(i, j), fd, 1e-3 * std::max(1.0, std::abs(fd)) + 1e-9);
      }
    }
  }
}

TEST(Multiplier, PwlAndExactModesAgreeAtModerateBias) {
  // Within the tabulated bias range (the table ends where G hits g_max,
  // ~0.18 V here; beyond it the PWL device is deliberately ohmic).
  DicksonMultiplier pwl(small_params(3), DeviceEvalMode::kPwlTable);
  DicksonMultiplier exact(small_params(3), DeviceEvalMode::kExactShockley);
  Vector x{0.02, 0.04, 0.06, 0.1};
  Vector y{0.1, 0.0, 0.2, 0.0};
  Vector fx_p(4), fy_p(2), fx_e(4), fy_e(2);
  pwl.eval(0.0, x.span(), y.span(), fx_p.span(), fy_p.span());
  exact.eval(0.0, x.span(), y.span(), fx_e.span(), fy_e.span());
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_NEAR(fx_p[i], fx_e[i], 5e-3 * std::max(1.0, std::abs(fx_e[i])) + 1e-4);
  }
}

/// Drive the multiplier from a stiff voltage source and observe the charge
/// pump in action: a harness with source block + multiplier + load.
struct PumpHarness {
  SystemAssembler assembler;
  ehsim::core::BlockHandle mult_handle;
  double amplitude;
  double r_load;

  /// Source: Vm follows vs(t) through a tiny series resistance.
  class StiffSource final : public ehsim::core::AnalogBlock {
   public:
    StiffSource(double amp, double hz)
        : AnalogBlock("src", 0, 2, 1), amp_(amp), w_(2.0 * std::numbers::pi * hz) {}
    void eval(double t, std::span<const double>, std::span<const double> y,
              std::span<double>, std::span<double> fy) const override {
      fy[0] = y[0] - amp_ * std::sin(w_ * t) + 1.0 * y[1];
    }
    void jacobians(double, std::span<const double>, std::span<const double>,
                   Matrix&, Matrix&, Matrix&, Matrix& jyy) const override {
      jyy(0, 0) = 1.0;
      jyy(0, 1) = 1.0;
    }

   private:
    double amp_;
    double w_;
  };

  /// Resistive load at the output port: fy = Ic - Vc/R (current INTO the
  /// port equals the load draw).
  class LoadBlock final : public ehsim::core::AnalogBlock {
   public:
    explicit LoadBlock(double r) : AnalogBlock("load", 1, 2, 1), r_(r) {}
    void initial_state(std::span<double> x) const override { x[0] = 0.0; }
    // Buffer capacitor so the output port has a state: C dv/dt = Ic - v/R.
    void eval(double, std::span<const double> x, std::span<const double> y,
              std::span<double> fx, std::span<double> fy) const override {
      constexpr double c = 1e-5;
      fx[0] = (y[1] - x[0] / r_) / c;
      fy[0] = y[0] - x[0];
    }
    void jacobians(double, std::span<const double>, std::span<const double>,
                   Matrix& jxx, Matrix& jxy, Matrix& jyx, Matrix& jyy) const override {
      constexpr double c = 1e-5;
      jxx(0, 0) = -1.0 / (r_ * c);
      jxy(0, 1) = 1.0 / c;
      jyx(0, 0) = -1.0;
      jyy(0, 0) = 1.0;
    }

   private:
    double r_;
  };

  PumpHarness(std::size_t stages, double amp, double r) : amplitude(amp), r_load(r) {
    const auto src = assembler.add_block(std::make_unique<StiffSource>(amp, 70.0));
    mult_handle = assembler.add_block(
        std::make_unique<DicksonMultiplier>(small_params(stages), DeviceEvalMode::kPwlTable));
    const auto load = assembler.add_block(std::make_unique<LoadBlock>(r));
    const auto vm = assembler.net("Vm");
    const auto im = assembler.net("Im");
    const auto vc = assembler.net("Vc");
    const auto ic = assembler.net("Ic");
    assembler.bind(src, 0, vm);
    assembler.bind(src, 1, im);
    assembler.bind(mult_handle, DicksonMultiplier::kVm, vm);
    assembler.bind(mult_handle, DicksonMultiplier::kIm, im);
    assembler.bind(mult_handle, DicksonMultiplier::kVc, vc);
    assembler.bind(mult_handle, DicksonMultiplier::kIc, ic);
    assembler.bind(load, 0, vc);
    assembler.bind(load, 1, ic);
    assembler.elaborate();
  }

  /// Run and return the lightly-loaded output voltage.
  double settled_output(double t_end) {
    ehsim::core::LinearisedSolver solver(assembler);
    solver.initialise(0.0);
    solver.advance_to(t_end);
    return solver.state()[assembler.num_states() - 1];  // load cap voltage
  }
};

TEST(Multiplier, PumpsChargeAboveInputAmplitude) {
  PumpHarness harness(3, 1.0, 1e6);
  const double vout = harness.settled_output(2.0);
  // A 3-stage pump from a 1 V amplitude must exceed the input peak by a
  // comfortable margin (ideal would approach ~3(Vp - Vd)).
  EXPECT_GT(vout, 1.3);
}

TEST(Multiplier, OutputGrowsWithStageCount) {
  PumpHarness three(3, 1.0, 1e6);
  PumpHarness five(5, 1.0, 1e6);
  const double v3 = three.settled_output(2.5);
  const double v5 = five.settled_output(2.5);
  EXPECT_GT(v5, v3 + 0.4);
}

TEST(Multiplier, HeavierLoadSagsOutput) {
  PumpHarness light(4, 1.0, 1e6);
  PumpHarness heavy(4, 1.0, 2e4);
  EXPECT_GT(light.settled_output(2.0), heavy.settled_output(2.0) + 0.2);
}

TEST(Multiplier, EnergyConservationAtPorts) {
  // Average input power must cover output power plus diode losses (>= 0).
  PumpHarness harness(3, 1.0, 1e5);
  ehsim::core::LinearisedSolver solver(harness.assembler);
  solver.initialise(0.0);
  solver.advance_to(1.0);  // settle
  double e_in = 0.0;
  double e_out = 0.0;
  double t_prev = solver.time();
  const auto& sys = harness.assembler;
  const auto vm = sys.find_net("Vm")->index;
  const auto im = sys.find_net("Im")->index;
  const auto vc = sys.find_net("Vc")->index;
  const auto ic = sys.find_net("Ic")->index;
  solver.add_observer([&](double t, std::span<const double>, std::span<const double> y) {
    const double dt = t - t_prev;
    t_prev = t;
    e_in += y[vm] * y[im] * dt;
    e_out += y[vc] * y[ic] * dt;
  });
  solver.advance_to(2.0);
  EXPECT_GT(e_in, 0.0);
  EXPECT_GT(e_out, 0.0);
  EXPECT_GE(e_in, e_out * 0.999);  // losses are non-negative
  EXPECT_LT(e_out / e_in, 1.0);
  EXPECT_GT(e_out / e_in, 0.3);  // and the pump is not absurdly lossy
}

TEST(Multiplier, InvalidConstruction) {
  MultiplierParams p;
  p.stages = 0;
  EXPECT_THROW(DicksonMultiplier(p, DeviceEvalMode::kPwlTable), ehsim::ModelError);
  MultiplierParams p2;
  p2.stage_capacitance = 0.0;
  EXPECT_THROW(DicksonMultiplier(p2, DeviceEvalMode::kPwlTable), ehsim::ModelError);
}

/// Property sweep over stage count: output monotone in stages at light load.
class MultiplierStageSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(MultiplierStageSweep, ProducesDcOutput) {
  const std::size_t stages = GetParam();
  PumpHarness harness(stages, 1.0, 1e6);
  const double vout = harness.settled_output(1.5);
  EXPECT_GT(vout, 0.5 * static_cast<double>(stages) * 0.6);
}

INSTANTIATE_TEST_SUITE_P(Stages, MultiplierStageSweep, ::testing::Values(1, 2, 3, 4, 5, 6));

}  // namespace
