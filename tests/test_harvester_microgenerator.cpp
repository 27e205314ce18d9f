/// \file test_harvester_microgenerator.cpp
/// \brief Microgenerator block and tuning mechanism tests (paper Eqs. 8-13).
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <numbers>

#include "core/linearised_solver.hpp"
#include "harvester/microgenerator.hpp"
#include "harvester/tuning.hpp"
#include "harvester/vibration_source.hpp"
#include "linalg/matrix.hpp"

namespace {

using ehsim::harvester::ActuatorParams;
using ehsim::harvester::HarvesterParams;
using ehsim::harvester::LinearActuator;
using ehsim::harvester::Microgenerator;
using ehsim::harvester::MicrogeneratorParams;
using ehsim::harvester::TuningMechanism;
using ehsim::harvester::VibrationProfile;
using ehsim::linalg::Matrix;

struct GenFixture {
  HarvesterParams params;
  VibrationProfile vibration;
  TuningMechanism tuning;
  LinearActuator actuator;

  GenFixture() : vibration(params.vibration), tuning(params.tuning, params.generator),
                 actuator(params.actuator, params.tuning) {}

  std::unique_ptr<Microgenerator> make(double lc = 0.0) {
    MicrogeneratorParams gp = params.generator;
    gp.coil_inductance = lc;
    return std::make_unique<Microgenerator>(gp, vibration, tuning, actuator);
  }
};

TEST(TuningMechanism, Eq12ResonanceMap) {
  GenFixture fx;
  // Eq. 12: f0r = fr sqrt(1 + Ft/Fb); verify against the force law directly.
  const double gap = 2e-3;
  const double ft = fx.tuning.force_at_gap(gap);
  const double expected = fx.params.generator.untuned_resonance_hz *
                          std::sqrt(1.0 + ft / fx.params.tuning.buckling_load);
  EXPECT_NEAR(fx.tuning.resonance_at_gap(gap), expected, 1e-12);
}

TEST(TuningMechanism, ForceDecreasesWithGap) {
  GenFixture fx;
  EXPECT_GT(fx.tuning.force_at_gap(1e-3), fx.tuning.force_at_gap(2e-3));
  EXPECT_GT(fx.tuning.force_at_gap(2e-3), fx.tuning.force_at_gap(6e-3));
}

TEST(TuningMechanism, GapForFrequencyInvertsResonance) {
  GenFixture fx;
  for (double f : {66.0, 70.0, 74.0, 77.0}) {
    const double gap = fx.tuning.gap_for_frequency(f);
    EXPECT_NEAR(fx.tuning.resonance_at_gap(gap), f, 0.01) << "f=" << f;
  }
}

TEST(TuningMechanism, FourteenHzTuningRange) {
  // The paper's device tunes over ~14 Hz (scenario 2 = maximum range).
  GenFixture fx;
  // The lowest resonance is at the widest gap, the highest at the narrowest.
  const double min_resonance = fx.tuning.resonance_at_gap(fx.params.tuning.gap_max);
  const double max_resonance = fx.tuning.resonance_at_gap(fx.params.tuning.gap_min);
  EXPECT_GT(max_resonance - min_resonance, 13.0);
  EXPECT_LT(min_resonance, 64.5);
  EXPECT_GT(max_resonance, 78.0);
}

TEST(TuningMechanism, OutOfRangeFrequenciesClampToTravel) {
  GenFixture fx;
  EXPECT_DOUBLE_EQ(fx.tuning.gap_for_frequency(10.0), fx.params.tuning.gap_max);
  EXPECT_DOUBLE_EQ(fx.tuning.gap_for_frequency(500.0), fx.params.tuning.gap_min);
}

TEST(TuningMechanism, StiffnessMatchesResonance) {
  GenFixture fx;
  const double gap = 1.5e-3;
  const double ks = fx.tuning.stiffness_at_gap(gap);
  const double f = fx.tuning.resonance_at_gap(gap);
  const double m = fx.params.generator.proof_mass;
  EXPECT_NEAR(std::sqrt(ks / m) / (2.0 * std::numbers::pi), f, 1e-9);
}

TEST(Actuator, MovesAtConstantSpeedAndArrives) {
  GenFixture fx;
  LinearActuator actuator(fx.params.actuator, fx.params.tuning);
  const double start = actuator.position(0.0);
  actuator.command(start - 1e-3, 10.0);
  EXPECT_FALSE(actuator.moving(9.9));
  EXPECT_TRUE(actuator.moving(10.5));
  EXPECT_NEAR(actuator.position(10.5), start - 0.5e-3, 1e-12);
  EXPECT_NEAR(actuator.arrival_time(), 10.0 + 1e-3 / fx.params.actuator.speed, 1e-12);
  EXPECT_NEAR(actuator.position(20.0), start - 1e-3, 1e-12);
  EXPECT_FALSE(actuator.moving(20.0));
}

TEST(Actuator, StopHoldsPosition) {
  GenFixture fx;
  LinearActuator actuator(fx.params.actuator, fx.params.tuning);
  const double start = actuator.position(0.0);
  actuator.command(start - 2e-3, 0.0);
  actuator.stop(1.0);
  const double held = actuator.position(1.0);
  EXPECT_NEAR(held, start - 1e-3, 1e-9);
  EXPECT_NEAR(actuator.position(100.0), held, 1e-12);
}

TEST(Actuator, CommandsClampToTravelLimits) {
  GenFixture fx;
  LinearActuator actuator(fx.params.actuator, fx.params.tuning);
  actuator.command(1.0, 0.0);  // way beyond gap_max
  EXPECT_LE(actuator.position(1e6), fx.params.tuning.gap_max);
}

TEST(Microgenerator, DimensionsPerCoilVariant) {
  GenFixture fx;
  EXPECT_EQ(fx.make(0.0)->num_states(), 2u);
  EXPECT_EQ(fx.make(9.5e-3)->num_states(), 3u);
  EXPECT_EQ(fx.make(0.0)->num_terminals(), 2u);
  EXPECT_EQ(fx.make(0.0)->num_algebraic(), 1u);
}

TEST(Microgenerator, JacobianMatchesFiniteDifferences) {
  GenFixture fx;
  for (double lc : {0.0, 9.5e-3}) {
    auto gen = fx.make(lc);
    const std::size_t n = gen->num_states();
    ehsim::linalg::Vector x(n);
    for (std::size_t i = 0; i < n; ++i) {
      x[i] = 0.01 * static_cast<double>(i + 1);
    }
    ehsim::linalg::Vector y{0.5, 0.001};
    Matrix jxx(n, n), jxy(n, 2), jyx(1, n), jyy(1, 2);
    gen->jacobians(0.1, x.span(), y.span(), jxx, jxy, jyx, jyy);

    ehsim::linalg::Vector fx0(n), fy0(1), fx1(n), fy1(1);
    const double eps = 1e-7;
    for (std::size_t j = 0; j < n; ++j) {
      ehsim::linalg::Vector xp = x;
      xp[j] += eps;
      gen->eval(0.1, x.span(), y.span(), fx0.span(), fy0.span());
      gen->eval(0.1, xp.span(), y.span(), fx1.span(), fy1.span());
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_NEAR(jxx(i, j), (fx1[i] - fx0[i]) / eps, 1e-4 * std::max(1.0, std::abs(jxx(i, j))))
            << "lc=" << lc << " d fx" << i << "/dx" << j;
      }
      EXPECT_NEAR(jyx(0, j), (fy1[0] - fy0[0]) / eps, 1e-4 * std::max(1.0, std::abs(jyx(0, j))));
    }
    for (std::size_t j = 0; j < 2; ++j) {
      ehsim::linalg::Vector yp = y;
      yp[j] += eps;
      gen->eval(0.1, x.span(), y.span(), fx0.span(), fy0.span());
      gen->eval(0.1, x.span(), yp.span(), fx1.span(), fy1.span());
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_NEAR(jxy(i, j), (fx1[i] - fx0[i]) / eps, 1e-4 * std::max(1.0, std::abs(jxy(i, j))));
      }
      EXPECT_NEAR(jyy(0, j), (fy1[0] - fy0[0]) / eps, 1e-4 * std::max(1.0, std::abs(jyy(0, j))));
    }
  }
}

TEST(Microgenerator, ResonantFrequencyTracksActuator) {
  GenFixture fx;
  auto gen = fx.make();
  const double f_before = gen->resonant_frequency(0.0);
  fx.actuator.command(fx.tuning.gap_for_frequency(72.0), 0.0);
  const double f_after = gen->resonant_frequency(1e4);  // long after arrival
  EXPECT_NEAR(f_before, fx.tuning.resonance_at_gap(fx.params.actuator.initial_gap), 1e-9);
  EXPECT_NEAR(f_after, 72.0, 0.01);
}

TEST(Microgenerator, OpenCircuitResonanceRings) {
  // With Im = 0 (open circuit), the block is the classic mass-spring-damper:
  // drive at resonance and check the amplitude approaches a*Q/w^2.
  GenFixture fx;
  ehsim::core::SystemAssembler assembler;
  MicrogeneratorParams gp = fx.params.generator;
  auto gen = std::make_unique<Microgenerator>(gp, fx.vibration, fx.tuning, fx.actuator);
  // Open circuit: bind to a dummy "open" block enforcing Im = 0.
  class OpenBlock final : public ehsim::core::AnalogBlock {
   public:
    OpenBlock() : AnalogBlock("open", 0, 2, 1) {}
    void eval(double, std::span<const double>, std::span<const double> y,
              std::span<double>, std::span<double> fy) const override {
      fy[0] = y[1];  // I = 0
    }
    void jacobians(double, std::span<const double>, std::span<const double>,
                   ehsim::linalg::Matrix&, ehsim::linalg::Matrix&, ehsim::linalg::Matrix&,
                   ehsim::linalg::Matrix& jyy) const override {
      jyy(0, 1) = 1.0;
    }
  };
  const auto gen_handle = assembler.add_block(std::move(gen));
  const auto open_handle = assembler.add_block(std::make_unique<OpenBlock>());
  const auto vm = assembler.net("Vm");
  const auto im = assembler.net("Im");
  assembler.bind(gen_handle, 0, vm);
  assembler.bind(gen_handle, 1, im);
  assembler.bind(open_handle, 0, vm);
  assembler.bind(open_handle, 1, im);
  assembler.elaborate();

  // Tune the generator to the ambient frequency (70 Hz default profile).
  fx.actuator.command(fx.tuning.gap_for_frequency(70.0), 0.0);

  ehsim::core::SolverConfig solver_config;
  solver_config.h_max = 5e-5;  // limit AB2 numerical damping of the resonance
  ehsim::core::LinearisedSolver solver(assembler, solver_config);
  solver.initialise(1e5);  // long after actuator arrival: fixed stiffness
  double z_peak = 0.0;
  solver.add_observer([&](double, std::span<const double> x, std::span<const double>) {
    z_peak = std::max(z_peak, std::abs(x[0]));
  });
  solver.advance_to(1e5 + 3.0);

  const double omega = 2.0 * std::numbers::pi * 70.0;
  const double m = fx.params.generator.proof_mass;
  const double cp = fx.params.generator.parasitic_damping;
  const double a = fx.params.vibration.acceleration_amplitude;
  // Steady state amplitude at resonance: z = m a / (cp w).
  const double expected = m * a / (cp * omega);
  EXPECT_NEAR(z_peak, expected, 0.1 * expected);
}

TEST(Microgenerator, ElectromagneticCouplingSignsArePassive) {
  // At positive velocity with positive port current the EM force must
  // oppose the motion (Lenz's law) — guard against sign regressions.
  GenFixture fx;
  auto gen = fx.make(0.0);
  ehsim::linalg::Vector x{0.0, 0.1};  // moving up
  ehsim::linalg::Vector y{0.0, 0.01}; // positive port current
  ehsim::linalg::Vector fxv(2), fyv(1);
  gen->eval(0.0, x.span(), y.span(), fxv.span(), fyv.span());
  ehsim::linalg::Vector y0{0.0, 0.0};
  ehsim::linalg::Vector fxv0(2), fyv0(1);
  gen->eval(0.0, x.span(), y0.span(), fxv0.span(), fyv0.span());
  EXPECT_LT(fxv[1], fxv0[1]);  // current reduces acceleration
}

TEST(Microgenerator, StateAndTerminalNames) {
  GenFixture fx;
  auto gen = fx.make(9.5e-3);
  EXPECT_EQ(gen->state_name(0), "z");
  EXPECT_EQ(gen->state_name(1), "dz");
  EXPECT_EQ(gen->state_name(2), "iL");
  EXPECT_EQ(gen->terminal_name(0), "Vm");
  EXPECT_EQ(gen->terminal_name(1), "Im");
}

TEST(VibrationProfile, PhaseContinuousFrequencyShift) {
  ehsim::harvester::VibrationParams vp;
  vp.initial_frequency_hz = 10.0;
  vp.acceleration_amplitude = 1.0;
  VibrationProfile profile(vp);
  profile.set_frequency_at(1.0, 20.0);
  // Acceleration must be continuous at the shift time.
  const double before = profile.acceleration(1.0 - 1e-9);
  const double after = profile.acceleration(1.0 + 1e-9);
  EXPECT_NEAR(before, after, 1e-5);
  EXPECT_DOUBLE_EQ(profile.frequency_at(0.5), 10.0);
  EXPECT_DOUBLE_EQ(profile.frequency_at(1.5), 20.0);
}

TEST(VibrationProfile, RejectsBadSchedules) {
  ehsim::harvester::VibrationParams vp;
  VibrationProfile profile(vp);
  profile.set_frequency_at(2.0, 71.0);
  EXPECT_THROW(profile.set_frequency_at(1.0, 72.0), ehsim::ModelError);
  EXPECT_THROW(profile.set_frequency_at(3.0, -1.0), ehsim::ModelError);
}

}  // namespace
