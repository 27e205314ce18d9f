/// \file test_core_solver.cpp
/// \brief Tests of the proposed linearised state-space engine (paper §II).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <numbers>
#include <stdexcept>
#include <string>

#include "common/error.hpp"
#include "core/linearised_solver.hpp"
#include "core/trace.hpp"
#include "experiments/scenarios.hpp"
#include "io/spec_json.hpp"
#include "linalg/eigen.hpp"
#include "linalg/spectral.hpp"
#include "ode/stability.hpp"
#include "sim/harvester_session.hpp"
#include "support/test_blocks.hpp"

namespace {

using ehsim::SolverError;
using ehsim::core::LinearisedSolver;
using ehsim::core::SolverConfig;
using ehsim::core::SystemAssembler;
using ehsim::core::TraceRecorder;
using ehsim::testing::CapacitorBlock;
using ehsim::testing::CubicDecayBlock;
using ehsim::testing::OscillatorBlock;
using ehsim::testing::SourceResistorBlock;

struct RcSystem {
  SystemAssembler assembler;
  ehsim::core::BlockHandle source;
  double r;
  double c;

  explicit RcSystem(double r_in = 10.0, double c_in = 0.05, double vc0 = 0.0,
                    std::function<double(double)> vs = [](double) { return 1.0; }) {
    r = r_in;
    c = c_in;
    source = assembler.add_block(std::make_unique<SourceResistorBlock>(std::move(vs), r));
    const auto cap = assembler.add_block(std::make_unique<CapacitorBlock>(c, vc0));
    const auto v = assembler.net("V");
    const auto i = assembler.net("I");
    assembler.bind(source, 0, v);
    assembler.bind(source, 1, i);
    assembler.bind(cap, 0, v);
    assembler.bind(cap, 1, i);
    assembler.elaborate();
  }
};

TEST(LinearisedSolver, RcChargingMatchesAnalytic) {
  RcSystem rc;
  LinearisedSolver solver(rc.assembler);
  solver.initialise(0.0);
  const double tau = rc.r * rc.c;
  solver.advance_to(3.0 * tau);
  const double expected = 1.0 - std::exp(-3.0);
  EXPECT_NEAR(solver.state()[0], expected, 2e-4);
  // Terminal variables are consistent at the end point: V = vc, I = (Vs-V)/R.
  EXPECT_NEAR(solver.terminals()[0], solver.state()[0], 1e-9);
  EXPECT_NEAR(solver.terminals()[1], (1.0 - solver.state()[0]) / rc.r, 1e-9);
}

TEST(LinearisedSolver, InitialisationSolvesTerminalsConsistently) {
  RcSystem rc(10.0, 0.05, 0.25);
  LinearisedSolver solver(rc.assembler);
  solver.initialise(0.0);
  EXPECT_NEAR(solver.terminals()[0], 0.25, 1e-9);                 // V = vc0
  EXPECT_NEAR(solver.terminals()[1], (1.0 - 0.25) / 10.0, 1e-9);  // I
}

TEST(LinearisedSolver, AdvanceBeforeInitialiseThrows) {
  RcSystem rc;
  LinearisedSolver solver(rc.assembler);
  EXPECT_THROW(solver.advance_to(1.0), SolverError);
}

TEST(LinearisedSolver, TimeCannotGoBackwards) {
  RcSystem rc;
  LinearisedSolver solver(rc.assembler);
  solver.initialise(0.0);
  solver.advance_to(0.5);
  EXPECT_THROW(solver.advance_to(0.25), SolverError);
}

TEST(LinearisedSolver, LandsExactlyOnTarget) {
  RcSystem rc;
  LinearisedSolver solver(rc.assembler);
  solver.initialise(0.0);
  solver.advance_to(0.123456);
  EXPECT_DOUBLE_EQ(solver.time(), 0.123456);
}

TEST(LinearisedSolver, ObserverSeesMonotoneConsistentPoints) {
  RcSystem rc;
  LinearisedSolver solver(rc.assembler);
  double last_t = -1.0;
  std::size_t count = 0;
  solver.add_observer([&](double t, std::span<const double> x, std::span<const double> y) {
    EXPECT_GT(t, last_t);
    last_t = t;
    EXPECT_NEAR(y[0], x[0], 1e-7);  // V tracks vc at every point
    ++count;
  });
  solver.initialise(0.0);
  solver.advance_to(0.2);
  EXPECT_GT(count, 10u);
}

TEST(LinearisedSolver, CubicDecayTracksAnalyticThroughRelinearisation) {
  // Non-linear plant: each step re-linearises (paper Eq. 2); the LLE
  // monitor sees genuine Jacobian drift here.
  SystemAssembler assembler;
  const auto handle = assembler.add_block(std::make_unique<CubicDecayBlock>(1.0, 2.0));
  assembler.elaborate();
  SolverConfig config;
  config.h_max = 1e-3;
  LinearisedSolver solver(assembler, config);
  solver.initialise(0.0);
  solver.advance_to(1.0);
  const auto& cubic = assembler.block_as<CubicDecayBlock>(handle);
  EXPECT_NEAR(solver.state()[0], cubic.analytic(1.0), 1e-4);
  EXPECT_GT(solver.last_lle_drift(), 0.0);
}

TEST(LinearisedSolver, StabilityCapBindsForStiffRc) {
  // tau = 1e-4: the Eq. 7 cap must keep h near the stability limit and the
  // result must stay finite and accurate.
  RcSystem rc(1.0, 1e-4);
  SolverConfig config;
  config.h_max = 1e-2;  // far beyond the stability limit
  config.max_ab_order = 2;
  LinearisedSolver solver(rc.assembler, config);
  solver.initialise(0.0);
  solver.advance_to(5e-4);
  EXPECT_LT(solver.stability_step_cap(), 2e-4);
  // Running at the stability cap trades per-step accuracy on the fast mode;
  // the solution stays bounded and lands near the analytic value.
  EXPECT_NEAR(solver.state()[0], 1.0 - std::exp(-5.0), 2e-2);
}

TEST(LinearisedSolver, DisabledStabilityCapDivergesOnStiffSystem) {
  // The ablation A3 behaviour: fixed large step without the Eq. 7 cap
  // diverges (this is exactly what the paper's stability argument prevents).
  RcSystem rc(1.0, 1e-5);
  SolverConfig config;
  config.enable_stability_cap = false;
  config.enable_lle_control = false;
  config.fixed_step = 1e-3;  // 100x the stability limit
  LinearisedSolver solver(rc.assembler, config);
  solver.initialise(0.0);
  EXPECT_THROW(solver.advance_to(0.2), SolverError);
}

TEST(LinearisedSolver, OscillatorAmplitudePreservedOverManyPeriods) {
  SystemAssembler assembler;
  const double omega = 2.0 * std::numbers::pi * 70.0;
  const double zeta = 0.01;
  assembler.add_block(std::make_unique<OscillatorBlock>(omega, zeta, 1.0));
  assembler.elaborate();
  SolverConfig config;
  config.h_max = 5e-5;  // resolve the period well (numerical damping ~ h^2)
  LinearisedSolver solver(assembler, config);
  solver.initialise(0.0);
  const double t_end = 10.0 * 2.0 * std::numbers::pi / omega;  // 10 periods
  solver.advance_to(t_end);
  const double expected_envelope = std::exp(-zeta * omega * t_end);
  const double energy_like = std::hypot(solver.state()[0], solver.state()[1] / omega);
  EXPECT_NEAR(energy_like, expected_envelope, 0.02);
}

TEST(LinearisedSolver, EpochChangeResetsHistory) {
  RcSystem rc;
  LinearisedSolver solver(rc.assembler);
  solver.initialise(0.0);
  solver.advance_to(0.1);
  const auto resets_before = solver.stats().history_resets;
  rc.assembler.block_as<SourceResistorBlock>(rc.source).set_resistance(100.0);
  solver.advance_to(0.2);
  EXPECT_EQ(solver.stats().history_resets, resets_before + 1);
}

TEST(LinearisedSolver, ParameterChangeMidRunChangesDynamics) {
  RcSystem rc(10.0, 0.05);
  LinearisedSolver solver(rc.assembler);
  solver.initialise(0.0);
  solver.advance_to(2.0);  // tau = 0.5 s: vc(2) = 1 - e^-4
  const double vc_2 = 1.0 - std::exp(-4.0);
  ASSERT_NEAR(solver.state()[0], vc_2, 2e-3);
  // Weaken the source by 10x: the new time constant is 5 s, so over the
  // next 0.1 s vc moves only ~2% of the remaining gap.
  rc.assembler.block_as<SourceResistorBlock>(rc.source).set_resistance(100.0);
  solver.advance_to(2.1);
  const double expected = 1.0 + (vc_2 - 1.0) * std::exp(-0.1 / 5.0);
  EXPECT_NEAR(solver.state()[0], expected, 2e-3);
}

TEST(LinearisedSolver, StatsArePopulated) {
  RcSystem rc;
  LinearisedSolver solver(rc.assembler);
  solver.initialise(0.0);
  solver.advance_to(0.5);
  const auto& stats = solver.stats();
  EXPECT_GT(stats.steps, 0u);
  EXPECT_GT(stats.jacobian_builds, 0u);
  EXPECT_GT(stats.algebraic_solves, 0u);
  EXPECT_GT(stats.stability_recomputes, 0u);
  EXPECT_GT(stats.max_step, 0.0);
  EXPECT_GT(stats.min_step, 0.0);
  EXPECT_LE(stats.min_step, stats.max_step);
}

TEST(LinearisedSolver, FixedStepModeUsesExactStep) {
  RcSystem rc(10.0, 0.5);  // tau = 5 s, very relaxed
  SolverConfig config;
  config.fixed_step = 1e-3;
  config.enable_lle_control = false;
  LinearisedSolver solver(rc.assembler, config);
  solver.initialise(0.0);
  solver.advance_to(0.1);
  EXPECT_NEAR(solver.stats().max_step, 1e-3, 1e-12);
  // Every step except a possible final alignment sliver is exactly h.
  EXPECT_NEAR(static_cast<double>(solver.stats().steps), 100.0, 2.0);
}

TEST(LinearisedSolver, RejectsBadConfig) {
  RcSystem rc;
  SolverConfig bad;
  bad.max_ab_order = 7;
  EXPECT_THROW(LinearisedSolver(rc.assembler, bad), ehsim::ModelError);
  SolverConfig bad2;
  bad2.h_min = 0.0;
  EXPECT_THROW(LinearisedSolver(rc.assembler, bad2), ehsim::ModelError);
}

TEST(LinearisedSolver, TraceRecorderCapturesWaveform) {
  RcSystem rc;
  LinearisedSolver solver(rc.assembler);
  TraceRecorder trace(solver, 0.0);
  trace.probe_state("cap.vc");
  trace.probe_net("V");
  trace.probe_expression("power",
                         [](std::span<const double>, std::span<const double> y) {
                           return y[0] * y[1];
                         });
  solver.initialise(0.0);
  solver.advance_to(0.5);
  ASSERT_GT(trace.size(), 5u);
  EXPECT_EQ(trace.times().size(), trace.column("cap.vc").size());
  // Monotone charging curve.
  const auto& vc = trace.column("cap.vc");
  EXPECT_LT(vc.front(), vc.back());
  EXPECT_THROW((void)trace.column("nope"), ehsim::ModelError);
}

/// Two decoupled decays whose Jacobian entry d(fx0)/d(x0) turns NaN at
/// t = 0.5, together with the signature; the residuals stay finite.
class PoisonedJacobianBlock final : public ehsim::core::AnalogBlock {
 public:
  PoisonedJacobianBlock() : AnalogBlock("poisoned", 2, 0, 0) {}

  void initial_state(std::span<double> x) const override {
    x[0] = 1.0;
    x[1] = 1.0;
  }

  void eval(double, std::span<const double> x, std::span<const double>, std::span<double> fx,
            std::span<double>) const override {
    fx[0] = -x[0];
    fx[1] = -2.0 * x[1];
  }

  void jacobians(double t, std::span<const double>, std::span<const double>,
                 ehsim::linalg::Matrix& jxx, ehsim::linalg::Matrix&, ehsim::linalg::Matrix&,
                 ehsim::linalg::Matrix&) const override {
    jxx(0, 0) = t < 0.5 ? -1.0 : std::numeric_limits<double>::quiet_NaN();
    jxx(1, 1) = -2.0;
  }

  [[nodiscard]] std::uint64_t jacobian_signature(double t, std::span<const double>,
                                                 std::span<const double>) const override {
    return t < 0.5 ? 1 : 2;
  }

  [[nodiscard]] std::string state_name(std::size_t i) const override {
    return i == 0 ? "a" : "b";
  }
};

TEST(LinearisedSolver, NonFiniteLinearisationIsRefusedByStateAndTime) {
  SystemAssembler assembler;
  assembler.add_block(std::make_unique<PoisonedJacobianBlock>());
  assembler.elaborate();
  LinearisedSolver solver(assembler);
  // A cap computed from the NaN can collapse to h_min; stop such a run
  // (about 4,000 points reach t = 2 on finite caps) instead of waiting.
  std::size_t points = 0;
  solver.add_observer([&](double, std::span<const double>, std::span<const double>) {
    if (++points > 100000) {
      throw std::runtime_error("runaway march: the NaN reached the Eq. 7 cap");
    }
  });
  solver.initialise(0.0);
  try {
    solver.advance_to(2.0);
    FAIL() << "a NaN Jacobian entry reached the end of the run";
  } catch (const SolverError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("poisoned.a"), std::string::npos) << what;
    const auto at = what.find("t=");
    ASSERT_NE(at, std::string::npos) << what;
    const double t = std::stod(what.substr(at + 2));
    EXPECT_GE(t, 0.5) << what;
    EXPECT_LT(t, 2.0) << what;
  }
}

TEST(LinearisedSolver, InfiniteHMaxStillInstallsTheSpectralCap) {
  // The oscillator's zero-diagonal position row defeats the dominance rule
  // and h_max bounds nothing: the cap comes from the spectrum alone.
  SystemAssembler assembler;
  const double omega = 2.0 * std::numbers::pi * 70.0;
  assembler.add_block(std::make_unique<OscillatorBlock>(omega, 0.01, 1.0));
  assembler.elaborate();
  SolverConfig config;
  config.h_max = std::numeric_limits<double>::infinity();
  LinearisedSolver solver(assembler, config);
  solver.initialise(0.0);
  solver.advance_to(1e-3);
  const auto a = solver.eliminated_matrix();
  ASSERT_TRUE(std::isinf(ehsim::ode::max_stable_step(a, config.max_ab_order, 1.0).h_max));
  const double cap = solver.stability_step_cap();
  ASSERT_TRUE(std::isfinite(cap));
  EXPECT_EQ(cap, config.stability_safety *
                     ehsim::ode::refine_stable_step(a, config.max_ab_order,
                                                    std::numeric_limits<double>::infinity(),
                                                    config.h_min));
  // AB2's region is thin near the imaginary axis: the lightly damped pair
  // binds well inside the real-axis limit 1 / omega.
  EXPECT_LT(cap / config.stability_safety, 0.5 / omega);
}

TEST(LinearisedSolver, SpectralCapMatchesThePowerIterationFormulaOnGoldenCharging) {
  // At every signature change of the golden_charging run, the cap from the
  // QR spectrum alone equals the former formula: the power-iteration bound
  // L_p / rho followed by the same spectral pass.
  const auto spec = *ehsim::io::load_spec_file(std::string(EHSIM_SOURCE_DIR) +
                                               "/tests/golden/golden_charging.json")
                         .get_if<ehsim::experiments::ExperimentSpec>();
  ehsim::sim::HarvesterSession session = ehsim::experiments::make_experiment_session(spec);
  auto& solver = dynamic_cast<LinearisedSolver&>(session.engine());
  const SolverConfig& config = solver.config();
  const std::size_t order = config.max_ab_order;
  const double h_request_max = 10.0 * std::max(config.h_max, config.fixed_step);
  std::size_t compared = 0;
  std::size_t without_dominance = 0;
  double worst = 0.0;
  bool first = true;
  std::uint64_t signature = 0;
  session.add_observer([&](double, std::span<const double>, std::span<const double>) {
    if (!first && solver.jacobian_signature() == signature) {
      return;
    }
    first = false;
    signature = solver.jacobian_signature();
    const auto a = solver.eliminated_matrix();
    const auto limit = ehsim::ode::max_stable_step(a, order, 1.0);
    const double cap = ehsim::ode::refine_stable_step(
        a, order, std::min(limit.h_max, h_request_max), config.h_min);
    double reference_upper = limit.h_max;
    if (limit.source == ehsim::ode::StabilityLimitSource::kSpectrum) {
      ++without_dominance;
      reference_upper = ehsim::ode::ab_real_axis_stability_limit(order) /
                        ehsim::linalg::power_iteration_spectral_radius(a).radius;
    }
    const double reference = ehsim::ode::max_stable_step_spectral(
        ehsim::linalg::eigenvalues(a), order, std::min(reference_upper, h_request_max));
    worst = std::max(worst, std::abs(cap - reference) / reference);
    ++compared;
  });
  session.initialise(0.0);
  session.run_until(spec.duration);
  EXPECT_GT(compared, 1000u);
  EXPECT_EQ(without_dominance, compared);
  EXPECT_LE(worst, 1e-7);
}

TEST(LinearisedSolver, HigherOrderIsMoreAccurateOnSmoothProblem) {
  auto run = [](std::size_t order) {
    SystemAssembler assembler;
    const auto handle = assembler.add_block(std::make_unique<CubicDecayBlock>(1.0, 2.0));
    SolverConfig config;
    config.max_ab_order = order;
    config.fixed_step = 2e-3;
    config.enable_lle_control = false;
    LinearisedSolver solver(assembler, config);
    solver.initialise(0.0);
    solver.advance_to(1.0);
    return std::abs(solver.state()[0] -
                    assembler.block_as<CubicDecayBlock>(handle).analytic(1.0));
  };
  EXPECT_LT(run(2), run(1) * 0.5);
}

}  // namespace
