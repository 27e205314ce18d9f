/// \file test_core_internals.cpp
/// \brief LLE monitor, trace CSV, and Jacobian-reuse signature tests.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "core/jacobian_pattern.hpp"
#include "core/linearised_solver.hpp"
#include "core/lle_monitor.hpp"
#include "core/mixed_signal.hpp"
#include "core/trace.hpp"
#include "digital/kernel.hpp"
#include "experiments/scenarios.hpp"
#include "harvester/harvester_system.hpp"
#include "support/test_blocks.hpp"

namespace {

using ehsim::core::LinearisedSolver;
using ehsim::core::LleMonitor;
using ehsim::core::SolverConfig;
using ehsim::core::SystemAssembler;
using ehsim::core::TraceRecorder;
using ehsim::linalg::Matrix;

TEST(LleMonitor, FirstUpdateReportsZero) {
  LleMonitor monitor;
  const Matrix j{{1.0, 0.0}, {0.0, 1.0}};
  EXPECT_EQ(monitor.update(j, j, j, j), 0.0);
  EXPECT_TRUE(monitor.has_previous());
}

TEST(LleMonitor, UnchangedJacobiansReportZeroDrift) {
  LleMonitor monitor;
  const Matrix j{{-3.0, 1.0}, {0.5, -2.0}};
  monitor.update(j, j, j, j);
  EXPECT_EQ(monitor.update(j, j, j, j), 0.0);
}

TEST(LleMonitor, RowRelativeDrift) {
  // A change in a small-magnitude row must be as visible as one in a large
  // row: both rows change by 10% of their own scale.
  LleMonitor monitor;
  Matrix a{{1e6, 0.0}, {0.0, 1e-3}};
  const Matrix zero2x2(2, 2);
  const Matrix zero_any(2, 2);
  monitor.update(a, zero2x2, zero2x2, zero_any);
  Matrix b = a;
  b(1, 1) = 1.1e-3;  // +10% in the tiny row
  const double drift_small_row = monitor.update(b, zero2x2, zero2x2, zero_any);
  EXPECT_NEAR(drift_small_row, 0.1, 0.02);

  Matrix c = b;
  c(0, 0) = 1.1e6;  // +10% in the huge row
  const double drift_big_row = monitor.update(c, zero2x2, zero2x2, zero_any);
  EXPECT_NEAR(drift_big_row, 0.1, 0.02);
}

TEST(LleMonitor, ResetForgetsPrevious) {
  LleMonitor monitor;
  const Matrix j{{-1.0}};
  const Matrix e(1, 1);
  monitor.update(j, e, e, e);
  monitor.reset();
  EXPECT_FALSE(monitor.has_previous());
  EXPECT_EQ(monitor.update(j, e, e, e), 0.0);
}

TEST(JacobianPattern, GroupsEntriesByBlockAndRow) {
  using ehsim::core::JacobianBlock;
  using ehsim::core::JacobianPattern;
  // Two states, one net; entries in any order, one repeated.
  const JacobianPattern pattern(2, 1,
                                {{JacobianBlock::kYY, 0, 0},
                                 {JacobianBlock::kXX, 1, 0},
                                 {JacobianBlock::kXX, 0, 1},
                                 {JacobianBlock::kXX, 1, 1},
                                 {JacobianBlock::kXX, 1, 0}});
  EXPECT_EQ(pattern.size(), 4u);
  EXPECT_EQ(pattern.size(JacobianBlock::kXX), 3u);
  EXPECT_EQ(pattern.size(JacobianBlock::kXY), 0u);
  EXPECT_EQ(pattern.size(JacobianBlock::kYY), 1u);
  ASSERT_EQ(pattern.rows().size(), 3u);
  EXPECT_EQ(pattern.first_row(0), 0u);
  EXPECT_EQ(pattern.first_row(1), 2u);
  EXPECT_EQ(pattern.first_row(2), 2u);
  EXPECT_EQ(pattern.first_row(3), 2u);
  EXPECT_EQ(pattern.first_row(4), 3u);
  EXPECT_EQ(pattern.rows()[0].row, 0u);
  EXPECT_EQ(pattern.rows()[0].end, 1u);
  EXPECT_EQ(pattern.rows()[1].row, 1u);
  EXPECT_EQ(pattern.rows()[1].end, 3u);
  EXPECT_EQ(pattern.indices(), (std::vector<std::uint32_t>{1, 2, 3, 0}));

  EXPECT_EQ(JacobianPattern::every_entry(11, 4).size(), 225u);
  EXPECT_THROW((void)JacobianPattern(2, 1, {{JacobianBlock::kXY, 0, 1}}), ehsim::ModelError);
}

/// Jacobians whose Jxx(0, 0) varies while every other entry holds the
/// constants of one epoch (\p constant).
std::array<Matrix, 4> epoch_jacobians(double varying, double constant) {
  return {Matrix{{varying, constant}, {0.5, -constant}}, Matrix{{1.0}, {constant}},
          Matrix{{-constant, 2.0}}, Matrix{{3.0}}};
}

/// Scans only Jxx(0, 0) (two states, one net).
ehsim::core::JacobianPattern only_jxx00() {
  return ehsim::core::JacobianPattern(2, 1, {{ehsim::core::JacobianBlock::kXX, 0, 0}});
}

/// Feed \p j to both monitors and require the sparse one to report the
/// dense one's drift and to hold its state, bit for bit.
double expect_same_update(LleMonitor& sparse, LleMonitor& dense,
                          const ehsim::core::JacobianPattern& pattern,
                          const std::array<Matrix, 4>& j) {
  const double expected = dense.update(j[0], j[1], j[2], j[3]);
  const double got = sparse.update(j[0], j[1], j[2], j[3], &pattern);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got), std::bit_cast<std::uint64_t>(expected));
  EXPECT_EQ(sparse.checkpoint_state().dump(), dense.checkpoint_state().dump());
  return expected;
}

TEST(LleMonitor, ScanningTheVaryingEntriesIsExactWithinAnEpoch) {
  const auto pattern = only_jxx00();
  LleMonitor sparse;
  LleMonitor dense;
  double max_drift = 0.0;
  for (int k = 0; k < 20; ++k) {
    const double varying = std::sin(0.7 * k) * std::pow(10.0, k % 5);
    max_drift = std::max(max_drift, expect_same_update(sparse, dense, pattern,
                                                       epoch_jacobians(varying, 7.0)));
  }
  EXPECT_GT(max_drift, 0.5);
}

TEST(LleMonitor, TheFirstDriftAfterResetScansEveryEntry) {
  // The new epoch's constant Jxx(0, 1) = 100 outgrows the row scale: a scan
  // of Jxx(0, 0) alone would divide the next change by 3 instead of 100.
  const auto pattern = only_jxx00();
  LleMonitor sparse;
  LleMonitor dense;
  expect_same_update(sparse, dense, pattern, epoch_jacobians(1.0, 1.0));
  expect_same_update(sparse, dense, pattern, epoch_jacobians(2.0, 1.0));
  sparse.reset();
  dense.reset();
  expect_same_update(sparse, dense, pattern, epoch_jacobians(2.0, 100.0));
  EXPECT_EQ(expect_same_update(sparse, dense, pattern, epoch_jacobians(3.0, 100.0)), 0.01);
}

TEST(LleMonitor, ARestoredMonitorScansEveryEntryFirst) {
  // The restored previous Jacobians disagree with the model's constants:
  // the first drift after the restore must see the disagreement, also in a
  // monitor that had already settled into scanning the pattern.
  const auto pattern = only_jxx00();
  LleMonitor source;
  const auto foreign = epoch_jacobians(1.0, -4.0);
  source.update(foreign[0], foreign[1], foreign[2], foreign[3]);
  const ehsim::io::JsonValue state = source.checkpoint_state();
  LleMonitor sparse;
  LleMonitor dense;
  for (const double varying : {1.0, 2.0, 3.0}) {
    expect_same_update(sparse, dense, pattern, epoch_jacobians(varying, 4.0));
  }
  sparse.restore_checkpoint_state(state, 2, 1);
  dense.restore_checkpoint_state(state, 2, 1);
  EXPECT_EQ(expect_same_update(sparse, dense, pattern, epoch_jacobians(1.0, 4.0)), 2.0);
  expect_same_update(sparse, dense, pattern, epoch_jacobians(2.0, 4.0));
  expect_same_update(sparse, dense, pattern, epoch_jacobians(1.0, 4.0));
}

TEST(LleMonitor, RestoreRefusesShapesThatDoNotFitTheModel) {
  LleMonitor source;
  const auto j = epoch_jacobians(1.0, 2.0);
  source.update(j[0], j[1], j[2], j[3]);
  source.update(j[0], j[1], j[2], j[3]);
  const ehsim::io::JsonValue state = source.checkpoint_state();
  LleMonitor target;
  target.restore_checkpoint_state(state, 2, 1);
  try {
    target.restore_checkpoint_state(state, 3, 1);
    ADD_FAILURE() << "a 2-state lle section was restored into a 3-state model";
  } catch (const ehsim::ModelError& error) {
    EXPECT_NE(std::string(error.what()).find("checkpoint.lle.prev_jxx"), std::string::npos)
        << error.what();
  }
}

TEST(TraceRecorder, CsvRoundTrip) {
  SystemAssembler assembler;
  assembler.add_block(std::make_unique<ehsim::testing::CubicDecayBlock>(1.0, 2.0));
  assembler.elaborate();
  LinearisedSolver solver(assembler);
  TraceRecorder trace(solver, 0.0);
  trace.probe_state("cubic.x0");
  solver.initialise(0.0);
  solver.advance_to(0.01);

  std::ostringstream os;
  trace.write_csv(os);
  const std::string csv = os.str();
  EXPECT_NE(csv.find("time,cubic.x0"), std::string::npos);
  // One header plus one line per recorded point.
  std::size_t lines = 0;
  for (char ch : csv) {
    lines += ch == '\n' ? 1u : 0u;
  }
  EXPECT_EQ(lines, trace.size() + 1);
}

TEST(TraceRecorder, DecimationBoundsDensity) {
  SystemAssembler assembler;
  assembler.add_block(std::make_unique<ehsim::testing::CubicDecayBlock>(1.0, 2.0));
  assembler.elaborate();
  SolverConfig config;
  config.fixed_step = 1e-4;
  LinearisedSolver solver(assembler, config);
  TraceRecorder trace(solver, 0.01);  // 100x coarser than the step
  solver.initialise(0.0);
  solver.advance_to(0.5);
  EXPECT_LE(trace.size(), 52u);
  EXPECT_GE(trace.size(), 48u);
}

TEST(JacobianReuse, SignatureStableOnLinearBlock) {
  SystemAssembler assembler;
  assembler.add_block(std::make_unique<ehsim::testing::OscillatorBlock>(100.0, 0.05, 1.0));
  assembler.elaborate();
  ehsim::linalg::Vector x{1.0, 0.0};
  ehsim::linalg::Vector y;
  // Default blocks report kAlwaysRebuild -> strictly fresh values.
  const auto s1 = assembler.jacobian_signature(0.0, x.span(), y.span());
  const auto s2 = assembler.jacobian_signature(0.0, x.span(), y.span());
  EXPECT_NE(s1, s2);
}

TEST(JacobianReuse, HarvesterSkipsRebuildsWithIdenticalTrajectory) {
  using namespace ehsim;
  const auto params =
      experiments::experiment_params(experiments::charging_scenario(1.0));

  auto run = [&](bool reuse) {
    harvester::HarvesterSystem system(params, harvester::DeviceEvalMode::kPwlTable, false);
    SolverConfig config;
    config.enable_jacobian_reuse = reuse;
    LinearisedSolver solver(system.assembler(), config);
    solver.initialise(0.0);
    solver.advance_to(1.0);
    return std::make_tuple(solver.stats().jacobian_builds, solver.stats().steps,
                           solver.state()[system.assembler().state_index({1}, 4)]);
  };
  const auto [builds_on, steps_on, v5_on] = run(true);
  const auto [builds_off, steps_off, v5_off] = run(false);

  EXPECT_LT(builds_on, builds_off / 2);  // at least half the rebuilds skipped
  EXPECT_EQ(builds_off, steps_off + 1);  // disabled: rebuild at every refresh
  EXPECT_NEAR(v5_on, v5_off, 5e-4);      // same physics either way
}

TEST(JacobianReuse, EpochChangeForcesRebuild) {
  using namespace ehsim;
  const auto params =
      experiments::experiment_params(experiments::charging_scenario(1.0));
  harvester::HarvesterSystem system(params, harvester::DeviceEvalMode::kPwlTable, false);
  LinearisedSolver solver(system.assembler());
  solver.initialise(0.0);
  solver.advance_to(0.2);
  const auto builds_before = solver.stats().jacobian_builds;
  system.supercap().set_load_mode(harvester::LoadMode::kAwake);
  solver.advance_to(0.201);
  EXPECT_GT(solver.stats().jacobian_builds, builds_before);
}

TEST(JacobianReuse, ActuatorMotionDisablesGeneratorReuse) {
  using namespace ehsim;
  auto params = experiments::experiment_params(experiments::charging_scenario(1.0));
  harvester::HarvesterSystem system(params, harvester::DeviceEvalMode::kPwlTable, false);

  // While the actuator moves, the generator reports kAlwaysRebuild and every
  // step rebuilds; after arrival, reuse resumes.
  LinearisedSolver solver(system.assembler());
  solver.initialise(0.0);
  solver.advance_to(0.1);
  system.actuator().command(system.actuator().position(0.1) - 0.2e-3, 0.1);
  system.generator().notify_parameter_event();

  const auto steps_a = solver.stats().steps;
  const auto builds_a = solver.stats().jacobian_builds;
  solver.advance_to(0.25);  // motion spans 0.1 .. 0.3 s
  const auto steps_moving = solver.stats().steps - steps_a;
  const auto builds_moving = solver.stats().jacobian_builds - builds_a;
  EXPECT_GE(builds_moving + 1, steps_moving);  // rebuild every step while moving

  solver.advance_to(0.4);  // past arrival
  const auto builds_b = solver.stats().jacobian_builds;
  solver.advance_to(0.6);
  const auto steps_parked = solver.stats().steps - (steps_a + steps_moving);
  (void)steps_parked;
  const auto builds_parked = solver.stats().jacobian_builds - builds_b;
  const auto steps_after = solver.stats().steps;
  EXPECT_LT(builds_parked, (steps_after - steps_a) / 2);  // reuse resumed
}

/// Two-segment decay dx/dt = -rate(x) x with rate switching at x = 0.5: the
/// Jacobian is piecewise constant and the block certifies each segment with
/// its own signature — the minimal model of a PWL device for reuse tests.
class TwoSegmentDecayBlock final : public ehsim::core::AnalogBlock {
 public:
  explicit TwoSegmentDecayBlock(double x0)
      : AnalogBlock("twoseg", 1, 0, 0), x0_(x0) {}

  /// Same dynamics, new epoch: models a digital parameter write.
  void touch_parameters() { bump_epoch(); }

  void initial_state(std::span<double> x) const override { x[0] = x0_; }

  [[nodiscard]] double rate(double x) const noexcept { return x > 0.5 ? 2.0 : 1.0; }

  void eval(double, std::span<const double> x, std::span<const double>,
            std::span<double> fx, std::span<double>) const override {
    fx[0] = -rate(x[0]) * x[0];
  }

  void jacobians(double, std::span<const double> x, std::span<const double>,
                 ehsim::linalg::Matrix& jxx, ehsim::linalg::Matrix&,
                 ehsim::linalg::Matrix&, ehsim::linalg::Matrix&) const override {
    jxx(0, 0) = -rate(x[0]);
  }

  [[nodiscard]] std::uint64_t jacobian_signature(double, std::span<const double> x,
                                                 std::span<const double>) const override {
    return x[0] > 0.5 ? 1 : 2;
  }

 private:
  double x0_;
};

TEST(JacobianReuse, SegmentCrossingForcesExactlyOneRebuild) {
  SystemAssembler assembler;
  assembler.add_block(std::make_unique<TwoSegmentDecayBlock>(1.0));
  assembler.elaborate();
  LinearisedSolver solver(assembler);
  solver.initialise(0.0);
  solver.advance_to(2.0);  // x decays 1.0 -> ~0.2, crossing 0.5 once
  ASSERT_LT(solver.state()[0], 0.5);
  // One build at the first refresh, one at the segment crossing — every
  // other refresh is served from the cache.
  EXPECT_EQ(solver.stats().jacobian_builds, 2u);
  EXPECT_GE(solver.stats().jacobian_reuses, solver.stats().steps - 2);
}

TEST(JacobianReuse, EpochBumpForcesRebuildDespiteUnchangedSignature) {
  SystemAssembler assembler;
  const auto handle = assembler.add_block(std::make_unique<TwoSegmentDecayBlock>(1.0));
  assembler.elaborate();
  LinearisedSolver solver(assembler);
  solver.initialise(0.0);
  solver.advance_to(0.05);  // x stays > 0.5: signature constant
  EXPECT_EQ(solver.stats().jacobian_builds, 1u);
  EXPECT_EQ(solver.stats().history_resets, 0u);

  assembler.block_as<TwoSegmentDecayBlock>(handle).touch_parameters();
  solver.advance_to(0.1);  // still > 0.5: only the epoch changed
  EXPECT_EQ(solver.stats().jacobian_builds, 2u);
  EXPECT_EQ(solver.stats().history_resets, 1u);
}

TEST(JacobianReuse, DigitalDiscontinuityRestartForcesRebuild) {
  SystemAssembler assembler;
  const auto handle = assembler.add_block(std::make_unique<TwoSegmentDecayBlock>(1.0));
  assembler.elaborate();
  LinearisedSolver solver(assembler);
  solver.initialise(0.0);

  ehsim::digital::Kernel kernel;
  kernel.schedule_at(0.04, [&assembler, handle] {
    assembler.block_as<TwoSegmentDecayBlock>(handle).touch_parameters();
  });
  ehsim::core::MixedSignalSimulator sim(solver, kernel);
  sim.run_until(0.08);

  // The digital event at t = 0.04 restarts the multistep history and
  // invalidates the cached Jacobians/LU even though the PWL segment (and
  // thus the signature) never changed.
  EXPECT_EQ(solver.stats().history_resets, 1u);
  EXPECT_EQ(solver.stats().jacobian_builds, 2u);
  EXPECT_GT(solver.stats().jacobian_reuses, 0u);
}

}  // namespace
