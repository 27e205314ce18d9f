/// \file test_experiment_spec.cpp
/// \brief Declarative experiment layer: parameter registry, legacy-shim
/// bit-identity, sweep expansion/execution, shared diode tables and the
/// empty-batch fix.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "core/linearised_solver.hpp"
#include "experiments/scenarios.hpp"
#include "experiments/sweep.hpp"
#include "harvester/dickson_multiplier.hpp"
#include "pwl/table_cache.hpp"
#include "sim/harvester_session.hpp"

namespace {

using namespace ehsim::experiments;
using ehsim::ModelError;

// ---- parameter registry ---------------------------------------------------

TEST(ParamRegistry, GetSetRoundTrip) {
  ehsim::harvester::HarvesterParams params;
  EXPECT_DOUBLE_EQ(get_param(params, "generator.proof_mass"), 0.018);
  set_param(params, "generator.proof_mass", 0.02);
  EXPECT_DOUBLE_EQ(params.generator.proof_mass, 0.02);
  set_param(params, "multiplier.stages", 7.0);  // integer field set by rounding
  EXPECT_EQ(params.multiplier.stages, 7u);
  EXPECT_DOUBLE_EQ(get_param(params, "multiplier.stages"), 7.0);
}

TEST(ParamRegistry, UnknownPathThrowsWithName) {
  ehsim::harvester::HarvesterParams params;
  try {
    set_param(params, "generator.does_not_exist", 1.0);
    FAIL() << "expected ModelError";
  } catch (const ModelError& error) {
    EXPECT_NE(std::string(error.what()).find("generator.does_not_exist"), std::string::npos);
  }
}

TEST(ParamRegistry, PathListIsSortedAndCoversTheStructs) {
  const auto paths = param_paths();
  EXPECT_TRUE(std::is_sorted(paths.begin(), paths.end()));
  for (const char* expected :
       {"generator.flux_linkage", "supercap.initial_voltage", "mcu.watchdog_period",
        "vibration.acceleration_amplitude", "multiplier.diode.saturation_current"}) {
    EXPECT_NE(std::find(paths.begin(), paths.end(), expected), paths.end()) << expected;
  }
  // Every advertised path resolves.
  ehsim::harvester::HarvesterParams params;
  for (const auto& path : paths) {
    (void)get_param(params, path);
  }
}

TEST(ParamRegistry, OverridesApplyInOrder) {
  ehsim::harvester::HarvesterParams params;
  apply_overrides(params, {{"supercap.initial_voltage", 1.0},
                           {"supercap.initial_voltage", 2.5}});
  EXPECT_DOUBLE_EQ(params.supercap.initial_voltage, 2.5);
}

TEST(ExperimentParams, ConflictingOverridesAreRejectedLoudly) {
  ExperimentSpec spec = charging_scenario(1.0);
  spec.overrides.push_back(ParamOverride{"vibration.initial_frequency_hz", 65.0});
  EXPECT_THROW((void)experiment_params(spec), ModelError);  // excitation owns this

  ExperimentSpec gap = charging_scenario(1.0);
  gap.overrides.push_back(ParamOverride{"actuator.initial_gap", 3e-3});
  EXPECT_THROW((void)experiment_params(gap), ModelError);  // pre_tuned_hz owns this
  gap.pre_tuned_hz = 0.0;  // direct actuator positioning is fine
  EXPECT_DOUBLE_EQ(experiment_params(gap).actuator.initial_gap, 3e-3);

  ExperimentSpec amplitude = charging_scenario(1.0);
  amplitude.overrides.push_back(ParamOverride{"vibration.acceleration_amplitude", 0.4});
  // Allowed while the schedule does not pin the amplitude itself...
  EXPECT_DOUBLE_EQ(experiment_params(amplitude).vibration.acceleration_amplitude, 0.4);
  // ...but conflicts once it does.
  amplitude.excitation.initial_amplitude = 0.5;
  EXPECT_THROW((void)experiment_params(amplitude), ModelError);
}

// ---- excitation schedules -------------------------------------------------

TEST(ExcitationSchedule, StepFrequencyBitIdenticalToRawSession) {
  // A step_frequency schedule and a hand-built session using the raw
  // VibrationProfile API must produce the same trace bits.
  ExperimentSpec spec = scenario1();
  spec.duration = 4.0;
  spec.excitation.events.clear();
  spec.excitation.step_frequency(1.5, 71.0);
  spec.with_mcu = false;
  spec.trace_interval = 0.01;
  const ScenarioResult via_spec = run_experiment(spec);

  ehsim::sim::HarvesterSession::Options options;
  options.mode = ehsim::harvester::DeviceEvalMode::kPwlTable;
  options.with_mcu = false;
  ehsim::sim::HarvesterSession session(experiment_params(spec), options);
  session.system().vibration().set_frequency_at(1.5, 71.0);
  session.enable_trace(0.01).probe_net("Vc");
  session.run_until(4.0);

  EXPECT_EQ(via_spec.stats.steps, session.stats().steps);
  EXPECT_EQ(via_spec.time, session.session().trace().times());
  EXPECT_EQ(via_spec.vc, session.session().trace().column("Vc"));
}

// ---- sweep expansion ------------------------------------------------------

SweepSpec small_sweep() {
  SweepSpec sweep;
  sweep.base = charging_scenario(1.0);
  sweep.base.name = "grid";
  sweep.axes.push_back(SweepAxis{"supercap.initial_voltage", {0.5, 1.5, 2.5, 3.3}, {}});
  sweep.axes.push_back(SweepAxis{"multiplier.stages", {4.0, 5.0}, {}});
  return sweep;
}

TEST(SweepSpec, GridExpansionIsRowMajorAndUniquelyNamed) {
  const auto specs = small_sweep().expand();
  ASSERT_EQ(specs.size(), 8u);
  // Last axis fastest.
  EXPECT_EQ(specs[0].name, "grid/supercap.initial_voltage=0.5/multiplier.stages=4");
  EXPECT_EQ(specs[1].name, "grid/supercap.initial_voltage=0.5/multiplier.stages=5");
  EXPECT_EQ(specs[7].name, "grid/supercap.initial_voltage=3.3/multiplier.stages=5");
  // Overrides landed (appended after the base's initial_voltage=0 override).
  ehsim::harvester::HarvesterParams params = experiment_params(specs[7]);
  EXPECT_DOUBLE_EQ(params.supercap.initial_voltage, 3.3);
  EXPECT_EQ(params.multiplier.stages, 5u);
}

TEST(SweepSpec, ZipModeWalksAxesInLockStep) {
  SweepSpec sweep = small_sweep();
  sweep.mode = SweepSpec::Mode::kZip;
  sweep.axes[1].values = {3.0, 4.0, 5.0, 6.0};
  const auto specs = sweep.expand();
  ASSERT_EQ(specs.size(), 4u);
  EXPECT_EQ(experiment_params(specs[2]).multiplier.stages, 5u);
  EXPECT_DOUBLE_EQ(experiment_params(specs[2]).supercap.initial_voltage, 2.5);

  sweep.axes[1].values = {3.0};  // length mismatch
  EXPECT_THROW(sweep.expand(), ModelError);
}

TEST(SweepSpec, EngineAndEventAxesResolve) {
  SweepSpec sweep;
  sweep.base = scenario1();
  sweep.base.duration = 2.0;
  sweep.axes.push_back(
      SweepAxis{"excitation.event[0].frequency_hz", {69.0, 70.5, 72.0}, {}});
  sweep.axes.push_back(SweepAxis{{}, {}, {EngineKind::kProposed, EngineKind::kSystemCA}});
  const auto specs = sweep.expand();
  ASSERT_EQ(specs.size(), 6u);
  EXPECT_DOUBLE_EQ(specs[0].excitation.events[0].frequency_hz, 69.0);
  EXPECT_EQ(specs[0].engine, EngineKind::kProposed);
  EXPECT_EQ(specs[1].engine, EngineKind::kSystemCA);
  EXPECT_NE(specs[1].name.find("engine=systemca"), std::string::npos);

  SweepSpec bad = sweep;
  bad.axes[0].param = "excitation.event[5].frequency_hz";
  EXPECT_THROW(bad.expand(), ModelError);

  // scenario1's event is a frequency_step: it has no amplitude, and writing
  // one would make every job identical. The error names the path and kind.
  bad.axes[0].param = "excitation.event[0].amplitude";
  try {
    (void)bad.expand();
    ADD_FAILURE() << "an amplitude axis on a frequency_step event was accepted";
  } catch (const ModelError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("excitation.event[0].amplitude"), std::string::npos) << what;
    EXPECT_NE(what.find("frequency_step"), std::string::npos) << what;
  }

  // An engine axis with a stale parameter path is a spec bug, not a silent
  // engine-only sweep.
  SweepSpec mixed = sweep;
  mixed.axes[1].param = "multiplier.stages";
  EXPECT_THROW(mixed.expand(), ModelError);
}

TEST(SweepSpec, NearbyAxisValuesGetDistinctJobNames) {
  SweepSpec sweep;
  sweep.base = charging_scenario(1.0);
  sweep.base.name = "fine";
  // Differ only in the 9th significant digit — the names (which double as
  // output file stems) must still be distinct.
  sweep.axes.push_back(
      SweepAxis{"multiplier.stage_capacitance", {1.23456781e-5, 1.23456789e-5}, {}});
  const auto specs = sweep.expand();
  ASSERT_EQ(specs.size(), 2u);
  EXPECT_NE(specs[0].name, specs[1].name);
}

TEST(SweepSpec, EightJobSweepParallelBitIdenticalToSerial) {
  const SweepSpec sweep = small_sweep();
  BatchStats serial_stats;
  ehsim::pwl::reset_diode_table_cache();
  const auto serial = run_sweep(sweep, {.threads = 1}, &serial_stats);
  const ehsim::pwl::TableCacheStats serial_tables = ehsim::pwl::diode_table_cache_stats();
  ehsim::pwl::reset_diode_table_cache();
  const auto parallel = run_sweep(sweep, {.threads = 4});
  const ehsim::pwl::TableCacheStats parallel_tables = ehsim::pwl::diode_table_cache_stats();
  ASSERT_EQ(serial.size(), 8u);
  ASSERT_EQ(parallel.size(), 8u);
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].scenario, parallel[i].scenario) << i;
    EXPECT_EQ(serial[i].stats.steps, parallel[i].stats.steps) << i;
    EXPECT_EQ(serial[i].time, parallel[i].time) << i;
    EXPECT_EQ(serial[i].vc, parallel[i].vc) << i;  // bit-identical
    EXPECT_EQ(serial[i].final_vc, parallel[i].final_vc) << i;
  }
  // The sweep varied: initial voltages differ across the first axis.
  EXPECT_NE(serial[0].final_vc, serial[6].final_vc);
  // All eight jobs share one diode-table structure: one build per batch,
  // however the workers race (a racing builder shares the incumbent).
  EXPECT_EQ(serial_stats.jobs, 8u);
  for (const ehsim::pwl::TableCacheStats& tables : {serial_tables, parallel_tables}) {
    EXPECT_EQ(tables.misses, 1u);
    EXPECT_EQ(tables.hits, 7u);
    EXPECT_EQ(tables.entries, 1u);
  }
}

// ---- shared diode tables --------------------------------------------------

TEST(SharedDiodeTable, IdenticalStructureSharesOneInstance) {
  using ehsim::harvester::DeviceEvalMode;
  using ehsim::harvester::DicksonMultiplier;
  ehsim::harvester::MultiplierParams params;
  DicksonMultiplier first(params, DeviceEvalMode::kPwlTable);
  DicksonMultiplier second(params, DeviceEvalMode::kPwlTable);
  EXPECT_EQ(&first.table(), &second.table());

  // A different construction key gets its own table.
  ehsim::harvester::MultiplierParams finer = params;
  finer.table_segments = 1024;
  DicksonMultiplier third(finer, DeviceEvalMode::kPwlTable);
  EXPECT_NE(&first.table(), &third.table());

  const auto stats = ehsim::pwl::diode_table_cache_stats();
  EXPECT_GE(stats.hits, 1u);
  EXPECT_GE(stats.entries, 2u);
}

/// The cached table is the table a private build makes, bit for bit, over
/// its whole range and beyond, so no run depends on which job built it.
TEST(SharedDiodeTable, SharedTableBitIdenticalToPrivateBuild) {
  const ehsim::harvester::MultiplierParams params;
  ehsim::pwl::reset_diode_table_cache();
  const auto shared = ehsim::pwl::shared_diode_table(params.diode, params.table_segments,
                                                     params.table_v_min, params.table_g_max);
  const ehsim::pwl::DiodeTable built(params.diode, params.table_segments, params.table_v_min,
                                     params.table_g_max);
  ASSERT_EQ(shared->segments(), built.segments());
  EXPECT_EQ(shared->v_max(), built.v_max());
  const double lo = params.table_v_min - 1.0;
  const double hi = built.v_max() + 1.0;
  constexpr int kProbes = 8192;
  for (int i = 0; i <= kProbes; ++i) {
    const double vd = lo + (hi - lo) * i / kProbes;
    const auto a = shared->conductance_and_source(vd);
    const auto b = built.conductance_and_source(vd);
    ASSERT_EQ(a.slope, b.slope) << vd;
    ASSERT_EQ(a.intercept, b.intercept) << vd;
    ASSERT_EQ(shared->current(vd), built.current(vd)) << vd;
    ASSERT_EQ(shared->segment(vd), built.segment(vd)) << vd;
    ASSERT_EQ(shared->conductance_band(vd), built.conductance_band(vd)) << vd;
  }
}

// ---- batch edge cases -----------------------------------------------------

TEST(RunScenarioBatch, EmptyJobVectorReturnsEmptyWithoutThreadPool) {
  BatchStats stats;
  stats.jobs = 99;  // must be reset
  const auto results = run_scenario_batch({}, {.threads = 8}, &stats);
  EXPECT_TRUE(results.empty());
  EXPECT_EQ(stats.jobs, 0u);
}

// ---- Jacobian reuse: the A6 ablation contract --------------------------------

/// Both A6 arms on the Table I model. Reuse off rebuilds every refresh and
/// never touches the linearisation cache; reuse on keeps a linearisation
/// while its signature holds and serves revisited signatures from the
/// cache. Both observe the same signature-driven LLE drift sequence, so
/// they take the same number of steps; the cache hands back the
/// linearisation of a signature's first visit, so the step times and states
/// differ in the last digits, within a 1e-3 final-Vc bound.
TEST(JacobianReuse, ReuseArmsTakeTheSameStepsWithinTheAdoptionBound) {
  std::uint64_t steps[2];
  std::uint64_t builds[2];
  double vc[2];
  for (int arm = 0; arm < 2; ++arm) {
    const auto params = experiment_params(charging_scenario(0.5));
    ehsim::sim::HarvesterSession::Options options;
    options.solver.enable_jacobian_reuse = arm == 0;
    ehsim::sim::HarvesterSession session(params, options);
    session.run_until(0.5);
    const auto& solver =
        dynamic_cast<const ehsim::core::LinearisedSolver&>(session.engine());
    if (arm == 1) {
      EXPECT_EQ(solver.linearisation_cache().size(), 0u);
      EXPECT_EQ(session.stats().jacobian_reuses, 0u);
      EXPECT_EQ(session.stats().stability_reuses, 0u);
    }
    steps[arm] = session.stats().steps;
    builds[arm] = session.stats().jacobian_builds;
    vc[arm] = session.terminals()[session.system().vc_index()];
  }
  EXPECT_EQ(steps[0], steps[1]);
  EXPECT_LE(std::abs(vc[0] - vc[1]) / std::max(1.0, std::abs(vc[1])), 1e-3);
  EXPECT_LE(builds[0] * 10, builds[1]);
}

}  // namespace
