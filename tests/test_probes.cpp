/// \file test_probes.cpp
/// \brief Streaming probe channels (core), declarative ProbeSpecs
/// (experiments) and their ride-along on batch jobs.
#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "core/probe.hpp"
#include "experiments/probes.hpp"
#include "experiments/scenarios.hpp"
#include "harvester/tuning.hpp"

namespace {

using ehsim::ModelError;
using ehsim::core::ProbeChannel;
using ehsim::core::ProbeHub;
using ehsim::core::ProbeWindow;
using namespace ehsim::experiments;

/// A channel fed by hand — no engine involved.
struct ManualProbe {
  double value = 0.0;
  ProbeChannel channel;

  explicit ManualProbe(ProbeWindow window = {},
                       std::optional<double> threshold = std::nullopt)
      : channel(
            "probe",
            [this](double, std::span<const double>, std::span<const double>) {
              return value;
            },
            window, threshold) {}

  void push(double t, double v) {
    value = v;
    channel.sample(t, {}, {});
  }
};

// ---- core streaming statistics --------------------------------------------

TEST(ProbeChannel, RampStatisticsAreExact) {
  ManualProbe probe;
  for (const double t : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    probe.push(t, t);  // v(t) = t
  }
  EXPECT_EQ(probe.channel.samples(), 5u);
  EXPECT_DOUBLE_EQ(probe.channel.covered_time(), 1.0);
  EXPECT_DOUBLE_EQ(probe.channel.mean(), 0.5);
  EXPECT_DOUBLE_EQ(probe.channel.rms(), std::sqrt(1.0 / 3.0));  // RMS of t on [0,1]
  EXPECT_DOUBLE_EQ(probe.channel.minimum(), 0.0);
  EXPECT_DOUBLE_EQ(probe.channel.maximum(), 1.0);
  EXPECT_DOUBLE_EQ(probe.channel.final_value(), 1.0);
}

TEST(ProbeChannel, WindowClipsPartialSegments) {
  // Window [0.25, 0.75] of v(t) = t sampled only at 0, 0.5 and 1: both
  // window edges land mid-segment and must be clipped by interpolation.
  ManualProbe probe(ProbeWindow{0.25, 0.75});
  for (const double t : {0.0, 0.5, 1.0}) {
    probe.push(t, t);
  }
  EXPECT_EQ(probe.channel.samples(), 1u);  // only t = 0.5 lies inside
  EXPECT_DOUBLE_EQ(probe.channel.covered_time(), 0.5);
  EXPECT_DOUBLE_EQ(probe.channel.mean(), 0.5);
  EXPECT_DOUBLE_EQ(probe.channel.minimum(), 0.25);
  EXPECT_DOUBLE_EQ(probe.channel.maximum(), 0.75);
  EXPECT_DOUBLE_EQ(probe.channel.final_value(), 0.75);
}

TEST(ProbeChannel, ThresholdCountsUpwardCrossingsAndDuty) {
  // Triangle wave around the 0.5 threshold: up, down, up again.
  ManualProbe probe(ProbeWindow{}, 0.5);
  probe.push(0.0, 0.0);
  probe.push(1.0, 1.0);
  probe.push(2.0, 0.0);
  probe.push(3.0, 1.0);
  EXPECT_EQ(probe.channel.crossings(), 2u);
  // Above-threshold time: half of each of the three segments.
  EXPECT_DOUBLE_EQ(probe.channel.time_above(), 1.5);
  EXPECT_DOUBLE_EQ(probe.channel.duty_cycle(), 0.5);
}

TEST(ProbeChannel, SinglePointHasZeroMeasure) {
  ManualProbe probe;
  probe.push(1.0, 42.0);
  EXPECT_EQ(probe.channel.samples(), 1u);
  EXPECT_DOUBLE_EQ(probe.channel.covered_time(), 0.0);
  EXPECT_DOUBLE_EQ(probe.channel.mean(), 0.0);  // no covered time yet
  EXPECT_DOUBLE_EQ(probe.channel.final_value(), 42.0);
  EXPECT_DOUBLE_EQ(probe.channel.minimum(), 42.0);
  EXPECT_DOUBLE_EQ(probe.channel.maximum(), 42.0);
}

TEST(ProbeHub, RejectsDuplicateLabels) {
  ProbeHub hub;
  const auto zero = [](double, std::span<const double>, std::span<const double>) {
    return 0.0;
  };
  hub.add_channel("a", zero);
  EXPECT_THROW(hub.add_channel("a", zero), ModelError);
  ASSERT_NE(hub.find("a"), nullptr);
  EXPECT_EQ(hub.find("a")->label(), "a");
  EXPECT_EQ(hub.find("missing"), nullptr);
  EXPECT_EQ(hub.size(), 1u);
}

// ---- spec validation ------------------------------------------------------

TEST(ProbeSpec, ValidationRejectsInconsistentSpecs) {
  ProbeSpec probe;
  probe.label = "ok";
  probe.kind = ProbeSpec::Kind::kGeneratorPower;
  EXPECT_NO_THROW(probe.validate());

  ProbeSpec unlabeled = probe;
  unlabeled.label.clear();
  EXPECT_THROW(unlabeled.validate(), ModelError);

  ProbeSpec unsafe = probe;
  unsafe.label = "bad,label";
  EXPECT_THROW(unsafe.validate(), ModelError);

  ProbeSpec shadowing = probe;
  shadowing.label = "Vc";
  EXPECT_THROW(shadowing.validate(), ModelError);

  ProbeSpec targetless = probe;
  targetless.kind = ProbeSpec::Kind::kNodeVoltage;
  EXPECT_THROW(targetless.validate(), ModelError);

  ProbeSpec extra_target = probe;
  extra_target.target = "Vm";
  EXPECT_THROW(extra_target.validate(), ModelError);

  ProbeSpec bad_window = probe;
  bad_window.window_start = 2.0;
  bad_window.window_end = 1.0;
  EXPECT_THROW(bad_window.validate(), ModelError);
}

TEST(ProbeSpec, ExperimentSpecRejectsDuplicateProbeLabels) {
  ExperimentSpec spec = charging_scenario(1.0);
  spec.probes.push_back(ProbeSpec{"p", ProbeSpec::Kind::kGeneratorPower});
  spec.probes.push_back(ProbeSpec{"p", ProbeSpec::Kind::kHarvestedPower});
  EXPECT_THROW(spec.validate(), ModelError);
}

TEST(ProbeSpec, UnknownNetAndStateFailAtInstallTime) {
  ExperimentSpec spec = charging_scenario(0.1);
  spec.probes.push_back(ProbeSpec{"ghost", ProbeSpec::Kind::kNodeVoltage, "Vxyz"});
  EXPECT_THROW((void)run_experiment(spec), ModelError);
  spec.probes.back() = ProbeSpec{"ghost", ProbeSpec::Kind::kStateVariable, "supercap.Vq"};
  EXPECT_THROW((void)run_experiment(spec), ModelError);
}

/// Regression: a reduction window starting at or past the end of the run can
/// never be reached — it used to install silently and report all-zero
/// statistics indistinguishable from a real result. It now fails at install
/// time, naming the probe.
TEST(ProbeSpec, WindowBeyondSimulatedSpanFailsAtInstallTime) {
  ExperimentSpec spec = charging_scenario(0.2);
  spec.probes.push_back(
      ProbeSpec{"late", ProbeSpec::Kind::kGeneratorPower, "", /*window_start=*/1.0});
  try {
    (void)run_experiment(spec);
    FAIL() << "expected ModelError for an unreachable probe window";
  } catch (const ModelError& error) {
    EXPECT_NE(std::string(error.what()).find("late"), std::string::npos);
    EXPECT_NE(std::string(error.what()).find("never be reached"), std::string::npos);
  }
  // window_start exactly at the end of the span is equally unreachable as a
  // *window* (zero measure); rejected too.
  spec.probes.back().window_start = 0.2;
  EXPECT_THROW((void)run_experiment(spec), ModelError);
  // A window that merely extends past the end is fine — it is clipped.
  spec.probes.back().window_start = 0.1;
  spec.probes.back().window_end = 5.0;
  EXPECT_NO_THROW((void)run_experiment(spec));
}

/// Empty-window statistics are defined (zeros), never NaN — the guard the
/// window validation backs up for windows that are reachable but see no
/// samples (and for direct core-layer users who bypass install_probes).
TEST(ProbeChannel, EmptyWindowStatisticsAreDefined) {
  ManualProbe probe(ProbeWindow{10.0, 20.0});
  probe.push(0.0, 1.0);
  probe.push(1.0, 2.0);  // entirely before the window
  EXPECT_TRUE(probe.channel.empty());
  EXPECT_EQ(probe.channel.covered_time(), 0.0);
  EXPECT_EQ(probe.channel.mean(), 0.0);
  EXPECT_EQ(probe.channel.rms(), 0.0);
  EXPECT_EQ(probe.channel.duty_cycle(), 0.0);
  EXPECT_TRUE(std::isfinite(probe.channel.mean()));
}

// ---- analytic oracles: the statistics match hand-derived closed forms ------

/// Windowed statistics of a linear signal are *exact* under the trapezoidal
/// convention (piecewise-linear interpolation of a linear function is the
/// function), so every reduction can be checked against calculus, not
/// against a recorded behaviour pin. v(t) = 3t - 1 on non-uniform samples,
/// window [0.2, 0.9] with both edges mid-segment, threshold 0.5.
TEST(ProbeOracle, RampOnNonUniformStepsMatchesClosedFormsExactly) {
  const double w0 = 0.2;
  const double w1 = 0.9;
  ManualProbe probe(ProbeWindow{w0, w1}, 0.5);
  for (const double t : {0.0, 0.13, 0.4, 0.77, 1.0}) {
    probe.push(t, 3.0 * t - 1.0);
  }
  EXPECT_DOUBLE_EQ(probe.channel.covered_time(), w1 - w0);
  // mean = (1/(w1-w0)) ∫ (3t-1) dt = 3(w0+w1)/2 - 1 (midpoint value).
  EXPECT_NEAR(probe.channel.mean(), 3.0 * (w0 + w1) / 2.0 - 1.0, 1e-12);
  // rms² = (1/(w1-w0)) ∫ (3t-1)² dt = [(3t-1)³/9] / (w1-w0).
  const auto cube = [](double v) { return v * v * v; };
  const double mean_square =
      (cube(3.0 * w1 - 1.0) - cube(3.0 * w0 - 1.0)) / 9.0 / (w1 - w0);
  EXPECT_NEAR(probe.channel.rms(), std::sqrt(mean_square), 1e-12);
  // Window-clipped extremes are the ramp evaluated at the window edges.
  EXPECT_NEAR(probe.channel.minimum(), 3.0 * w0 - 1.0, 1e-12);
  EXPECT_NEAR(probe.channel.maximum(), 3.0 * w1 - 1.0, 1e-12);
  EXPECT_NEAR(probe.channel.final_value(), 3.0 * w1 - 1.0, 1e-12);
  // 3t - 1 crosses 0.5 upward exactly once, at t = 0.5; above-threshold time
  // inside the window is w1 - 0.5.
  EXPECT_EQ(probe.channel.crossings(), 1u);
  EXPECT_NEAR(probe.channel.time_above(), w1 - 0.5, 1e-12);
  EXPECT_NEAR(probe.channel.duty_cycle(), (w1 - 0.5) / (w1 - w0), 1e-12);
}

/// v(t) = sin(2πt) sampled on deterministic non-uniform steps (0.6–1.8 ms),
/// window [0.25, 1.5]. The trapezoidal reductions converge to the continuous
/// integrals at O(h²) ≈ 1e-6, so the oracle is the calculus value with a
/// 1e-5-scale tolerance — the maths, not a pinned behaviour.
TEST(ProbeOracle, SampledSineMatchesContinuousIntegralsToTightTolerance) {
  constexpr double kPi = 3.14159265358979323846;
  const double w0 = 0.25;
  const double w1 = 1.5;
  ManualProbe probe(ProbeWindow{w0, w1}, 0.0);
  double t = 0.0;
  std::size_t i = 0;
  while (t <= 2.0) {
    probe.push(t, std::sin(2.0 * kPi * t));
    t += (3.0 + static_cast<double>(i % 7)) * 2e-4;  // non-uniform, 0.6–1.8 ms
    ++i;
  }
  EXPECT_NEAR(probe.channel.covered_time(), w1 - w0, 2e-3);
  // ∫ sin(2πt) dt over [0.25, 1.5] = (cos(π/2) - cos(3π)) / 2π = 1/(2π).
  EXPECT_NEAR(probe.channel.mean(), 1.0 / (2.0 * kPi) / (w1 - w0), 1e-5);
  // ∫ sin² = [t/2 - sin(4πt)/(8π)] over [0.25, 1.5] = 0.625 ⇒ rms = √0.5.
  EXPECT_NEAR(probe.channel.rms(), std::sqrt(0.5), 1e-5);
  EXPECT_NEAR(probe.channel.minimum(), -1.0, 1e-5);
  EXPECT_NEAR(probe.channel.maximum(), 1.0, 1e-5);
  // sin(2πt) > 0 on (0.25, 0.5) ∪ (1, 1.5) inside the window: 0.75 s above
  // a zero threshold, one upward crossing (at t = 1).
  EXPECT_EQ(probe.channel.crossings(), 1u);
  EXPECT_NEAR(probe.channel.time_above(), 0.75, 1e-4);
  EXPECT_NEAR(probe.channel.duty_cycle(), 0.75 / (w1 - w0), 1e-4);
}

// ---- end-to-end on the real model -----------------------------------------

ExperimentSpec probed_charging(double duration) {
  ExperimentSpec spec = charging_scenario(duration);
  spec.trace_interval = 0.01;
  spec.probes.push_back(ProbeSpec{"Vm", ProbeSpec::Kind::kNodeVoltage, "Vm"});
  spec.probes.push_back(ProbeSpec{"Vi", ProbeSpec::Kind::kStateVariable, "supercap.Vi",
                                  0.0, 0.0, std::nullopt, false});
  spec.probes.push_back(ProbeSpec{"P_gen", ProbeSpec::Kind::kGeneratorPower});
  spec.probes.push_back(ProbeSpec{"P_store", ProbeSpec::Kind::kHarvestedPower});
  spec.probes.push_back(ProbeSpec{"E_store", ProbeSpec::Kind::kStoredEnergy});
  spec.probes.push_back(
      ProbeSpec{"Vm_pos", ProbeSpec::Kind::kNodeVoltage, "Vm", 0.0, 0.0, 0.0, false});
  return spec;
}

TEST(Probes, EveryKindProducesConsistentStatistics) {
  const ScenarioResult result = run_experiment(probed_charging(0.5));
  ASSERT_EQ(result.probes.size(), 6u);

  for (const ProbeResult& probe : result.probes) {
    EXPECT_GT(probe.samples, 10u) << probe.label;
    EXPECT_LE(probe.minimum, probe.mean) << probe.label;
    EXPECT_LE(probe.mean, probe.maximum) << probe.label;
    EXPECT_GE(probe.rms, 0.0) << probe.label;
  }

  // Recorded probes carry columns aligned with the Vc trace.
  EXPECT_EQ(result.probes[0].trace.size(), result.time.size());
  EXPECT_TRUE(result.probes[0].recorded);
  EXPECT_FALSE(result.probes[1].recorded);  // record = false
  EXPECT_TRUE(result.probes[1].trace.empty());

  // The AC input sees both polarities; the stored energy only grows from a
  // discharged start.
  const ProbeResult& vm = result.probes[0];
  EXPECT_LT(vm.minimum, 0.0);
  EXPECT_GT(vm.maximum, 0.0);
  const ProbeResult& energy = result.probes[4];
  EXPECT_GE(energy.minimum, 0.0);
  EXPECT_GT(energy.final_value, 0.0);
  EXPECT_GE(energy.maximum, energy.final_value);

  // Threshold statistics: the AC waveform spends about half its time above
  // zero and crosses upward roughly once per excitation period (70 Hz).
  const ProbeResult& duty = result.probes[5];
  ASSERT_TRUE(duty.duty_cycle.has_value());
  ASSERT_TRUE(duty.crossings.has_value());
  EXPECT_NEAR(*duty.duty_cycle, 0.5, 0.1);
  EXPECT_NEAR(static_cast<double>(*duty.crossings), 35.0, 5.0);

  // No-threshold probes report no threshold statistics.
  EXPECT_FALSE(vm.duty_cycle.has_value());
  EXPECT_THROW((void)probe_statistic(vm, "duty_cycle"), ModelError);
  EXPECT_THROW((void)probe_statistic(vm, "bogus"), ModelError);
  EXPECT_DOUBLE_EQ(probe_statistic(duty, "crossings"),
                   static_cast<double>(*duty.crossings));
  EXPECT_DOUBLE_EQ(probe_statistic(vm, "mean"), vm.mean);
  EXPECT_DOUBLE_EQ(probe_statistic(vm, "final"), vm.final_value);
}

/// The MCU duty probe samples the controller's state machine as a 0/1
/// indicator; the time-weighted mean is the occupancy fraction. A short
/// watchdog period plus a deliberate frequency mismatch forces the full
/// sleep -> measuring -> tuning cycle inside the simulated span.
TEST(Probes, McuStateDutyTracksControllerOccupancy) {
  ExperimentSpec spec = charging_scenario(1.5);
  spec.with_mcu = true;
  spec.trace_interval = 0.01;
  spec.excitation.initial_frequency_hz = 72.0;  // mismatched -> tuning burst
  spec.overrides.push_back(ParamOverride{"supercap.initial_voltage", 3.3});
  spec.overrides.push_back(ParamOverride{"mcu.watchdog_period", 0.3});
  spec.probes.push_back(ProbeSpec{"sleep_duty", ProbeSpec::Kind::kMcuState, "sleep"});
  spec.probes.push_back(ProbeSpec{"awake_duty", ProbeSpec::Kind::kMcuState, "awake", 0.0, 0.0,
                                  std::nullopt, false});
  spec.probes.push_back(ProbeSpec{"tuning_duty", ProbeSpec::Kind::kMcuState, "tuning", 0.0,
                                  0.0, std::nullopt, false});

  const ScenarioResult result = run_experiment(spec);
  ASSERT_EQ(result.probes.size(), 3u);
  const ProbeResult& sleep = result.probes[0];
  const ProbeResult& awake = result.probes[1];
  const ProbeResult& tuning = result.probes[2];

  // The sleep/awake indicators partition the run: their occupancies sum to
  // one, and every recorded sample is exactly 0 or 1.
  EXPECT_NEAR(sleep.mean + awake.mean, 1.0, 1e-9);
  for (const double v : sleep.trace) {
    EXPECT_TRUE(v == 0.0 || v == 1.0);
  }
  EXPECT_EQ(sleep.minimum, 0.0);
  EXPECT_EQ(sleep.maximum, 1.0);

  // The mismatch triggered at least one tuning burst, so the controller
  // spent real time tuning — but still slept most of the run.
  EXPECT_GT(tuning.mean, 0.0);
  EXPECT_LE(tuning.mean, awake.mean + 1e-12);
  EXPECT_GT(sleep.mean, 0.5);
  EXPECT_GT(result.mcu_events.size(), 0u);
}

TEST(Probes, McuStateProbeRejectsBadTargetAndMissingMcu) {
  ProbeSpec probe{"duty", ProbeSpec::Kind::kMcuState, "running"};
  EXPECT_THROW(probe.validate(), ModelError);
  probe.target.clear();
  EXPECT_THROW(probe.validate(), ModelError);
  probe.target = "awake";
  EXPECT_NO_THROW(probe.validate());

  // Installing on an experiment without the MCU fails loudly, naming the
  // missing switch.
  ExperimentSpec spec = charging_scenario(0.1);
  spec.with_mcu = false;
  spec.probes.push_back(probe);
  try {
    (void)run_experiment(spec);
    FAIL() << "expected ModelError for an mcu_state probe without an MCU";
  } catch (const ModelError& error) {
    EXPECT_NE(std::string(error.what()).find("with_mcu"), std::string::npos);
  }
}

// ---- actuator travel / energy probes ---------------------------------------

/// Analytic oracle for the actuator kinematics probes: command one move on
/// an otherwise quiet charging run and check the time-weighted statistics
/// against the closed-form trajectory — gap(t) is piecewise linear, the
/// speed indicator is a top-hat whose time integral is the commanded travel,
/// and the work rate integrates to the exact mechanical actuation energy
/// W = integral of Ft(g) dg over the travelled gap interval.
TEST(Probes, ActuatorProbesMatchCommandedMoveOracle) {
  ExperimentSpec spec = charging_scenario(0.4);
  spec.trace_interval = 0.01;
  spec.probes.push_back(ProbeSpec{"gap", ProbeSpec::Kind::kActuator, "gap"});
  spec.probes.push_back(ProbeSpec{"slew", ProbeSpec::Kind::kActuator, "speed", 0.0, 0.0,
                                  std::nullopt, false});
  spec.probes.push_back(ProbeSpec{"actuation", ProbeSpec::Kind::kActuator, "work", 0.0,
                                  0.0, std::nullopt, false});

  ehsim::sim::HarvesterSession session = make_experiment_session(spec);
  install_probes(session, spec.probes, spec.duration);
  const ehsim::harvester::LinearActuator& actuator = session.system().actuator();
  const ehsim::harvester::TuningMechanism& tuning = session.system().tuning();

  const double g0 = actuator.position(0.0);
  const double g1 = g0 - 0.2e-3;  // close the gap by 0.2 mm
  const double travel_time = std::abs(g1 - g0) / actuator.speed();
  ASSERT_LT(travel_time, spec.duration);  // the move completes mid-run

  session.system().actuator().command(g1, 0.0);
  session.initialise();
  session.run_until(spec.duration);
  const std::vector<ProbeResult> probes = collect_probe_results(session, spec.probes);
  ASSERT_EQ(probes.size(), 3u);
  const ProbeResult& gap = probes[0];
  const ProbeResult& slew = probes[1];
  const ProbeResult& work = probes[2];

  // Gap: arrives exactly at the target and stays; the time-weighted mean of
  // the piecewise-linear trajectory is the ramp average plus the dwell.
  EXPECT_DOUBLE_EQ(gap.final_value, g1);
  EXPECT_DOUBLE_EQ(gap.maximum, g0);
  EXPECT_DOUBLE_EQ(gap.minimum, g1);
  const double expected_mean =
      (0.5 * (g0 + g1) * travel_time + g1 * (spec.duration - travel_time)) / spec.duration;
  EXPECT_NEAR(gap.mean, expected_mean, 1e-6 * expected_mean);
  EXPECT_EQ(gap.trace.size(), gap.recorded ? gap.trace.size() : 0u);

  // Speed indicator: slew rate while moving, zero after arrival — its time
  // integral recovers the commanded travel distance.
  EXPECT_DOUBLE_EQ(slew.maximum, actuator.speed());
  EXPECT_DOUBLE_EQ(slew.minimum, 0.0);
  EXPECT_DOUBLE_EQ(slew.final_value, 0.0);
  EXPECT_NEAR(slew.mean * slew.covered_time, std::abs(g1 - g0),
              1e-3 * std::abs(g1 - g0));

  // Work rate: |Ft| x speed while moving; its time integral is the exact
  // line integral of the magnetic tuning force over the travelled interval
  // (Simpson quadrature as the independent oracle).
  const std::size_t n = 2000;  // even
  const double h = (g0 - g1) / static_cast<double>(n);
  double energy = tuning.force_at_gap(g1) + tuning.force_at_gap(g0);
  for (std::size_t i = 1; i < n; ++i) {
    const double g = g1 + h * static_cast<double>(i);
    energy += (i % 2 == 1 ? 4.0 : 2.0) * tuning.force_at_gap(g);
  }
  energy *= h / 3.0;
  EXPECT_GT(energy, 0.0);
  EXPECT_NEAR(work.mean * work.covered_time, energy, 1e-3 * energy);
  EXPECT_DOUBLE_EQ(work.final_value, 0.0);  // not moving at the end
}

TEST(Probes, ActuatorProbeValidatesTargets) {
  ProbeSpec probe{"travel", ProbeSpec::Kind::kActuator, "warp"};
  EXPECT_THROW(probe.validate(), ModelError);
  probe.target.clear();
  EXPECT_THROW(probe.validate(), ModelError);
  for (const char* target : {"gap", "speed", "work"}) {
    probe.target = target;
    EXPECT_NO_THROW(probe.validate()) << target;
  }

  // An idle actuator is a valid probe subject: constant gap, zero speed and
  // work — the probes must not demand MCU activity to be installable.
  ExperimentSpec spec = charging_scenario(0.05);
  spec.probes.push_back(ProbeSpec{"gap", ProbeSpec::Kind::kActuator, "gap"});
  spec.probes.push_back(ProbeSpec{"work", ProbeSpec::Kind::kActuator, "work", 0.0, 0.0,
                                  std::nullopt, false});
  const ScenarioResult result = run_experiment(spec);
  ASSERT_EQ(result.probes.size(), 2u);
  EXPECT_DOUBLE_EQ(result.probes[0].minimum, result.probes[0].maximum);  // no motion
  EXPECT_DOUBLE_EQ(result.probes[1].rms, 0.0);
  EXPECT_DOUBLE_EQ(result.probes[1].mean, 0.0);
}

/// Scenario 1's retune is a real actuator move driven by the MCU: the work
/// probe integrates to a strictly positive actuation energy and the gap
/// probe records the tuning travel, tying the probe kind to the paper's
/// tunable-harvester energy bookkeeping end to end.
TEST(Probes, ActuatorWorkTracksMcuRetune) {
  ExperimentSpec spec = scenario1();
  spec.duration = 80.0;  // past the 60 s shift and the retune burst
  spec.probes.push_back(ProbeSpec{"gap", ProbeSpec::Kind::kActuator, "gap"});
  spec.probes.push_back(ProbeSpec{"actuation", ProbeSpec::Kind::kActuator, "work", 0.0,
                                  0.0, std::nullopt, false});

  const ScenarioResult result = run_experiment(spec);
  ASSERT_EQ(result.probes.size(), 2u);
  const ProbeResult& gap = result.probes[0];
  const ProbeResult& work = result.probes[1];
  EXPECT_GT(result.mcu_events.size(), 0u);
  EXPECT_LT(gap.minimum, gap.maximum);  // the retune moved the magnets
  EXPECT_GT(work.mean * work.covered_time, 0.0);
  EXPECT_GE(work.minimum, 0.0);  // work rate is |Ft| x speed, never negative
}

TEST(Probes, DeterministicAcrossRunsAndBatchThreads) {
  const ExperimentSpec spec = probed_charging(0.3);
  const ScenarioResult serial = run_experiment(spec);

  const std::vector<ScenarioJob> jobs(2, ScenarioJob{spec, std::nullopt});
  const auto parallel = run_scenario_batch(jobs, {.threads = 2});
  ASSERT_EQ(parallel.size(), 2u);
  for (const ScenarioResult& result : parallel) {
    ASSERT_EQ(result.probes.size(), serial.probes.size());
    for (std::size_t i = 0; i < serial.probes.size(); ++i) {
      const ProbeResult& a = serial.probes[i];
      const ProbeResult& b = result.probes[i];
      EXPECT_EQ(a.samples, b.samples) << a.label;
      EXPECT_EQ(a.mean, b.mean) << a.label;  // bit-identical
      EXPECT_EQ(a.rms, b.rms) << a.label;
      EXPECT_EQ(a.final_value, b.final_value) << a.label;
      EXPECT_EQ(a.trace, b.trace) << a.label;
    }
  }
}

}  // namespace
