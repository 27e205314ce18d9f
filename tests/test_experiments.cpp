/// \file test_experiments.cpp
/// \brief Metrics, scenario harness and synthetic-measurement tests.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <cstdlib>
#include <functional>
#include <numbers>

#include "experiments/metrics.hpp"
#include "experiments/reference_data.hpp"
#include "experiments/scenarios.hpp"
#include "experiments/table_printer.hpp"
#include "io/state_json.hpp"

namespace {

using namespace ehsim::experiments;

// Runs \p body in a death-test child under a 10 s alarm and expects it to
// return: a body that hangs fails the test instead of wedging the suite.
void expect_returns(const std::function<void()>& body) {
  ASSERT_EXIT(
      {
        alarm(10);
        body();
        std::exit(0);
      },
      ::testing::ExitedWithCode(0), "");
}

TEST(Metrics, MeanOfKnownSignal) {
  EXPECT_NEAR(mean(std::vector<double>{1.0, 2.0, 3.0}), 2.0, 1e-12);
}

TEST(Metrics, PearsonCorrelation) {
  const std::vector<double> a{1.0, 2.0, 3.0, 4.0};
  const std::vector<double> b{2.0, 4.0, 6.0, 8.0};
  EXPECT_NEAR(pearson_correlation(a, b), 1.0, 1e-12);
  const std::vector<double> c{4.0, 3.0, 2.0, 1.0};
  EXPECT_NEAR(pearson_correlation(a, c), -1.0, 1e-12);
  const std::vector<double> flat{1.0, 1.0, 1.0, 1.0};
  EXPECT_EQ(pearson_correlation(a, flat), 0.0);
}

TEST(Metrics, Nrmse) {
  const std::vector<double> ref{0.0, 1.0, 2.0};
  const std::vector<double> test_same = ref;
  EXPECT_NEAR(nrmse(ref, test_same), 0.0, 1e-15);
  const std::vector<double> off{0.2, 1.2, 2.2};
  EXPECT_NEAR(nrmse(ref, off), 0.1, 1e-12);  // 0.2 error over range 2
}

TEST(Metrics, ResampleInterpolatesAndClamps) {
  const std::vector<double> t{0.0, 1.0, 2.0};
  const std::vector<double> v{0.0, 10.0, 20.0};
  const std::vector<double> grid{-1.0, 0.5, 1.5, 5.0};
  const auto out = resample(t, v, grid);
  EXPECT_DOUBLE_EQ(out[0], 0.0);    // clamped left
  EXPECT_DOUBLE_EQ(out[1], 5.0);
  EXPECT_DOUBLE_EQ(out[2], 15.0);
  EXPECT_DOUBLE_EQ(out[3], 20.0);   // clamped right
}

TEST(Metrics, UniformGrid) {
  const auto grid = uniform_grid(1.0, 3.0, 5);
  ASSERT_EQ(grid.size(), 5u);
  EXPECT_DOUBLE_EQ(grid.front(), 1.0);
  EXPECT_DOUBLE_EQ(grid.back(), 3.0);
  EXPECT_DOUBLE_EQ(grid[2], 2.0);
  EXPECT_THROW(uniform_grid(1.0, 1.0, 5), ehsim::ModelError);
}

TEST(BinnedAccumulator, MeanOfConstantSignal) {
  BinnedAccumulator bins(0.0, 1.0, 4);
  for (double t = 0.0; t <= 4.0; t += 0.01) {
    bins.add(t, 3.0);
  }
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_NEAR(bins.bin_mean(i), 3.0, 1e-12) << i;
    EXPECT_NEAR(bins.bin_rms(i), 3.0, 1e-12) << i;
  }
  EXPECT_NEAR(bins.mean_over(0.0, 4.0), 3.0, 1e-12);
}

TEST(BinnedAccumulator, SineRmsPerBin) {
  const double w = 2.0 * std::numbers::pi * 10.0;  // 10 Hz
  BinnedAccumulator bins(0.0, 1.0, 2);
  for (double t = 0.0; t <= 2.0; t += 1e-4) {
    bins.add(t, std::sin(w * t));
  }
  EXPECT_NEAR(bins.bin_rms(0), 1.0 / std::sqrt(2.0), 1e-3);
  EXPECT_NEAR(bins.bin_mean(0), 0.0, 1e-3);
}

TEST(BinnedAccumulator, TrapezoidSplitAcrossBinBoundary) {
  BinnedAccumulator bins(0.0, 1.0, 2);
  bins.add(0.5, 1.0);
  bins.add(1.5, 3.0);  // one trapezoid spanning both bins
  // Bin 0 gets [0.5,1.0] (values 1..2, mean 1.5); bin 1 gets [1.0,1.5]
  // (values 2..3, mean 2.5).
  EXPECT_NEAR(bins.bin_mean(0), 1.5, 1e-12);
  EXPECT_NEAR(bins.bin_mean(1), 2.5, 1e-12);
}

constexpr std::size_t kStraddleBins = 300;

// A constant sampled mid-bin over kStraddleBins bins of \p width, so every
// trapezoid crosses a bin edge.
BinnedAccumulator straddle_every_edge(double width, double value) {
  BinnedAccumulator bins(0.0, width, kStraddleBins);
  bins.add(0.0, value);
  for (std::size_t k = 0; k < kStraddleBins; ++k) {
    bins.add((static_cast<double>(k) + 0.5) * width, value);
  }
  bins.add(static_cast<double>(kStraddleBins) * width, value);
  return bins;
}

// A segment that starts on an edge whose (t - t0) / width rounds to just
// below it must still move on to the next bin.
TEST(BinnedAccumulatorDeathTest, EdgesThatRoundBelowTheirBinStillAdvance) {
  expect_returns([] {
    BinnedAccumulator bins(0.0, 0.015, 30);
    bins.add(0.16, 1.0);
    bins.add(0.17, 1.0);
  });
  for (const double width : {0.1, 0.015, 0.7}) {
    SCOPED_TRACE(width);
    ASSERT_NO_FATAL_FAILURE(expect_returns([width] { (void)straddle_every_edge(width, 2.5); }));
    const BinnedAccumulator bins = straddle_every_edge(width, 2.5);
    std::vector<double> covered(kStraddleBins);
    ehsim::io::reals_into(bins.checkpoint_state().at("covered"), covered, "covered");
    double total = 0.0;
    for (std::size_t i = 0; i < kStraddleBins; ++i) {
      EXPECT_NEAR(bins.bin_mean(i), 2.5, 1e-12) << i;
      total += covered[i];
    }
    const double span = static_cast<double>(kStraddleBins) * width;
    EXPECT_NEAR(total, span, 1e-12 * span);
  }
}

TEST(BinnedAccumulator, BinCentersAndBounds) {
  BinnedAccumulator bins(10.0, 2.0, 3);
  EXPECT_DOUBLE_EQ(bins.bin_center(0), 11.0);
  EXPECT_DOUBLE_EQ(bins.bin_center(2), 15.0);
  EXPECT_EQ(bins.bins(), 3u);
}

TEST(TablePrinter, FormatsAlignedColumns) {
  TablePrinter table({"name", "value"});
  table.add_row({"alpha", "1"});
  table.add_row({"b", "12345"});
  std::ostringstream os;
  table.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("12345"), std::string::npos);
  EXPECT_NE(out.find("-----"), std::string::npos);
  EXPECT_THROW(table.add_row({"only-one"}), ehsim::ModelError);
}

TEST(TablePrinter, DurationFormatting) {
  EXPECT_EQ(format_duration(0.005), "5.0 ms");
  EXPECT_EQ(format_duration(2.0), "2.00 s");
  EXPECT_EQ(format_duration(120.0), "2.0 min");
  EXPECT_EQ(format_duration(7200.0), "2.00 h");
}

TEST(Scenarios, SpecsMatchPaper) {
  const auto s1 = scenario1();
  ASSERT_EQ(s1.excitation.events.size(), 1u);
  EXPECT_DOUBLE_EQ(
      s1.excitation.events.front().frequency_hz - s1.excitation.initial_frequency_hz, 1.0);
  const auto s2 = scenario2();
  ASSERT_EQ(s2.excitation.events.size(), 1u);
  EXPECT_NEAR(s2.excitation.events.front().frequency_hz - s2.excitation.initial_frequency_hz,
              13.8, 0.3);
  // Scenario 2 simulated span ~11x scenario 1 (the paper's proposed-engine
  // CPU ratio 228 s / 20.3 s).
  EXPECT_NEAR(s2.duration / s1.duration, 11.0, 1.0);
}

TEST(Scenarios, ParamsPretuneActuator) {
  const auto spec = scenario1();
  const auto params = experiment_params(spec);
  const ehsim::harvester::TuningMechanism mech(params.tuning, params.generator);
  EXPECT_NEAR(mech.resonance_at_gap(params.actuator.initial_gap), 70.0, 0.05);
}

TEST(Scenarios, ChargingScenarioStartsEmpty) {
  const auto params = experiment_params(charging_scenario(10.0));
  EXPECT_DOUBLE_EQ(params.supercap.initial_voltage, 0.0);
}

TEST(Scenarios, EngineFactoryModes) {
  EXPECT_EQ(device_mode_for(EngineKind::kProposed), ehsim::harvester::DeviceEvalMode::kPwlTable);
  EXPECT_EQ(device_mode_for(EngineKind::kPspice),
            ehsim::harvester::DeviceEvalMode::kExactShockley);
}

TEST(ScenariosDeathTest, PowerBinWidthWithInexactEdgesFinishes) {
  ExperimentSpec spec = charging_scenario(0.3);
  spec.excitation.events.clear();
  spec.power_bin_width = 0.015;
  ASSERT_NO_FATAL_FAILURE(expect_returns([&spec] { (void)run_experiment(spec); }));
  const ScenarioResult result = run_experiment(spec);
  EXPECT_EQ(result.power_time.size(), 20u);
}

TEST(Scenarios, ShortProposedRunProducesTraces) {
  ExperimentSpec spec = scenario1();
  spec.duration = 3.0;                // miniature for test speed
  spec.excitation.events.clear();     // no shift
  spec.with_mcu = false;
  spec.trace_interval = 0.01;
  const auto result = run_experiment(spec);
  EXPECT_GT(result.time.size(), 100u);
  EXPECT_EQ(result.time.size(), result.vc.size());
  EXPECT_GT(result.cpu_seconds, 0.0);
  EXPECT_GT(result.stats.steps, 1000u);
  EXPECT_FALSE(result.power_time.empty());
  // Supercap stays near its precharge over 3 s.
  EXPECT_NEAR(result.final_vc, 3.45, 0.05);
}

TEST(Scenarios, PowerBinsSeeGeneratorOutput) {
  ExperimentSpec spec = scenario1();
  spec.duration = 8.0;
  spec.excitation.events.clear();
  spec.with_mcu = false;
  spec.power_bin_width = 1.0;
  const auto result = run_experiment(spec);
  // After settling, per-bin mean power reaches the ~118 uW level.
  ASSERT_GE(result.power_mean.size(), 8u);
  EXPECT_GT(result.power_mean[6] * 1e6, 60.0);
  EXPECT_LT(result.power_mean[6] * 1e6, 220.0);
}

TEST(ReferenceData, PerturbedParamsDifferFromNominal) {
  const auto spec = scenario1();
  const auto nominal = experiment_params(spec);
  const auto perturbed = perturbed_params(spec, MeasurementModel{});
  EXPECT_LT(perturbed.generator.flux_linkage, nominal.generator.flux_linkage);
  EXPECT_GT(perturbed.generator.coil_resistance, nominal.generator.coil_resistance);
  EXPECT_GT(perturbed.supercap.leakage_resistance, 0.0);
}

TEST(ReferenceData, TraceIsReproducibleAndNoisy) {
  ExperimentSpec spec = scenario1();
  spec.duration = 2.0;
  spec.excitation.events.clear();
  spec.with_mcu = false;
  const auto a = make_experimental_trace(spec, 0.25);
  const auto b = make_experimental_trace(spec, 0.25);
  ASSERT_EQ(a.time.size(), b.time.size());
  for (std::size_t i = 0; i < a.vc.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.vc[i], b.vc[i]);  // fixed seed -> identical
  }
  // Noise is present: the trace is not perfectly smooth.
  double max_jump = 0.0;
  for (std::size_t i = 1; i < a.vc.size(); ++i) {
    max_jump = std::max(max_jump, std::abs(a.vc[i] - a.vc[i - 1]));
  }
  EXPECT_GT(max_jump, 1e-4);
}

}  // namespace
