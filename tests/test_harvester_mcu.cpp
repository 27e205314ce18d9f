/// \file test_harvester_mcu.cpp
/// \brief Microcontroller digital process tests against the Fig. 7 flow chart.
#include <gtest/gtest.h>

#include <cmath>

#include "digital/kernel.hpp"
#include "harvester/mcu.hpp"

namespace {

using ehsim::digital::Kernel;
using ehsim::harvester::LoadMode;
using ehsim::harvester::McuCallbacks;
using ehsim::harvester::McuController;
using ehsim::harvester::McuEvent;
using ehsim::harvester::McuParams;
using ehsim::harvester::McuState;

/// Scripted analogue world for driving the MCU without a solver.
struct MockPlant {
  double vc = 3.4;
  double ambient_hz = 70.0;
  double resonant_hz = 70.0;
  LoadMode mode = LoadMode::kSleep;
  double tuning_rate_hz_per_s = 2.0;  // how fast "the actuator" retunes
  double tuning_target = 70.0;
  double tuning_start_time = 0.0;
  double tuning_start_hz = 70.0;
  bool tuning_active = false;
  int start_calls = 0;
  int stop_calls = 0;

  McuCallbacks callbacks(Kernel& kernel) {
    McuCallbacks cb;
    cb.supercap_voltage = [this] { return vc; };
    cb.ambient_frequency = [this] { return ambient_hz; };
    cb.resonant_frequency = [this, &kernel] { return resonance_at(kernel.now()); };
    cb.set_load_mode = [this](LoadMode m) { mode = m; };
    cb.start_tuning = [this](double target, double t_now) {
      ++start_calls;
      tuning_start_hz = resonance_at(t_now);
      tuning_target = target;
      tuning_start_time = t_now;
      tuning_active = true;
      return t_now + std::abs(target - tuning_start_hz) / tuning_rate_hz_per_s;
    };
    cb.stop_tuning = [this, &kernel](double t_now) {
      ++stop_calls;
      tuning_start_hz = resonance_at(t_now);
      tuning_start_time = t_now;
      tuning_active = false;
      (void)kernel;
    };
    return cb;
  }

  double resonance_at(double t) const {
    if (!tuning_active) {
      return tuning_start_hz;
    }
    const double dt = t - tuning_start_time;
    const double dir = tuning_target > tuning_start_hz ? 1.0 : -1.0;
    const double moved = dir * tuning_rate_hz_per_s * dt;
    if (std::abs(moved) >= std::abs(tuning_target - tuning_start_hz)) {
      return tuning_target;
    }
    return tuning_start_hz + moved;
  }
};

McuParams fast_params() {
  McuParams p;
  p.watchdog_period = 10.0;
  p.measurement_time = 0.01;
  p.frequency_tolerance = 0.25;
  p.energy_threshold_voltage = 3.0;
  p.abort_voltage = 1.8;
  return p;
}

TEST(Mcu, SleepsWhenFrequencyMatched) {
  Kernel kernel;
  MockPlant plant;
  McuController mcu(kernel, fast_params(), plant.callbacks(kernel));
  mcu.start();
  kernel.run_until(35.0);
  EXPECT_EQ(mcu.wakeups(), 3u);
  EXPECT_EQ(mcu.tuning_bursts(), 0u);
  EXPECT_EQ(plant.mode, LoadMode::kSleep);
  // Every wakeup logged a frequency-matched event.
  std::size_t matched = 0;
  for (const auto& e : mcu.events()) {
    matched += e.type == McuEvent::Type::kFrequencyMatched ? 1u : 0u;
  }
  EXPECT_EQ(matched, 3u);
}

TEST(Mcu, LowEnergySkipsMeasurement) {
  Kernel kernel;
  MockPlant plant;
  plant.vc = 2.0;  // below the 3.0 V threshold
  plant.ambient_hz = 75.0;  // mismatch present but unreachable
  McuController mcu(kernel, fast_params(), plant.callbacks(kernel));
  mcu.start();
  kernel.run_until(25.0);
  EXPECT_EQ(mcu.tuning_bursts(), 0u);
  EXPECT_EQ(plant.mode, LoadMode::kSleep);
  bool saw_energy_low = false;
  for (const auto& e : mcu.events()) {
    saw_energy_low = saw_energy_low || e.type == McuEvent::Type::kEnergyLow;
  }
  EXPECT_TRUE(saw_energy_low);
}

TEST(Mcu, TunesOnFrequencyMismatch) {
  Kernel kernel;
  MockPlant plant;
  plant.ambient_hz = 72.0;  // 2 Hz mismatch -> 1 s tuning at 2 Hz/s
  McuController mcu(kernel, fast_params(), plant.callbacks(kernel));
  mcu.start();
  kernel.run_until(12.0);
  EXPECT_EQ(mcu.tuning_bursts(), 1u);
  EXPECT_EQ(mcu.completed_tunings(), 1u);
  EXPECT_EQ(plant.start_calls, 1);
  EXPECT_NEAR(plant.resonance_at(kernel.now()), 72.0, 1e-9);
  EXPECT_EQ(plant.mode, LoadMode::kSleep);  // back asleep after completion
  EXPECT_EQ(mcu.state(), McuState::kSleep);
}

TEST(Mcu, LoadModeSequenceDuringTuning) {
  Kernel kernel;
  MockPlant plant;
  plant.ambient_hz = 71.0;
  std::vector<LoadMode> modes;
  auto cb = plant.callbacks(kernel);
  auto original = cb.set_load_mode;
  cb.set_load_mode = [&modes, &plant](LoadMode m) {
    modes.push_back(m);
    plant.mode = m;
  };
  McuController mcu(kernel, fast_params(), std::move(cb));
  mcu.start();
  kernel.run_until(12.0);
  // Awake (measurement) -> Tuning -> Sleep.
  ASSERT_GE(modes.size(), 3u);
  EXPECT_EQ(modes[0], LoadMode::kAwake);
  EXPECT_EQ(modes[1], LoadMode::kTuning);
  EXPECT_EQ(modes[2], LoadMode::kSleep);
}

TEST(Mcu, AbortsBurstWhenSupercapSags) {
  Kernel kernel;
  MockPlant plant;
  plant.ambient_hz = 78.0;  // long burst: 8 Hz / 2 Hz/s = 4 s
  McuController mcu(kernel, fast_params(), plant.callbacks(kernel));
  // Sag the supply shortly after the burst begins.
  kernel.schedule_at(11.0, [&plant] { plant.vc = 1.0; });
  mcu.start();
  kernel.run_until(14.0);
  EXPECT_EQ(mcu.aborted_bursts(), 1u);
  EXPECT_EQ(mcu.completed_tunings(), 0u);
  EXPECT_EQ(plant.stop_calls, 1);
  EXPECT_EQ(plant.mode, LoadMode::kSleep);
  // Partial progress was made before the abort.
  EXPECT_GT(plant.resonance_at(kernel.now()), 70.0);
  EXPECT_LT(plant.resonance_at(kernel.now()), 78.0);
}

TEST(Mcu, ResumesTuningAfterRecharge) {
  Kernel kernel;
  MockPlant plant;
  plant.ambient_hz = 78.0;
  McuController mcu(kernel, fast_params(), plant.callbacks(kernel));
  kernel.schedule_at(11.0, [&plant] { plant.vc = 1.0; });   // sag -> abort
  kernel.schedule_at(15.0, [&plant] { plant.vc = 3.4; });   // recharged
  mcu.start();
  kernel.run_until(40.0);
  EXPECT_EQ(mcu.aborted_bursts(), 1u);
  EXPECT_GE(mcu.tuning_bursts(), 2u);      // burst resumed at a later wake
  EXPECT_EQ(mcu.completed_tunings(), 1u);  // and eventually completed
  EXPECT_NEAR(plant.resonance_at(kernel.now()), 78.0, 1e-9);
}

TEST(Mcu, WatchdogIgnoredWhileBusy) {
  Kernel kernel;
  MockPlant plant;
  plant.ambient_hz = 75.0;
  plant.tuning_rate_hz_per_s = 0.4;  // 12.5 s burst spans a watchdog period
  McuController mcu(kernel, fast_params(), plant.callbacks(kernel));
  mcu.start();
  kernel.run_until(35.0);
  EXPECT_EQ(plant.start_calls, 1);  // no re-entrant tuning from the watchdog
  EXPECT_EQ(mcu.completed_tunings(), 1u);
}

TEST(Mcu, EventsCarryTimesAndValues) {
  Kernel kernel;
  MockPlant plant;
  plant.ambient_hz = 71.0;
  McuController mcu(kernel, fast_params(), plant.callbacks(kernel));
  mcu.start();
  kernel.run_until(12.0);
  ASSERT_FALSE(mcu.events().empty());
  EXPECT_EQ(mcu.events().front().type, McuEvent::Type::kWakeup);
  EXPECT_NEAR(mcu.events().front().time, 10.0, 1e-9);
  EXPECT_NEAR(mcu.events().front().value, 3.4, 1e-12);  // Vc at wake
  bool found_start = false;
  for (const auto& e : mcu.events()) {
    if (e.type == McuEvent::Type::kTuningStarted) {
      found_start = true;
      EXPECT_NEAR(e.value, 71.0, 1e-12);  // target frequency
    }
  }
  EXPECT_TRUE(found_start);
}

TEST(Mcu, MissingCallbacksRejected) {
  Kernel kernel;
  McuCallbacks empty;
  EXPECT_THROW(McuController(kernel, fast_params(), empty), ehsim::ModelError);
}

/// Parameter sweep: the energy threshold gates tuning exactly.
class McuEnergyGate : public ::testing::TestWithParam<double> {};

TEST_P(McuEnergyGate, ThresholdGatesTuning) {
  const double vc = GetParam();
  Kernel kernel;
  MockPlant plant;
  plant.vc = vc;
  plant.ambient_hz = 72.0;
  McuController mcu(kernel, fast_params(), plant.callbacks(kernel));
  mcu.start();
  kernel.run_until(12.0);
  if (vc >= fast_params().energy_threshold_voltage) {
    EXPECT_EQ(mcu.tuning_bursts(), 1u) << "vc=" << vc;
  } else {
    EXPECT_EQ(mcu.tuning_bursts(), 0u) << "vc=" << vc;
  }
}

INSTANTIATE_TEST_SUITE_P(Voltages, McuEnergyGate,
                         ::testing::Values(1.0, 2.0, 2.9, 3.05, 3.4, 4.0));

}  // namespace
