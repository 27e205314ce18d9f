/// \file mcu.hpp
/// \brief Microcontroller digital control process (paper Fig. 7).
///
/// "A watchdog timer wakes the microcontroller periodically and the
/// microcontroller first detects if there is enough energy stored in the
/// supercapacitor. If there is not enough energy, the microcontroller goes
/// to sleep and waits for the watchdog timer again. If there is enough
/// energy, the microcontroller will then detect the ambient vibration
/// frequency to see if it matches the microgenerator's resonant frequency.
/// If there is a difference ... the microcontroller will start the tuning
/// process by controlling the actuator to move the tuning magnet to the
/// desired position."
///
/// Implemented as a state machine over the digital kernel. The MCU is
/// "purely digital ... there are no state equations needed" (paper §III-D);
/// it interacts with the analogue side only through the callback interface,
/// which keeps the controller unit-testable against mocks and identical
/// across both analogue engines. While tuning, the controller polls the
/// stored energy and aborts the burst when the supercapacitor sags below
/// the abort threshold — the Fig. 7 energy check re-entered from the top on
/// the next watchdog wake-up.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "digital/kernel.hpp"
#include "digital/timer.hpp"
#include "harvester/params.hpp"
#include "harvester/supercapacitor.hpp"

namespace ehsim::harvester {

/// Analogue-side interface of the MCU.
struct McuCallbacks {
  std::function<double()> supercap_voltage;          ///< Vc probe [V]
  std::function<double()> ambient_frequency;         ///< vibration sensor [Hz]
  std::function<double()> resonant_frequency;        ///< current f0r [Hz]
  std::function<void(LoadMode)> set_load_mode;       ///< Eq. 16 switch
  /// Begin actuation toward \p target_hz; returns the motion arrival time.
  std::function<double(double target_hz, double t_now)> start_tuning;
  std::function<void(double t_now)> stop_tuning;     ///< abort actuation
};

enum class McuState { kSleep, kMeasuring, kTuning };

/// Log entry for tests and figure annotation.
struct McuEvent {
  enum class Type {
    kWakeup,
    kEnergyLow,
    kFrequencyMatched,
    kTuningStarted,
    kTuningCompleted,
    kTuningAborted,
  };
  double time = 0.0;
  Type type = Type::kWakeup;
  double value = 0.0;  ///< context (Vc at wake, target frequency, ...)
};

class McuController {
 public:
  McuController(digital::Kernel& kernel, const McuParams& params, McuCallbacks callbacks);

  /// Arm the watchdog; first wake after one period.
  void start();

  [[nodiscard]] McuState state() const noexcept { return state_; }
  [[nodiscard]] const std::vector<McuEvent>& events() const noexcept { return events_; }
  [[nodiscard]] std::uint64_t wakeups() const noexcept { return wakeups_; }
  [[nodiscard]] std::uint64_t tuning_bursts() const noexcept { return tuning_bursts_; }
  [[nodiscard]] std::uint64_t aborted_bursts() const noexcept { return aborted_bursts_; }
  [[nodiscard]] std::uint64_t completed_tunings() const noexcept { return completed_tunings_; }

  [[nodiscard]] const McuParams& params() const noexcept { return params_; }

  /// Exact snapshot of the state machine: state, tuning arrival, counters,
  /// the event log and the identity of the pending one-shot event
  /// (measurement-done or tuning-poll), plus the watchdog's own state.
  [[nodiscard]] io::JsonValue checkpoint_state() const;
  /// Restore a snapshot onto a freshly built controller. The kernel's clock
  /// must already be restored; pending events (watchdog wake-up and the
  /// one-shot) are re-armed with their exact checkpointed identities.
  void restore_checkpoint_state(const io::JsonValue& state);

 private:
  /// Which one-shot event is in flight (the state machine schedules at most
  /// one: a measurement completion while kMeasuring, a poll while kTuning).
  enum class PendingKind { kNone, kMeasurement, kTuningPoll };

  void on_watchdog();
  void on_measurement_done();
  void on_tuning_poll();
  void log(McuEvent::Type type, double value);

  digital::Kernel* kernel_;
  McuParams params_;
  McuCallbacks callbacks_;
  digital::WatchdogTimer watchdog_;

  McuState state_ = McuState::kSleep;
  double tuning_arrival_ = 0.0;
  PendingKind pending_kind_ = PendingKind::kNone;
  digital::EventId pending_id_ = 0;
  static constexpr double kTuningPollInterval = 0.2;  ///< [s]

  std::vector<McuEvent> events_;
  std::uint64_t wakeups_ = 0;
  std::uint64_t tuning_bursts_ = 0;
  std::uint64_t aborted_bursts_ = 0;
  std::uint64_t completed_tunings_ = 0;
};

}  // namespace ehsim::harvester
