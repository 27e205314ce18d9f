#include "harvester/mcu.hpp"

#include <cmath>
#include <string>

#include "common/error.hpp"
#include "io/state_json.hpp"

namespace ehsim::harvester {

McuController::McuController(digital::Kernel& kernel, const McuParams& params,
                             McuCallbacks callbacks)
    : kernel_(&kernel),
      params_(params),
      callbacks_(std::move(callbacks)),
      watchdog_(kernel, params.watchdog_period, [this] { on_watchdog(); }) {
  if (!callbacks_.supercap_voltage || !callbacks_.ambient_frequency ||
      !callbacks_.resonant_frequency || !callbacks_.set_load_mode ||
      !callbacks_.start_tuning || !callbacks_.stop_tuning) {
    throw ModelError("McuController: all callbacks are required");
  }
}

void McuController::start() { watchdog_.start(); }

void McuController::log(McuEvent::Type type, double value) {
  events_.push_back(McuEvent{kernel_->now(), type, value});
}

void McuController::on_watchdog() {
  if (state_ != McuState::kSleep) {
    return;  // a measurement or tuning burst is already in progress
  }
  ++wakeups_;
  const double vc = callbacks_.supercap_voltage();
  log(McuEvent::Type::kWakeup, vc);

  // Fig. 7: "enough energy?" — without it, go straight back to sleep.
  if (vc < params_.energy_threshold_voltage) {
    log(McuEvent::Type::kEnergyLow, vc);
    return;
  }

  // Wake the measurement circuitry (Eq. 16: 33 Ohm while awake).
  state_ = McuState::kMeasuring;
  callbacks_.set_load_mode(LoadMode::kAwake);
  pending_kind_ = PendingKind::kMeasurement;
  pending_id_ = kernel_->schedule_in(params_.measurement_time, [this] { on_measurement_done(); });
}

void McuController::on_measurement_done() {
  pending_kind_ = PendingKind::kNone;
  pending_id_ = 0;
  const double f_ambient = callbacks_.ambient_frequency();
  const double f_resonant = callbacks_.resonant_frequency();

  // Fig. 7: "frequency matched?".
  if (std::abs(f_ambient - f_resonant) <= params_.frequency_tolerance) {
    log(McuEvent::Type::kFrequencyMatched, f_resonant);
    callbacks_.set_load_mode(LoadMode::kSleep);
    state_ = McuState::kSleep;
    return;
  }

  // Start the tuning burst (Eq. 16: 16.7 Ohm while the actuator runs).
  state_ = McuState::kTuning;
  ++tuning_bursts_;
  callbacks_.set_load_mode(LoadMode::kTuning);
  tuning_arrival_ = callbacks_.start_tuning(f_ambient, kernel_->now());
  log(McuEvent::Type::kTuningStarted, f_ambient);
  pending_kind_ = PendingKind::kTuningPoll;
  pending_id_ =
      kernel_->schedule_in(std::min(kTuningPollInterval, tuning_arrival_ - kernel_->now()),
                           [this] { on_tuning_poll(); });
}

void McuController::on_tuning_poll() {
  pending_kind_ = PendingKind::kNone;
  pending_id_ = 0;
  if (state_ != McuState::kTuning) {
    return;
  }
  const double now = kernel_->now();
  const double vc = callbacks_.supercap_voltage();

  if (vc < params_.abort_voltage) {
    // Not enough stored energy to finish the burst: park the actuator and
    // sleep; the next watchdog wake-up re-enters the Fig. 7 loop and resumes
    // tuning from the parked position once recharged.
    callbacks_.stop_tuning(now);
    callbacks_.set_load_mode(LoadMode::kSleep);
    state_ = McuState::kSleep;
    ++aborted_bursts_;
    log(McuEvent::Type::kTuningAborted, vc);
    return;
  }

  if (now >= tuning_arrival_ - 1e-12) {
    callbacks_.set_load_mode(LoadMode::kSleep);
    state_ = McuState::kSleep;
    ++completed_tunings_;
    log(McuEvent::Type::kTuningCompleted, callbacks_.resonant_frequency());
    return;
  }

  pending_kind_ = PendingKind::kTuningPoll;
  pending_id_ = kernel_->schedule_in(std::min(kTuningPollInterval, tuning_arrival_ - now),
                                     [this] { on_tuning_poll(); });
}

namespace {

const char* mcu_state_name(McuState state) {
  switch (state) {
    case McuState::kSleep:
      return "sleep";
    case McuState::kMeasuring:
      return "measuring";
    case McuState::kTuning:
      return "tuning";
  }
  throw ModelError("McuController: unknown state");
}

McuState mcu_state_from_name(const std::string& name) {
  if (name == "sleep") {
    return McuState::kSleep;
  }
  if (name == "measuring") {
    return McuState::kMeasuring;
  }
  if (name == "tuning") {
    return McuState::kTuning;
  }
  throw ModelError("McuController checkpoint: unknown state '" + name + "'");
}

const char* mcu_event_type_name(McuEvent::Type type) {
  switch (type) {
    case McuEvent::Type::kWakeup:
      return "wakeup";
    case McuEvent::Type::kEnergyLow:
      return "energy_low";
    case McuEvent::Type::kFrequencyMatched:
      return "frequency_matched";
    case McuEvent::Type::kTuningStarted:
      return "tuning_started";
    case McuEvent::Type::kTuningCompleted:
      return "tuning_completed";
    case McuEvent::Type::kTuningAborted:
      return "tuning_aborted";
  }
  throw ModelError("McuController: unknown event type");
}

McuEvent::Type mcu_event_type_from_name(const std::string& name) {
  if (name == "wakeup") {
    return McuEvent::Type::kWakeup;
  }
  if (name == "energy_low") {
    return McuEvent::Type::kEnergyLow;
  }
  if (name == "frequency_matched") {
    return McuEvent::Type::kFrequencyMatched;
  }
  if (name == "tuning_started") {
    return McuEvent::Type::kTuningStarted;
  }
  if (name == "tuning_completed") {
    return McuEvent::Type::kTuningCompleted;
  }
  if (name == "tuning_aborted") {
    return McuEvent::Type::kTuningAborted;
  }
  throw ModelError("McuController checkpoint: unknown event type '" + name + "'");
}

}  // namespace

io::JsonValue McuController::checkpoint_state() const {
  io::JsonValue state = io::JsonValue::make_object();
  state.set("state", io::JsonValue(std::string(mcu_state_name(state_))));
  state.set("tuning_arrival", io::real_to_json(tuning_arrival_));
  const char* kind = pending_kind_ == PendingKind::kMeasurement  ? "measurement"
                     : pending_kind_ == PendingKind::kTuningPoll ? "tuning_poll"
                                                                 : "none";
  state.set("pending_kind", io::JsonValue(std::string(kind)));
  state.set("pending", digital::pending_event_to_json(
                           pending_id_ != 0 ? kernel_->pending_info(pending_id_) : std::nullopt));
  io::JsonValue events = io::JsonValue::make_array();
  for (const McuEvent& event : events_) {
    io::JsonValue entry = io::JsonValue::make_object();
    entry.set("time", io::real_to_json(event.time));
    entry.set("type", io::JsonValue(std::string(mcu_event_type_name(event.type))));
    entry.set("value", io::real_to_json(event.value));
    events.push_back(std::move(entry));
  }
  state.set("events", std::move(events));
  state.set("wakeups", io::u64_to_json(wakeups_));
  state.set("tuning_bursts", io::u64_to_json(tuning_bursts_));
  state.set("aborted_bursts", io::u64_to_json(aborted_bursts_));
  state.set("completed_tunings", io::u64_to_json(completed_tunings_));
  state.set("watchdog", watchdog_.checkpoint_state());
  return state;
}

void McuController::restore_checkpoint_state(const io::JsonValue& state) {
  const std::string what = "mcu checkpoint";
  io::check_state_keys(state, what,
                       {"state", "tuning_arrival", "pending_kind", "pending", "events", "wakeups",
                        "tuning_bursts", "aborted_bursts", "completed_tunings", "watchdog"});
  state_ = mcu_state_from_name(io::require_key(state, what, "state").as_string());
  tuning_arrival_ = io::real_from_json(io::require_key(state, what, "tuning_arrival"),
                                       what + ".tuning_arrival");
  const std::string kind = io::require_key(state, what, "pending_kind").as_string();
  const auto pending =
      digital::pending_event_from_json(io::require_key(state, what, "pending"), what + ".pending");
  if (kind == "none") {
    pending_kind_ = PendingKind::kNone;
    pending_id_ = 0;
  } else if (kind == "measurement" || kind == "tuning_poll") {
    if (!pending.has_value()) {
      throw ModelError(what + ": pending_kind '" + kind + "' requires a pending event");
    }
    pending_kind_ = kind == "measurement" ? PendingKind::kMeasurement : PendingKind::kTuningPoll;
    if (pending_kind_ == PendingKind::kMeasurement) {
      kernel_->schedule_restored(*pending, [this] { on_measurement_done(); });
    } else {
      kernel_->schedule_restored(*pending, [this] { on_tuning_poll(); });
    }
    pending_id_ = pending->id;
  } else {
    throw ModelError(what + ": unknown pending_kind '" + kind + "'");
  }
  events_.clear();
  const io::JsonValue::Array& events =
      io::require_key(state, what, "events").as_array();
  for (std::size_t i = 0; i < events.size(); ++i) {
    const io::JsonValue& entry = events[i];
    const std::string entry_what = what + ".events[" + std::to_string(i) + "]";
    io::check_state_keys(entry, entry_what, {"time", "type", "value"});
    McuEvent event;
    event.time = io::real_from_json(io::require_key(entry, entry_what, "time"),
                                    entry_what + ".time");
    event.type = mcu_event_type_from_name(io::require_key(entry, entry_what, "type").as_string());
    event.value = io::real_from_json(io::require_key(entry, entry_what, "value"),
                                     entry_what + ".value");
    events_.push_back(event);
  }
  wakeups_ = io::u64_from_json(io::require_key(state, what, "wakeups"), what + ".wakeups");
  tuning_bursts_ =
      io::u64_from_json(io::require_key(state, what, "tuning_bursts"), what + ".tuning_bursts");
  aborted_bursts_ =
      io::u64_from_json(io::require_key(state, what, "aborted_bursts"), what + ".aborted_bursts");
  completed_tunings_ = io::u64_from_json(io::require_key(state, what, "completed_tunings"),
                                         what + ".completed_tunings");
  watchdog_.restore_checkpoint_state(io::require_key(state, what, "watchdog"));
}

}  // namespace ehsim::harvester
