#include "harvester/tuning.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "common/error.hpp"
#include "io/state_json.hpp"

namespace ehsim::harvester {

double MicrogeneratorParams::spring_stiffness() const noexcept {
  const double omega = 2.0 * std::numbers::pi * untuned_resonance_hz;
  return proof_mass * omega * omega;
}

TuningMechanism::TuningMechanism(const TuningParams& params,
                                 const MicrogeneratorParams& generator)
    : params_(params),
      untuned_hz_(generator.untuned_resonance_hz),
      stiffness_(generator.spring_stiffness()),
      buckling_(params.buckling_load) {
  if (!(params_.gap_min > 0.0) || !(params_.gap_max > params_.gap_min)) {
    throw ModelError("TuningMechanism: require 0 < gap_min < gap_max");
  }
  if (!(buckling_ > 0.0) || !(params_.force_constant > 0.0)) {
    throw ModelError("TuningMechanism: force constant and buckling load must be positive");
  }
}

double TuningMechanism::force_at_gap(double gap) const {
  const double d = std::clamp(gap, params_.gap_min, params_.gap_max) + params_.gap_offset;
  return params_.force_constant / (d * d * d * d);
}

double TuningMechanism::resonance_at_gap(double gap) const {
  // Paper Eq. 12: f0r = fr sqrt(1 + Ft/Fb).
  return untuned_hz_ * std::sqrt(1.0 + force_at_gap(gap) / buckling_);
}

double TuningMechanism::stiffness_at_gap(double gap) const {
  return stiffness_ * (1.0 + force_at_gap(gap) / buckling_);
}

double TuningMechanism::gap_for_frequency(double frequency_hz) const {
  if (!(frequency_hz > 0.0)) {
    throw ModelError("TuningMechanism: frequency must be positive");
  }
  const double ratio = frequency_hz / untuned_hz_;
  const double ft_required = (ratio * ratio - 1.0) * buckling_;
  if (ft_required <= force_at_gap(params_.gap_max)) {
    return params_.gap_max;  // cannot tune below the relaxed resonance
  }
  if (ft_required >= force_at_gap(params_.gap_min)) {
    return params_.gap_min;
  }
  const double d = std::pow(params_.force_constant / ft_required, 0.25);
  return std::clamp(d - params_.gap_offset, params_.gap_min, params_.gap_max);
}

LinearActuator::LinearActuator(const ActuatorParams& params, const TuningParams& tuning)
    : speed_(params.speed),
      gap_min_(tuning.gap_min),
      gap_max_(tuning.gap_max),
      start_position_(std::clamp(params.initial_gap, tuning.gap_min, tuning.gap_max)),
      target_(start_position_) {
  if (!(speed_ > 0.0)) {
    throw ModelError("LinearActuator: speed must be positive");
  }
}

void LinearActuator::command(double target_gap, double t_now) {
  start_position_ = position(t_now);
  start_time_ = t_now;
  target_ = std::clamp(target_gap, gap_min_, gap_max_);
  arrival_time_ = t_now + std::abs(target_ - start_position_) / speed_;
}

void LinearActuator::stop(double t_now) {
  start_position_ = position(t_now);
  start_time_ = t_now;
  target_ = start_position_;
  arrival_time_ = t_now;
}

double LinearActuator::position(double t) const {
  if (t >= arrival_time_) {
    return target_;
  }
  if (t <= start_time_) {
    return start_position_;
  }
  const double direction = target_ > start_position_ ? 1.0 : -1.0;
  return start_position_ + direction * speed_ * (t - start_time_);
}

bool LinearActuator::moving(double t) const {
  return t >= start_time_ && t < arrival_time_;
}

io::JsonValue LinearActuator::checkpoint_state() const {
  io::JsonValue state = io::JsonValue::make_object();
  state.set("start_position", io::real_to_json(start_position_));
  state.set("start_time", io::real_to_json(start_time_));
  state.set("target", io::real_to_json(target_));
  state.set("arrival_time", io::real_to_json(arrival_time_));
  return state;
}

void LinearActuator::restore_checkpoint_state(const io::JsonValue& state) {
  const std::string what = "actuator checkpoint";
  io::check_state_keys(state, what,
                       {"start_position", "start_time", "target", "arrival_time"});
  start_position_ = io::real_from_json(io::require_key(state, what, "start_position"),
                                       what + ".start_position");
  start_time_ =
      io::real_from_json(io::require_key(state, what, "start_time"), what + ".start_time");
  target_ = io::real_from_json(io::require_key(state, what, "target"), what + ".target");
  arrival_time_ =
      io::real_from_json(io::require_key(state, what, "arrival_time"), what + ".arrival_time");
}

}  // namespace ehsim::harvester
