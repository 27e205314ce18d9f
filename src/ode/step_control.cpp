#include "ode/step_control.hpp"

#include <algorithm>
#include <cmath>

#include "io/state_json.hpp"

namespace ehsim::ode {

namespace {
/// Error ratios are floored here before the power law.
constexpr double kRatioFloor = 1e-12;
}  // namespace

StepController::StepController(StepControlOptions options, std::size_t method_order)
    : options_(options),
      order_(std::max<std::size_t>(method_order, 1)),
      exponent_(-1.0 / static_cast<double>(order_ + 1)),
      floor_factor_(options_.safety * std::pow(kRatioFloor, exponent_)),
      h_(options.h_max) {
  if (!(options_.h_min > 0.0) || !(options_.h_max >= options_.h_min)) {
    throw ModelError("StepController: require 0 < h_min <= h_max");
  }
  if (!(options_.safety > 0.0 && options_.safety <= 1.0)) {
    throw ModelError("StepController: safety must be in (0, 1]");
  }
  h_ = std::clamp(options_.h_max, options_.h_min, options_.h_max);
}

bool StepController::update(double error_ratio) {
  // At or below the floor the factor is the constant floor_factor_ (every
  // zero-drift step of the linearised engine); a NaN ratio is not <= the
  // floor and takes the power law.
  double factor = error_ratio <= kRatioFloor
                      ? floor_factor_
                      : options_.safety * std::pow(error_ratio, exponent_);
  factor = std::clamp(factor, options_.max_shrink, options_.max_growth);

  if (error_ratio <= 1.0) {
    ++acceptances_;
    if (hold_countdown_ > 0) {
      --hold_countdown_;
      factor = std::min(factor, 1.0);  // no regrowth while holding
    }
    h_ = std::clamp(h_ * factor, options_.h_min, options_.h_max);
    return true;
  }
  ++rejections_;
  hold_countdown_ = options_.hold_after_reject;
  factor = std::min(factor, 0.8);  // rejection must actually shrink
  h_ = std::clamp(h_ * factor, options_.h_min, options_.h_max);
  return false;
}

void StepController::set_step(double h) {
  h_ = std::clamp(h, options_.h_min, options_.h_max);
}


io::JsonValue StepController::checkpoint_state() const {
  io::JsonValue state = io::JsonValue::make_object();
  state.set("h", io::real_to_json(h_));
  state.set("rejections", io::u64_to_json(rejections_));
  state.set("acceptances", io::u64_to_json(acceptances_));
  state.set("hold_countdown", io::u64_to_json(hold_countdown_));
  return state;
}

void StepController::restore_checkpoint_state(const io::JsonValue& state) {
  const std::string what = "checkpoint.controller";
  io::check_state_keys(state, what, {"h", "rejections", "acceptances", "hold_countdown"});
  // Restored verbatim, not through set_step: the saved value was already
  // clamped when it was produced, and re-clamping must not change it.
  h_ = io::real_from_json(io::require_key(state, what, "h"), what + ".h");
  rejections_ = io::index_from_json(io::require_key(state, what, "rejections"), what + ".rejections");
  acceptances_ =
      io::index_from_json(io::require_key(state, what, "acceptances"), what + ".acceptances");
  hold_countdown_ = io::index_from_json(io::require_key(state, what, "hold_countdown"),
                                        what + ".hold_countdown");
}

}  // namespace ehsim::ode
