#include "digital/timer.hpp"

#include "io/state_json.hpp"

namespace ehsim::digital {

WatchdogTimer::WatchdogTimer(Kernel& kernel, SimTime period, std::function<void()> on_expire)
    : kernel_(&kernel), period_(period), on_expire_(std::move(on_expire)) {
  if (!(period_ > 0.0)) {
    throw ModelError("WatchdogTimer: period must be positive");
  }
  if (!on_expire_) {
    throw ModelError("WatchdogTimer: expiry callback is required");
  }
}

void WatchdogTimer::start() { start_after(period_); }

void WatchdogTimer::start_after(SimTime first_delay) {
  stop();
  running_ = true;
  arm(first_delay);
}

void WatchdogTimer::stop() {
  if (pending_ != 0) {
    kernel_->cancel(pending_);
    pending_ = 0;
  }
  running_ = false;
}

void WatchdogTimer::arm(SimTime delay) {
  pending_ = kernel_->schedule_in(delay, [this] { fire(); });
}

void WatchdogTimer::fire() {
  pending_ = 0;
  ++expiries_;
  if (running_) {
    arm(period_);  // re-arm before the callback so the callback may stop()
    on_expire_();
  }
}



io::JsonValue WatchdogTimer::checkpoint_state() const {
  io::JsonValue state = io::JsonValue::make_object();
  state.set("period", io::real_to_json(period_));
  state.set("running", io::JsonValue(running_));
  state.set("expiries", io::u64_to_json(expiries_));
  state.set("pending", pending_event_to_json(
                 pending_ != 0 ? kernel_->pending_info(pending_) : std::nullopt));
  return state;
}

void WatchdogTimer::restore_checkpoint_state(const io::JsonValue& state) {
  const std::string what = "checkpoint.watchdog";
  io::check_state_keys(state, what, {"period", "running", "expiries", "pending"});
  period_ = io::real_from_json(io::require_key(state, what, "period"), what + ".period");
  running_ = io::bool_from_json(io::require_key(state, what, "running"), what + ".running");
  expiries_ = io::u64_from_json(io::require_key(state, what, "expiries"), what + ".expiries");
  const std::optional<Kernel::PendingEvent> pending =
      pending_event_from_json(io::require_key(state, what, "pending"), what + ".pending");
  pending_ = 0;
  if (pending.has_value()) {
    kernel_->schedule_restored(*pending, [this] { fire(); });
    pending_ = pending->id;
  }
}

}  // namespace ehsim::digital
