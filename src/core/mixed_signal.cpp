#include "core/mixed_signal.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace ehsim::core {

MixedSignalSimulator::MixedSignalSimulator(AnalogEngine& engine, digital::Kernel& kernel)
    : engine_(&engine), kernel_(&kernel) {}

void MixedSignalSimulator::run_until(double t_end) {
  if (!(t_end >= engine_->time())) {
    throw ModelError("MixedSignalSimulator: t_end must be >= current time");
  }
  while (engine_->time() < t_end) {
    const auto next_event = kernel_->next_event_time();
    const double target =
        next_event ? std::min(*next_event, t_end) : t_end;
    if (target > engine_->time()) {
      engine_->advance_to(target);
      if (engine_->time() < target) {
        return;  // the engine paused: the digital side waits for the resume
      }
    }
    // Execute the digital activity at the synchronisation point; handlers
    // see the consistent analogue solution the engine just produced.
    kernel_->run_until(target);
    ++sync_points_;
    if (target >= t_end) {
      break;
    }
  }
}

}  // namespace ehsim::core
