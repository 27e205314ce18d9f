/// \file timer.hpp
/// \brief Watchdog timer process.
///
/// "A watchdog timer wakes the microcontroller periodically" (paper Fig. 7).
/// The timer re-arms itself after every expiry until stopped.
#pragma once

#include <functional>

#include "digital/kernel.hpp"
#include "io/json.hpp"

namespace ehsim::digital {

/// Periodic watchdog: fires `on_expire` every `period` seconds.
class WatchdogTimer {
 public:
  /// \param kernel    owning kernel (must outlive the timer)
  /// \param period    expiry period in seconds (> 0)
  /// \param on_expire callback invoked at every expiry
  WatchdogTimer(Kernel& kernel, SimTime period, std::function<void()> on_expire);

  /// Arm the timer; first expiry at now + period (or \p first_delay when
  /// given). Re-arming while running restarts the countdown.
  void start();
  void start_after(SimTime first_delay);
  /// Stop; no further expiries until start() is called again.
  void stop();

  [[nodiscard]] bool running() const noexcept { return running_; }
  [[nodiscard]] SimTime period() const noexcept { return period_; }
  [[nodiscard]] std::uint64_t expiries() const noexcept { return expiries_; }

  /// Exact snapshot: period, running flag, expiry counter and the pending
  /// event's full ordering key (queried from the owning kernel).
  [[nodiscard]] io::JsonValue checkpoint_state() const;
  /// Re-arm from a snapshot. The kernel's clock must already be restored;
  /// the pending event is re-created with its exact checkpointed identity.
  void restore_checkpoint_state(const io::JsonValue& state);

 private:
  void arm(SimTime delay);
  void fire();

  Kernel* kernel_;
  SimTime period_;
  std::function<void()> on_expire_;
  EventId pending_ = 0;
  bool running_ = false;
  std::uint64_t expiries_ = 0;
};

}  // namespace ehsim::digital
