/// \file mixed_signal.hpp
/// \brief Analogue/digital co-simulation scheduler.
///
/// "This method of solving analogue ordinary differential equations
/// interfaces easily with a digital kernel in a mixed-signal hardware
/// description language. This is because the analogue solution is obtained
/// in a single march-in-time sweep, rather than an iterative process which
/// might involve backtracking in time." (paper §II)
///
/// The scheduler alternates: advance the analogue engine up to (never past)
/// the next digital event, then execute the events due at that time. Digital
/// handlers observe a *consistent* analogue solution at the event time and
/// may change block parameters; the resulting epoch bump makes the analogue
/// engine restart its multistep history after the event.
///
/// An engine that returns short of its target paused
/// (LinearisedSolver::pause_before): run_until() then returns at once,
/// without running the digital kernel, and the next call picks up the same
/// target, so a paused run continues exactly like an uninterrupted one.
#pragma once

#include "core/engine.hpp"
#include "digital/kernel.hpp"

namespace ehsim::core {

class MixedSignalSimulator {
 public:
  /// \param engine  initialised analogue engine
  /// \param kernel  digital kernel, time-aligned with the engine
  MixedSignalSimulator(AnalogEngine& engine, digital::Kernel& kernel);

  /// Co-simulate until \p t_end (absolute time).
  void run_until(double t_end);

  [[nodiscard]] double time() const { return engine_->time(); }
  [[nodiscard]] AnalogEngine& engine() noexcept { return *engine_; }
  [[nodiscard]] digital::Kernel& kernel() noexcept { return *kernel_; }

  /// Number of analogue/digital synchronisation points so far.
  [[nodiscard]] std::uint64_t sync_points() const noexcept { return sync_points_; }
  /// Checkpoint restore: set the counter verbatim.
  void restore_sync_points(std::uint64_t value) noexcept { sync_points_ = value; }

 private:
  AnalogEngine* engine_;
  digital::Kernel* kernel_;
  std::uint64_t sync_points_ = 0;
};

}  // namespace ehsim::core
