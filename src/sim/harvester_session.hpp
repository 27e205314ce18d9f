/// \file harvester_session.hpp
/// \brief Session over the complete tunable-harvester model (paper Fig. 1).
///
/// Bundles the HarvesterSystem factory with the generic Session: one
/// constructor call replaces the model/engine/kernel/attach ritual that
/// every bench and example used to spell out by hand. The engine defaults
/// to the paper's linearised state-space solver; baselines (or any custom
/// engine) plug in through Options::engine_factory.
#pragma once

#include <memory>

#include "harvester/harvester_system.hpp"
#include "sim/session.hpp"

namespace ehsim::sim {

class HarvesterSession {
 public:
  struct Options {
    /// Diode evaluation: PWL tables for the proposed engine, exact Shockley
    /// for Newton-Raphson baselines.
    harvester::DeviceEvalMode mode = harvester::DeviceEvalMode::kPwlTable;
    /// Build the digital control process (MCU + watchdog).
    bool with_mcu = false;
    /// Linearised-engine configuration (ignored when engine_factory is set).
    core::SolverConfig solver{};
    /// Custom engine; empty builds a LinearisedSolver with `solver`.
    Session::EngineFactory engine_factory{};
  };

  explicit HarvesterSession(const harvester::HarvesterParams& params);
  HarvesterSession(const harvester::HarvesterParams& params, Options options);

  [[nodiscard]] harvester::HarvesterSystem& system() noexcept { return *system_; }
  [[nodiscard]] const harvester::HarvesterSystem& system() const noexcept { return *system_; }
  [[nodiscard]] Session& session() noexcept { return session_; }
  [[nodiscard]] const Session& session() const noexcept { return session_; }

  // Forwarders for the common path.
  [[nodiscard]] core::AnalogEngine& engine() noexcept { return session_.engine(); }
  core::TraceRecorder& enable_trace(double min_interval) {
    return session_.enable_trace(min_interval);
  }
  void add_observer(core::SolutionObserver observer) {
    session_.add_observer(std::move(observer));
  }
  [[nodiscard]] core::ProbeHub& probes() { return session_.probes(); }
  [[nodiscard]] bool has_probes() const noexcept { return session_.has_probes(); }
  void initialise(double t0 = 0.0) { session_.initialise(t0); }
  void run_until(double t_end) { session_.run_until(t_end); }
  [[nodiscard]] double time() const { return session_.time(); }
  [[nodiscard]] const core::SolverStats& stats() const { return session_.stats(); }
  [[nodiscard]] double cpu_seconds() const noexcept { return session_.cpu_seconds(); }
  [[nodiscard]] std::span<const double> state() const { return session_.engine().state(); }
  [[nodiscard]] std::span<const double> terminals() const {
    return session_.engine().terminals();
  }
  [[nodiscard]] Checkpoint save_checkpoint(io::JsonValue meta = io::JsonValue(nullptr)) {
    return session_.save_checkpoint(std::move(meta));
  }
  void restore_checkpoint(const Checkpoint& checkpoint) {
    session_.restore_checkpoint(checkpoint);
  }

 private:
  std::shared_ptr<harvester::HarvesterSystem> system_;
  Session session_;
};

}  // namespace ehsim::sim
