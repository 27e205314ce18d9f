/// \file engine.hpp
/// \brief Common interface of the two analogue simulation engines.
///
/// `LinearisedSolver` (the paper's proposed technique) and the baseline
/// `NrEngine` (the "existing technique" of Tables I/II) both implement this
/// interface, so the mixed-signal scheduler, the experiment harness and the
/// benchmarks can drive either engine over the identical model and digital
/// control process.
#pragma once

#include <functional>
#include <span>

#include "core/assembler.hpp"
#include "core/solver_config.hpp"
#include "io/json.hpp"

namespace ehsim::core {

/// Observer invoked at consistent solution points (t, x, y).
using SolutionObserver =
    std::function<void(double t, std::span<const double> x, std::span<const double> y)>;

/// Abstract analogue transient engine over an elaborated SystemAssembler.
class AnalogEngine {
 public:
  virtual ~AnalogEngine() = default;

  /// Establish a consistent operating point at \p t0 (initial states from
  /// the blocks, algebraic variables solved).
  virtual void initialise(double t0) = 0;

  /// Advance the transient solution to exactly \p t_end (>= time()).
  virtual void advance_to(double t_end) = 0;

  [[nodiscard]] virtual double time() const = 0;
  /// Current global state vector x.
  [[nodiscard]] virtual std::span<const double> state() const = 0;
  /// Current global terminal (net) variables y.
  [[nodiscard]] virtual std::span<const double> terminals() const = 0;

  [[nodiscard]] virtual const SystemAssembler& system() const = 0;
  [[nodiscard]] virtual const SolverStats& stats() const = 0;

  /// Register an observer called at every accepted solution point.
  virtual void add_observer(SolutionObserver observer) = 0;

  /// Engine display name for reports ("linearised-state-space", ...).
  [[nodiscard]] virtual const char* engine_name() const = 0;

  /// Exact snapshot of the engine's mutable numerical state (solution
  /// vectors, integrator history, step controller, statistics). Restoring it
  /// into a freshly built engine over the *same model in the same state*
  /// must continue the trajectory bit for bit. The document is strict-keyed
  /// and self-checking: restore recomputes the algebraic residual at the
  /// restored point and requires bit-equality with the checkpointed value.
  [[nodiscard]] virtual io::JsonValue checkpoint_state() const = 0;
  /// Inverse of checkpoint_state(). The model (blocks, epochs, parameters)
  /// must already be restored; throws ModelError on any mismatch.
  virtual void restore_checkpoint_state(const io::JsonValue& state) = 0;
  /// A checkpoint was cut at the current point: drop every cache the
  /// document does not carry, so the run continues exactly like one restored
  /// from it. Session::save_checkpoint calls it after checkpoint_state().
  virtual void checkpoint_cut() {}
};

}  // namespace ehsim::core
