/// \file reference_engine.hpp
/// \brief Extended-precision fixed-step reference integrator (the oracle).
///
/// A slow, dependency-free high-precision reference for the fast paths: the
/// same assembled model (core::SystemAssembler) marched by a small
/// *fixed-step* implicit trapezoidal rule whose Newton corrector runs in
/// `long double` with Neumaier-compensated state accumulation (compensated.hpp,
/// ref_matrix.hpp). Nothing adaptive, nothing linearised, nothing cached:
/// discretisation error is the only error term, it shrinks as O(h^2) with the
/// configured step, and the compensated accumulators keep tens of millions of
/// tiny increments from eroding the extra precision.
///
/// The oracle exists to *measure* the fast engines, not to replace them:
/// experiments::run_accuracy runs a spec on both paths and reports the
/// difference as error bounds, and the autotuner uses those bounds as its
/// constraint. It is deliberately outside the repo's determinism contract —
/// `long double` width is platform-dependent (80-bit x87, 128-bit quad) —
/// which is why extended precision is banned everywhere but src/ref/
/// (tools/ehsim_lint.py) and why reference results never land in golden
/// documents, only the double-precision error bounds derived from them do.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "core/engine.hpp"
#include "ref/compensated.hpp"
#include "ref/ref_matrix.hpp"

namespace ehsim::ref {

/// Oracle configuration. The defaults favour accuracy over speed; the only
/// knob callers normally touch is `fixed_step` (exposed through
/// ExperimentSpec.solver.fixed_step when the spec selects the reference
/// engine).
struct ReferenceConfig {
  /// Trapezoidal step [s]. Global error is O(fixed_step^2); 1e-5 resolves a
  /// 70 Hz excitation with ~1400 steps per period.
  double fixed_step = 1e-5;
  /// Newton residual weights, SPICE abstol-style: state rows converge to
  /// abs_state + rel_tol * running_scale, algebraic rows to abs_flow.
  double rel_tol = 1e-12;
  double abs_state = 1e-14;
  double abs_flow = 1e-11;
  std::size_t max_newton_iterations = 50;
  /// Initial operating-point consistency iterations (Newton on y).
  std::size_t max_init_iterations = 80;
  double init_tolerance = 1e-12;
};

/// core::AnalogEngine implementation of the oracle. Checkpointing is
/// unsupported (the oracle never participates in resumable runs); both
/// checkpoint entry points throw ModelError.
class ReferenceEngine final : public core::AnalogEngine {
 public:
  explicit ReferenceEngine(core::SystemAssembler& system, ReferenceConfig config = {});

  void initialise(double t0) override;
  void advance_to(double t_end) override;

  [[nodiscard]] double time() const override { return static_cast<double>(t_.value()); }
  [[nodiscard]] std::span<const double> state() const override { return x_shadow_; }
  [[nodiscard]] std::span<const double> terminals() const override { return y_shadow_; }
  [[nodiscard]] const core::SystemAssembler& system() const override { return *system_; }
  [[nodiscard]] const core::SolverStats& stats() const override { return stats_; }
  void add_observer(core::SolutionObserver observer) override;
  [[nodiscard]] const char* engine_name() const override {
    return "extended-precision-reference";
  }
  [[nodiscard]] io::JsonValue checkpoint_state() const override;
  void restore_checkpoint_state(const io::JsonValue& state) override;

  [[nodiscard]] const ReferenceConfig& config() const noexcept { return config_; }

 private:
  /// Copy the extended-precision solution into the double shadows the
  /// AnalogEngine interface exposes.
  void sync_shadows();
  /// Newton on y alone (Jyy) until ||fy||inf <= init_tolerance.
  void solve_algebraic_consistency();
  /// Multistep bookkeeping across a model discontinuity (epoch bump):
  /// re-establish algebraic consistency under the changed equations.
  void check_for_discontinuity();
  void notify_observers();
  /// One trapezoidal step of size \p h from the current solution.
  void step(long double h);

  core::SystemAssembler* system_;
  ReferenceConfig config_;
  std::size_t num_states_ = 0;
  std::size_t num_nets_ = 0;
  std::size_t num_unknowns_ = 0;

  // Extended-precision solution: compensated per-state accumulators (the
  // march adds millions of tiny increments) plus plain wide terminals.
  std::vector<CompensatedAccumulator> x_;
  std::vector<long double> y_;
  CompensatedAccumulator t_;
  std::vector<long double> u_scale_;  ///< running max |u| per unknown

  // Double shadows for the span<const double> interface and the assembler.
  std::vector<double> x_shadow_;
  std::vector<double> y_shadow_;
  std::vector<double> x_eval_;
  std::vector<double> y_eval_;
  std::vector<double> fx_scratch_;
  std::vector<double> fy_scratch_;
  linalg::Matrix jxx_, jxy_, jyx_, jyy_;

  // Newton workspace in the wide scalar.
  std::vector<long double> u_work_;
  std::vector<long double> u_trial_;
  std::vector<long double> fx_entry_;
  std::vector<long double> residual_;
  std::vector<long double> delta_;
  RefMatrix jacobian_;
  RefLu lu_;

  std::vector<core::SolutionObserver> observers_;
  core::SolverStats stats_;
  bool initialised_ = false;
  std::uint64_t last_epoch_ = 0;
  double last_notify_time_ = 0.0;
};

}  // namespace ehsim::ref
