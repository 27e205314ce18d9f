/// \file nr_engine.hpp
/// \brief Newton-Raphson implicit baseline engine ("existing technique").
///
/// Reproduces the structure of the simulators in the paper's Tables I/II
/// (SystemVision VHDL-AMS, OrCAD PSPICE, SystemC-A): at every time step the
/// full differential-algebraic system
///
///     (x_{n+1} - x_ref)/h = f_x(t_{n+1}, x_{n+1}, y_{n+1})   (discretised)
///     0                   = f_y(t_{n+1}, x_{n+1}, y_{n+1})
///
/// is solved by damped Newton-Raphson over the combined unknown u = [x; y],
/// with a *full (N+M)x(N+M) Jacobian assembly and dense LU factorisation at
/// every Newton iteration* and exact (transcendental) device evaluation —
/// precisely the per-step cost the paper's linearised state-space technique
/// eliminates. Step control combines a predictor-based local truncation
/// error estimate with SPICE-style Newton-iteration-count heuristics and
/// rejection/retry on non-convergence.
///
/// It runs the *same* SystemAssembler model and implements the same
/// AnalogEngine interface as the proposed solver, so every comparison in
/// bench/ is apples-to-apples. What it deliberately does NOT emulate is the
/// constant interpreter/elaboration overhead of the commercial tools, so
/// measured speed-ups are a lower bound on the paper's (see README.md, "What
/// the reproduction does not emulate").
#pragma once

#include <limits>
#include <vector>

#include "core/engine.hpp"
#include "linalg/lu.hpp"
#include "ode/newton.hpp"
#include "ode/step_control.hpp"

namespace ehsim::baseline {

/// Implicit discretisation used by a baseline profile.
enum class BaselineMethod {
  kBackwardEuler,  ///< SystemC-A profile
  kTrapezoidal,    ///< SystemVision / VHDL-AMS profile
  kGear2,          ///< OrCAD PSPICE profile
};

struct NrEngineConfig {
  BaselineMethod method = BaselineMethod::kTrapezoidal;

  double h_min = 1e-12;
  double h_max = 5e-4;
  double h_initial = 1e-7;

  /// LTE control: weight_i = abs_tol + rel_tol * running_max|u_i|.
  /// Defaults mirror typical commercial transient tolerances (RELTOL-class
  /// 1e-3); tightening to 1e-4 reproduces a high-accuracy run.
  double lte_rel_tol = 1e-3;
  double lte_abs_tol = 1e-6;

  /// Newton convergence: scaled-residual threshold (see implementation) and
  /// iteration budget per step.
  double newton_rel_tol = 1e-4;
  double newton_abs_state = 1e-9;  ///< absolute weight for state rows
  double newton_abs_flow = 1e-7;   ///< absolute weight for algebraic (KCL) rows
  std::size_t newton_max_iterations = 25;
  /// Minimum corrector iterations per step (SPICE-style double-solve
  /// convergence confirmation).
  std::size_t newton_min_iterations = 2;

  /// SPICE-style iteration-count step heuristics.
  std::size_t iters_for_growth = 4;   ///< grow h when NR converged in <= this
  std::size_t iters_for_shrink = 10;  ///< shrink h when NR needed >= this
  double retry_shrink = 0.25;         ///< h multiplier on NR failure

  const char* profile_name = "nr-baseline";
};

class NrEngine final : public core::AnalogEngine {
 public:
  NrEngine(core::SystemAssembler& system, NrEngineConfig config = {});

  void initialise(double t0) override;
  bool seed_initial_terminals(std::span<const double> y) override;
  void advance_to(double t_end) override;

  [[nodiscard]] double time() const override { return t_; }
  [[nodiscard]] std::span<const double> state() const override {
    return {u_.data(), num_states_};
  }
  [[nodiscard]] std::span<const double> terminals() const override {
    return {u_.data() + num_states_, num_nets_};
  }
  [[nodiscard]] const core::SystemAssembler& system() const override { return *system_; }
  [[nodiscard]] const core::SolverStats& stats() const override { return stats_; }
  void add_observer(core::SolutionObserver observer) override;
  [[nodiscard]] const char* engine_name() const override { return config_.profile_name; }

  io::JsonValue checkpoint_state() const override;
  void restore_checkpoint_state(const io::JsonValue& state) override;

  [[nodiscard]] const NrEngineConfig& config() const noexcept { return config_; }

 private:
  /// One attempted implicit step of size h; returns true when Newton
  /// converged (state promoted), false when the caller must shrink & retry.
  bool try_step(double h);
  void notify_observers();
  void check_for_discontinuity();
  void update_running_scales();
  void solve_initial_terminals();

  core::SystemAssembler* system_;
  NrEngineConfig config_;
  core::SolverStats stats_;

  std::size_t num_states_ = 0;
  std::size_t num_nets_ = 0;
  std::size_t num_unknowns_ = 0;

  double t_ = 0.0;
  std::vector<double> u_;       // [x; y] current solution
  std::vector<double> u_prev_;  // previous accepted solution (for predictor/BDF2)
  double h_prev_ = 0.0;
  bool has_prev_ = false;

  std::vector<double> u_scale_;   // running max |u_i| for LTE weights
  std::vector<double> w_newton_;  // Newton residual weights (per row)

  // Per-step scratch.
  std::vector<double> x_entry_;
  std::vector<double> fx_entry_;  // f_x at step entry (trapezoidal)
  std::vector<double> fx_scratch_;
  std::vector<double> fy_scratch_;
  std::vector<double> u_pred_;  // pure predictor (LTE reference)
  std::vector<double> u_work_;  // Newton iterate / accepted candidate
  linalg::Matrix jxx_, jxy_, jyx_, jyy_;
  std::size_t last_newton_iterations_ = 0;

  ode::NewtonWorkspace newton_ws_;
  ode::StepController controller_;

  // Warm-start seed for the next initialise() (empty: cold start from y=0).
  std::vector<double> init_seed_;
  bool init_seed_armed_ = false;
  std::uint64_t init_iterations_ = 0;

  std::uint64_t last_epoch_ = 0;
  double last_notify_time_ = -std::numeric_limits<double>::infinity();
  bool initialised_ = false;

  std::vector<core::SolutionObserver> observers_;
};

/// Baseline profiles emulating the paper's Table I simulators. The
/// differences (integration method, tolerance and step policies) are chosen
/// to mirror each tool's documented behaviour; see README.md, "What the
/// reproduction does not emulate".
[[nodiscard]] NrEngineConfig systemvision_profile();  ///< VHDL-AMS, trapezoidal
[[nodiscard]] NrEngineConfig pspice_profile();        ///< OrCAD, Gear-2, print-step capped
[[nodiscard]] NrEngineConfig systemca_profile();      ///< SystemC-A, backward Euler

}  // namespace ehsim::baseline
