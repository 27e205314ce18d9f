/// \file linearised_solver.hpp
/// \brief The paper's proposed engine: linearise -> eliminate -> explicit march.
///
/// Per time point t_n (paper §II):
///  1. Linearise the block equations at the newest solution point (Eq. 2);
///     the Jacobians of the non-linear devices come from piecewise-linear
///     look-up tables, so no transcendental is evaluated in the loop.
///  2. Eliminate the non-state (terminal) variables by solving the small
///     algebraic system Jyy y = -Jyx x - ey (Eq. 4) with one LU of Jyy.
///  3. Advance the states with the variable-step Adams-Bashforth formula
///     (Eq. 5) — a single feed-forward march with no Newton iteration and
///     no backtracking in time.
///  4. Keep the step inside the Eq. 7 stability envelope (diagonal dominance
///     of I + hA on the eliminated system, power-iteration fallback) and
///     under the LLE budget (Jacobian-drift monitor, Eq. 3).
///
/// Discontinuities raised by the digital side (block epoch changes) restart
/// the multistep history, exactly as an HDL mixed-signal kernel re-seeds its
/// analogue solver after a digital event.
///
/// The march is one pipeline of named phases, each written once:
///
///   check_for_discontinuity     epoch change -> multistep restart
///   evaluate                    residuals at (t, x, y) + signature verdict
///   reuse_linearisation         keep the cached Linearisation, else
///   relinearise                 assemble the Jacobians + factorise Jyy, or
///   adopt_linearisation         take a peer's at a coinciding signature
///   observe_drift               LLE drift (Eq. 3) + step-controller update
///   eliminate                   terminal update (Eq. 4) + derivative sample
///   stability_due               Eq. 7 cap trigger, then
///   recompute_stability_cap     recompute the cap, or
///   adopt_stability_cap         take a peer's freshly recomputed one
///   snap_sliver                 jump across a remainder below h_min
///   propose_step                h selection (fixed / LLE / h_max / Eq. 7)
///   commit_step                 one explicit AB step (Eq. 5)
///   follow / follow_stability   clone-follower sync
///
/// advance_to() composes them for one solver (refresh() is its evaluate ->
/// eliminate half). sim::LockstepBatch composes the same functions across a
/// batch, interleaving the members between phases to share linearisations;
/// both callers run the identical phase bodies, so a lockstep member that
/// never adopts marches bit-for-bit like its per-job self.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "core/engine.hpp"
#include "core/lle_monitor.hpp"
#include "linalg/lu.hpp"
#include "ode/explicit_integrators.hpp"
#include "ode/stability.hpp"
#include "ode/step_control.hpp"

namespace ehsim::core {

/// One linearisation point (Eq. 2): the Jacobian blocks of the assembled
/// system and the LU factorisation of Jyy the elimination (Eq. 4) solves
/// with.
struct Linearisation {
  linalg::Matrix jxx, jxy, jyx, jyy;
  linalg::LuFactorization jyy_lu;
};

class LinearisedSolver final : public AnalogEngine {
 public:
  /// \param system elaborated assembler; must outlive the solver
  LinearisedSolver(SystemAssembler& system, SolverConfig config = {});

  void initialise(double t0) override;
  void advance_to(double t_end) override;

  [[nodiscard]] double time() const override { return t_; }
  [[nodiscard]] std::span<const double> state() const override { return x_.span(); }
  [[nodiscard]] std::span<const double> terminals() const override { return y_.span(); }
  [[nodiscard]] const SystemAssembler& system() const override { return *system_; }
  [[nodiscard]] const SolverStats& stats() const override { return stats_; }
  void add_observer(SolutionObserver observer) override;
  [[nodiscard]] const char* engine_name() const override { return "linearised-state-space"; }

  io::JsonValue checkpoint_state() const override;
  void restore_checkpoint_state(const io::JsonValue& state) override;

  [[nodiscard]] const SolverConfig& config() const noexcept { return config_; }

  /// Current stability step cap from Eq. 7 (infinity when uncapped).
  [[nodiscard]] double stability_step_cap() const noexcept { return h_stability_; }
  /// Last drift reported by the LLE monitor.
  [[nodiscard]] double last_lle_drift() const noexcept { return lle_.last_drift(); }
  /// Eliminated-system matrix A = Jxx - Jxy Jyy^-1 Jyx of the most recent
  /// stability evaluation (diagnostics; empty before the first evaluation).
  [[nodiscard]] const linalg::Matrix& eliminated_matrix() const noexcept { return a_eliminated_; }

  // ---- step pipeline (see the file header for the composition) ----------

  /// advance_to() entry guards: initialised, and \p t_end not in the past.
  void require_advance(double t_end) const;
  /// Restart the multistep history when a block epoch changed.
  void check_for_discontinuity();
  /// Evaluate the residuals at (t, x, y) and refresh the linearisation
  /// signature. Returns true when the signature held: the cached
  /// linearisation is certified unchanged.
  [[nodiscard]] bool evaluate();
  /// Keep the cached linearisation when reuse is enabled and
  /// \p signature_stable; false means the caller must relinearise() or
  /// adopt_linearisation() instead.
  [[nodiscard]] bool reuse_linearisation(bool signature_stable);
  /// Assemble the Jacobians at (t, x, y) and factorise Jyy.
  void relinearise();
  /// Take a peer's linearisation instead of assembling one. Only valid at a
  /// coinciding signature on the bounded-error path; counts as a reuse.
  void adopt_linearisation(const Linearisation& donor);
  /// LLE drift observation and step-controller update, driven by the
  /// signature verdict of evaluate() — not by the rebuild decision, so
  /// reuse-on and reuse-off runs observe the same sequence.
  void observe_drift(bool signature_stable);
  /// Eliminate the terminals with this solver's own Jyy LU and record the
  /// derivative sample: the point becomes fresh.
  void eliminate();
  /// Same, with the terminal update \p dy = -Jyy^-1 fy already solved by
  /// the caller (a lockstep group's shared multi-RHS back-substitution).
  void eliminate(std::span<const double> dy);
  /// Whether the Eq. 7 cap must be re-derived before the next step.
  [[nodiscard]] bool stability_due() const noexcept {
    return stability_due_ || steps_since_stability_ >= config_.stability_check_interval ||
           drift_since_stability_ > config_.stability_drift_threshold;
  }
  /// Recompute the Eq. 7 stability cap on the eliminated system.
  void recompute_stability_cap();
  /// Take a peer's freshly recomputed cap (same signature, so the
  /// eliminated systems agree to the signature quantum).
  void adopt_stability_cap(const LinearisedSolver& donor);
  /// When \p t_end lies within h_min of the current time, jump straight to
  /// it without a step and return true.
  [[nodiscard]] bool snap_sliver(double t_end);
  /// The step this solver would take with \p remaining time to its horizon:
  /// fixed step, LLE controller or h_max, then the Eq. 7 cap.
  [[nodiscard]] double propose_step(double remaining) const;
  /// Commit one explicit Adams-Bashforth step (Eq. 5) of max(h, h_min);
  /// throws SolverError when the state turns non-finite.
  void commit_step(double h);
  /// Clone-follower sync: copy the post-refresh point of \p leader, whose
  /// spec is identical to this one's up to a known divergence time, and
  /// push this solver's own history sample. The heavy objects (Jacobians,
  /// LU, LLE monitor) only change when the leader relinearised or adopted
  /// (\p leader_relinearised), so they are copied only then.
  void follow(const LinearisedSolver& leader, bool leader_relinearised);
  /// Clone-follower sync of the stability phase: mirror every cap change of
  /// \p leader, recomputed or adopted.
  void follow_stability(const LinearisedSolver& leader);
  /// Invoke the observers at the current point (once per time point).
  void notify_observers();

  [[nodiscard]] bool fresh() const noexcept { return fresh_; }
  [[nodiscard]] std::uint64_t jacobian_signature() const noexcept { return jacobian_signature_; }
  [[nodiscard]] const Linearisation& linearisation() const noexcept { return linearisation_; }
  /// Algebraic residual fy at the last evaluate(); the elimination solves
  /// Jyy dy = -fy.
  [[nodiscard]] std::span<const double> algebraic_residual() const noexcept {
    return fy_.span();
  }

 private:
  /// Make (t_, x_, y_) a consistent linearised solution point: evaluate,
  /// re-linearise, eliminate y (Eq. 4) and record the derivative sample.
  void refresh();
  /// Elimination tail shared by both eliminate() forms: apply dy_, form the
  /// derivative sample and push it into the AB history.
  void apply_elimination();
  /// Push the derivative sample at t_ (once per time point); marks fresh.
  void record_sample();
  /// Install \p h as the Eq. 7 cap and reset the recompute triggers.
  void set_stability_cap(double h);

  SystemAssembler* system_;
  SolverConfig config_;
  SolverStats stats_;

  double t_ = 0.0;
  linalg::Vector x_;       // global states
  linalg::Vector y_;       // global terminal variables
  linalg::Vector fx_;      // scratch: state derivatives at linearisation point
  linalg::Vector fy_;      // scratch: algebraic residuals
  linalg::Vector dy_;      // scratch: terminal update
  linalg::Vector f_step_;  // derivative sample pushed into the AB history

  Linearisation linearisation_;
  linalg::Matrix z_elim_;        // scratch: Jyy^-1 Jyx
  linalg::Matrix a_eliminated_;  // Jxx - Jxy Jyy^-1 Jyx

  ode::AbHistory history_;
  ode::StepController controller_;
  LleMonitor lle_;

  double h_stability_ = std::numeric_limits<double>::infinity();
  std::size_t steps_since_stability_ = 0;
  double drift_since_stability_ = 0.0;
  bool stability_due_ = true;

  std::uint64_t last_epoch_ = 0;
  std::uint64_t jacobian_signature_ = 0;
  // Cached linearisation usable. Invalidated by initialise(), by a
  // block-epoch change (discontinuity restart) and by a signature mismatch
  // (PWL segment crossing / operating-point quantum change); while valid
  // and the signature holds, refresh() skips assembly and the factorisation
  // entirely, and the LLE step controller observes an explicit zero-drift
  // step (so reuse-on/off runs march identically).
  bool jacobians_valid_ = false;
  bool fresh_ = false;  // (t_, x_, y_) already refreshed at this time point
  double last_history_time_ = -std::numeric_limits<double>::infinity();
  double last_notify_time_ = -std::numeric_limits<double>::infinity();
  bool initialised_ = false;

  std::vector<SolutionObserver> observers_;
};

}  // namespace ehsim::core
