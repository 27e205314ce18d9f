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
///     of I + hA on the eliminated system where it applies, else
///     h <= L_p / rho(A) from its QR spectrum; then the AB root condition
///     for every mode) and under the LLE budget (Jacobian-drift monitor,
///     Eq. 3).
///
/// Discontinuities raised by the digital side (block epoch changes) restart
/// the multistep history, exactly as an HDL mixed-signal kernel re-seeds its
/// analogue solver after a digital event.
///
/// The march is one pipeline of named phases, each written once:
///
///   check_for_discontinuity     epoch change -> multistep restart
///   evaluate                    residuals at (t, x, y) + signature verdict
///   reuse_linearisation         keep the current Linearisation, or point at
///                               the cache's entry for a new signature, else
///   relinearise                 assemble the Jacobians + factorise Jyy
///   observe_drift               LLE drift (Eq. 3) + step-controller update
///   eliminate                   terminal update (Eq. 4) + derivative sample
///   stability_due               Eq. 7 cap trigger, then
///   reuse_stability_cap         the current linearisation's own cap, else
///   recompute_stability_cap     evaluate Eq. 7
///   snap_sliver                 jump across a remainder below h_min
///   propose_step                h selection (fixed / LLE / h_max / Eq. 7)
///   commit_step                 one explicit AB step (Eq. 5)
///
/// advance_to() is the only composer of the phases (refresh() is its
/// evaluate -> eliminate half); they are public so tests can replay the
/// composition and observe one phase at a time.
///
/// advance_to() can pause before a given time (pause_before()): it stops at
/// the last accepted point whose next step would reach that time, without
/// shortening or adding a step, and a later advance_to() resumes exactly
/// where the uninterrupted loop was. The batch kernel's prefix forks use it
/// to snapshot a leader at the end of the span its followers share.
///
/// Linearisations live in a signature-keyed LinearisationCache owned by the
/// solver (core/linearisation_cache.hpp): a signature change that revisits a
/// known piece of the model points at its entry, Jacobians, Jyy LU and Eq. 7
/// cap included, instead of rebuilding them. Uncertified signatures and runs
/// with enable_jacobian_reuse off bypass it. A checkpoint cut empties it
/// (checkpoint_cut()); a snapshot taken without a cut hands it on through
/// linearisation_transplant() / transplant().
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <vector>

#include "core/engine.hpp"
#include "core/linearisation_cache.hpp"
#include "core/lle_monitor.hpp"
#include "linalg/lu.hpp"
#include "ode/explicit_integrators.hpp"
#include "ode/stability.hpp"
#include "ode/step_control.hpp"

namespace ehsim::core {

class LinearisedSolver final : public AnalogEngine {
 public:
  /// \param system elaborated assembler; must outlive the solver
  LinearisedSolver(SystemAssembler& system, SolverConfig config = {});
  // The current linearisation is a pointer into this object.
  LinearisedSolver(const LinearisedSolver&) = delete;
  LinearisedSolver& operator=(const LinearisedSolver&) = delete;

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
  /// Empties the linearisation cache and forgets the current
  /// linearisation's cap: neither is in the checkpoint document.
  void checkpoint_cut() override;

  [[nodiscard]] const SolverConfig& config() const noexcept { return config_; }

  /// Current stability step cap from Eq. 7 (infinity when uncapped).
  [[nodiscard]] double stability_step_cap() const noexcept { return h_stability_; }
  /// Last drift reported by the LLE monitor.
  [[nodiscard]] double last_lle_drift() const noexcept { return lle_.last_drift(); }
  /// Eliminated-system matrix A = Jxx - Jxy Jyy^-1 Jyx of the current
  /// linearisation, formed on demand (diagnostics; the step pipeline keeps
  /// only its Eq. 7 cap).
  [[nodiscard]] linalg::Matrix eliminated_matrix() const;

  // ---- step pipeline (see the file header for the composition) ----------

  /// advance_to() entry guards: initialised, and \p t_end not in the past.
  void require_advance(double t_end) const;
  /// Restart the multistep history when a block epoch changed.
  void check_for_discontinuity();
  /// Evaluate the residuals at (t, x, y) and refresh the linearisation
  /// signature. Returns true when the signature held: the current
  /// linearisation is certified unchanged.
  [[nodiscard]] bool evaluate();
  /// With reuse enabled, keep the current linearisation when
  /// \p signature_stable, or point at the cache's entry for the new
  /// signature; either counts as a reuse. False means the caller must
  /// relinearise() instead.
  [[nodiscard]] bool reuse_linearisation(bool signature_stable);
  /// Assemble the Jacobians at (t, x, y) and factorise Jyy, straight into
  /// the cache slot for the current signature (evicting the least recently
  /// used entry at capacity), or into the solver's own storage when the
  /// cache is bypassed.
  void relinearise();
  /// LLE drift observation and step-controller update, driven by the
  /// signature verdict of evaluate() — not by the rebuild decision, so
  /// reuse-on and reuse-off runs observe drift at the same refreshes.
  void observe_drift(bool signature_stable);
  /// Eliminate the terminals with this solver's own Jyy LU and record the
  /// derivative sample: the point becomes fresh.
  void eliminate();
  /// Whether the Eq. 7 cap must be re-derived before the next step.
  [[nodiscard]] bool stability_due() const noexcept {
    return stability_due_ || steps_since_stability_ >= config_.stability_check_interval ||
           drift_since_stability_ > config_.stability_drift_threshold;
  }
  /// Install the current linearisation's own Eq. 7 cap when reuse is
  /// enabled and the cap was evaluated before; counts as a stability reuse.
  /// Exact: the cap is a pure function of that linearisation. False means
  /// the caller must recompute_stability_cap().
  [[nodiscard]] bool reuse_stability_cap();
  /// Evaluate the Eq. 7 stability cap on the eliminated system and keep it
  /// with the current linearisation. Throws SolverError, naming the state
  /// and t, when the eliminated system holds a non-finite entry.
  void recompute_stability_cap();
  /// When \p t_end lies within h_min of the current time, jump straight to
  /// it without a step and return true.
  [[nodiscard]] bool snap_sliver(double t_end);
  /// The step this solver would take with \p remaining time to its horizon:
  /// fixed step, LLE controller or h_max, then the Eq. 7 cap.
  [[nodiscard]] double propose_step(double remaining) const;
  /// Commit one explicit Adams-Bashforth step (Eq. 5) of max(h, h_min);
  /// throws SolverError when the state turns non-finite.
  void commit_step(double h);
  /// Invoke the observers at the current point (once per time point).
  void notify_observers();

  [[nodiscard]] bool fresh() const noexcept { return fresh_; }
  [[nodiscard]] std::uint64_t jacobian_signature() const noexcept { return jacobian_signature_; }
  [[nodiscard]] const Linearisation& linearisation() const noexcept { return *lin_; }
  [[nodiscard]] const LinearisationCache& linearisation_cache() const noexcept { return cache_; }

  // ---- pause and linearisation transplant --------------------------------

  /// Make advance_to() stop at the last accepted point before \p t whose
  /// next step (or sliver snap) would reach \p t, instead of taking that
  /// step; time() then lies below the horizon. The point is complete
  /// (refreshed, observed, Eq. 7 cap settled), and calling advance_to()
  /// again replays nothing and takes exactly the step the uninterrupted
  /// loop would have taken. Infinity (the default) never pauses.
  void pause_before(double t) noexcept { pause_before_ = t; }

  /// What a checkpoint document leaves out of this solver: the
  /// linearisation cache, whether the current linearisation is one of its
  /// entries (else it is the solver's own, bypassed storage) and the current
  /// linearisation's Eq. 7 cap.
  struct LinearisationTransplant {
    LinearisationCache cache;
    bool current_cached = false;
    std::optional<double> current_cap;
  };
  /// Copy of the state above, taken together with a checkpoint_state() that
  /// was not followed by a cut.
  [[nodiscard]] LinearisationTransplant linearisation_transplant() const;
  /// Install \p from, taken from the solver whose checkpoint_state() this
  /// one was just restored from: the restore left what a cut leaves (an
  /// empty cache, no cap on the current linearisation), and this puts back
  /// what the snapshot's own solver still holds, so both march on alike.
  void transplant(const LinearisationTransplant& from);

 private:
  /// Make (t_, x_, y_) a consistent linearised solution point: evaluate,
  /// re-linearise, eliminate y (Eq. 4) and record the derivative sample.
  void refresh();
  /// Install \p h as the Eq. 7 cap and reset the recompute triggers.
  void set_stability_cap(double h);
  /// Whether the current signature may use the linearisation cache.
  [[nodiscard]] bool cache_enabled() const noexcept;

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

  LinearisationCache cache_;
  Linearisation own_;           // linearisations that bypass the cache
  Linearisation* lin_ = &own_;  // the current linearisation: own_ or an entry of cache_
  linalg::Matrix z_elim_;       // scratch: Jyy^-1 Jyx
  linalg::Matrix a_elim_;       // scratch: Jxx - Jxy Jyy^-1 Jyx

  ode::AbHistory history_;
  ode::StepController controller_;
  LleMonitor lle_;

  double h_stability_ = std::numeric_limits<double>::infinity();
  std::size_t steps_since_stability_ = 0;
  double drift_since_stability_ = 0.0;
  bool stability_due_ = true;

  std::uint64_t last_epoch_ = 0;
  std::uint64_t jacobian_signature_ = 0;
  // Current linearisation usable. Invalidated by initialise() and by a
  // block-epoch change (discontinuity restart); while valid and the
  // signature holds, refresh() skips assembly and the factorisation
  // entirely, and the LLE step controller observes an explicit zero-drift
  // step.
  bool jacobians_valid_ = false;
  bool fresh_ = false;  // (t_, x_, y_) already refreshed at this time point
  double last_history_time_ = -std::numeric_limits<double>::infinity();
  double last_notify_time_ = -std::numeric_limits<double>::infinity();
  bool initialised_ = false;
  double pause_before_ = std::numeric_limits<double>::infinity();

  std::vector<SolutionObserver> observers_;
};

}  // namespace ehsim::core
