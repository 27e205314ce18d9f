#include "core/linearised_solver.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "io/state_json.hpp"

namespace ehsim::core {

namespace {

ode::StepControlOptions controller_options(const SolverConfig& config) {
  ode::StepControlOptions options;
  options.h_min = config.h_min;
  options.h_max = config.h_max;
  options.safety = 0.9;
  options.max_growth = 1.5;
  options.max_shrink = 0.5;
  return options;
}

bool all_finite(std::span<const double> v) {
  for (double value : v) {
    if (!std::isfinite(value)) {
      return false;
    }
  }
  return true;
}

}  // namespace

LinearisedSolver::LinearisedSolver(SystemAssembler& system, SolverConfig config)
    : system_(&system),
      config_(config),
      history_(0, std::clamp<std::size_t>(config.max_ab_order, 1, ode::kMaxAbOrder)),
      controller_(controller_options(config), config.max_ab_order) {
  if (!system.elaborated()) {
    system.elaborate();
  }
  if (config_.max_ab_order == 0 || config_.max_ab_order > ode::kMaxAbOrder) {
    throw ModelError("LinearisedSolver: max_ab_order must be 1..4");
  }
  if (!(config_.h_min > 0.0) || !(config_.h_max >= config_.h_min)) {
    throw ModelError("LinearisedSolver: require 0 < h_min <= h_max");
  }
  const std::size_t n = system.num_states();
  const std::size_t m = system.num_nets();
  x_.resize(n);
  y_.resize(m);
  fx_.resize(n);
  fy_.resize(m);
  dy_.resize(m);
  f_step_.resize(n);
  history_ = ode::AbHistory(n, config_.max_ab_order);
}

void LinearisedSolver::add_observer(SolutionObserver observer) {
  if (!observer) {
    throw ModelError("LinearisedSolver: null observer");
  }
  observers_.push_back(std::move(observer));
}

void LinearisedSolver::initialise(double t0) {
  t_ = t0;
  system_->initial_state(x_.span());
  y_.fill(0.0);

  // Consistency iterations for the initial operating point only; the
  // march-in-time process itself never iterates (paper §II).
  cache_.clear();
  lin_ = &own_;
  Linearisation& lin = own_;
  bool converged = false;
  std::uint64_t init_iterations = 0;
  for (std::size_t it = 0; it < config_.max_init_iterations; ++it) {
    system_->eval(t_, x_.span(), y_.span(), fx_.span(), fy_.span());
    if (linalg::norm_inf(fy_) <= config_.init_tolerance) {
      converged = true;
      break;
    }
    ++init_iterations;
    system_->jacobians(t_, x_.span(), y_.span(), lin.jxx, lin.jxy, lin.jyx, lin.jyy);
    if (!lin.jyy_lu.factor(lin.jyy)) {
      throw SolverError("LinearisedSolver: singular algebraic system (Jyy) during init");
    }
    for (std::size_t i = 0; i < dy_.size(); ++i) {
      dy_[i] = -fy_[i];
    }
    lin.jyy_lu.solve_inplace(dy_.span());
    y_.axpy(1.0, dy_);
  }
  if (!converged && y_.size() > 0) {
    throw SolverError("LinearisedSolver: initial operating point did not converge");
  }

  lin.stability_cap.reset();
  history_.clear();
  lle_.reset();
  controller_.set_step(config_.h_initial);
  last_epoch_ = system_->total_epoch();
  h_stability_ = std::numeric_limits<double>::infinity();
  stability_due_ = true;
  steps_since_stability_ = 0;
  drift_since_stability_ = 0.0;
  fresh_ = false;
  jacobians_valid_ = false;
  last_history_time_ = -std::numeric_limits<double>::infinity();
  last_notify_time_ = -std::numeric_limits<double>::infinity();
  stats_ = SolverStats{};
  stats_.init_iterations = init_iterations;
  initialised_ = true;
}

void LinearisedSolver::require_advance(double t_end) const {
  if (!initialised_) {
    throw SolverError("LinearisedSolver: advance_to before initialise");
  }
  if (!(t_end >= t_)) {
    throw SolverError("LinearisedSolver: advance_to would move time backwards");
  }
}

void LinearisedSolver::check_for_discontinuity() {
  const std::uint64_t epoch = system_->total_epoch();
  if (epoch != last_epoch_) {
    last_epoch_ = epoch;
    history_.clear();
    lle_.reset();
    controller_.set_step(config_.h_initial);
    stability_due_ = true;
    fresh_ = false;
    jacobians_valid_ = false;
    last_history_time_ = -std::numeric_limits<double>::infinity();
    ++stats_.history_resets;
  }
}

bool LinearisedSolver::evaluate() {
  // Linearise at the newest available point (x_n, y_{n-1}) — Eq. 2. The
  // non-linear devices' (G, J) pairs come from their look-up tables inside
  // the blocks' jacobians()/eval().
  system_->eval(t_, x_.span(), y_.span(), fx_.span(), fy_.span());
  // The LLE observation sequence is driven by the *signature*, not by
  // whether the current Jacobians are reused: a stable signature certifies
  // an (essentially) unchanged linearisation, which the step controller
  // observes as an explicit zero-drift step. With reuse disabled (ablation
  // A6) the Jacobians are still rebuilt and refactorised every refresh, but
  // the controller observes drift at the same refreshes, so the reuse-on
  // and reuse-off ablation arms take the same number of steps (a cache
  // hit's first-visit Jacobians move the drift values, and with them the
  // step times, only in the last digits).
  if (!config_.enable_jacobian_reuse && !config_.enable_lle_control) {
    return false;
  }
  const std::uint64_t signature = system_->jacobian_signature(t_, x_.span(), y_.span());
  const bool signature_stable = jacobians_valid_ && signature == jacobian_signature_;
  jacobian_signature_ = signature;
  return signature_stable;
}

bool LinearisedSolver::cache_enabled() const noexcept {
  return config_.enable_jacobian_reuse && LinearisationCache::cacheable(jacobian_signature_);
}

bool LinearisedSolver::reuse_linearisation(bool signature_stable) {
  // A piecewise-linear model's Jacobians are piecewise *constant*, so the
  // rebuild (and the Jyy factorisation) is skipped whenever the blocks
  // certify an unchanged linearisation through their signatures — the
  // table-lookup economy of paper §III-B — and whenever the new signature
  // names a piece this solver has linearised before.
  if (!config_.enable_jacobian_reuse) {
    return false;
  }
  if (!signature_stable) {
    Linearisation* hit = cache_enabled() ? cache_.find(jacobian_signature_) : nullptr;
    if (hit == nullptr) {
      return false;
    }
    lin_ = hit;
    jacobians_valid_ = true;
  }
  ++stats_.jacobian_reuses;
  return true;
}

void LinearisedSolver::relinearise() {
  lin_ = cache_enabled() ? &cache_.insert(jacobian_signature_) : &own_;
  Linearisation& lin = *lin_;
  jacobians_valid_ = true;
  system_->jacobians(t_, x_.span(), y_.span(), lin.jxx, lin.jxy, lin.jyx, lin.jyy);
  lin.stability_cap.reset();
  ++stats_.jacobian_builds;
  if (y_.size() > 0 && !lin.jyy_lu.factor(lin.jyy)) {
    throw SolverError("LinearisedSolver: singular algebraic system (Jyy) at t=" +
                      std::to_string(t_));
  }
}

void LinearisedSolver::observe_drift(bool signature_stable) {
  // Signature-stable refreshes observe zero drift; signature changes
  // observe the drift against the Jacobians of the last signature change,
  // scanning only the entries the blocks declare varying.
  double drift = 0.0;
  if (!signature_stable) {
    const Linearisation& lin = *lin_;
    drift = lle_.update(lin.jxx, lin.jxy, lin.jyx, lin.jyy,
                        &system_->varying_jacobian_entries());
    drift_since_stability_ = std::max(drift_since_stability_, drift);
  }
  if (config_.enable_lle_control && config_.fixed_step <= 0.0) {
    // Feed-forward LLE control (Eq. 3): the drift ratio shrinks or grows
    // the *next* step; an explicit march cannot backtrack, so there is no
    // rejection path here.
    controller_.update(drift / std::max(config_.lle_tolerance, 1e-12));
  }
}

void LinearisedSolver::eliminate() {
  // Eliminate the non-state variables (Eq. 4): with the affine remainder
  // ey = fy(P) - Jyx x - Jyy y_prev, solving Jyy y = -Jyx x - ey reduces to
  // one linear update y += -Jyy^-1 fy(P).
  if (y_.size() > 0) {
    for (std::size_t i = 0; i < dy_.size(); ++i) {
      dy_[i] = -fy_[i];
    }
    lin_->jyy_lu.solve_inplace(dy_.span());
    ++stats_.algebraic_solves;
    y_.axpy(1.0, dy_);
  }
  // Derivative sample at the new consistent point, via the linearisation:
  // f = fx(P) + Jxy (y_new - y_prev), pushed into the AB history once per
  // time point.
  for (std::size_t i = 0; i < f_step_.size(); ++i) {
    f_step_[i] = fx_[i];
  }
  if (y_.size() > 0) {
    lin_->jxy.matvec_acc(1.0, dy_.span(), f_step_.span());
  }
  if (t_ > last_history_time_) {
    history_.push(t_, f_step_.span());
    last_history_time_ = t_;
  }
  fresh_ = true;
}

void LinearisedSolver::refresh() {
  if (fresh_) {
    return;
  }
  const bool signature_stable = evaluate();
  if (!reuse_linearisation(signature_stable)) {
    relinearise();
  }
  observe_drift(signature_stable);
  eliminate();
}

namespace {

/// Eliminated system A = Jxx - Jxy Jyy^-1 Jyx of \p lin (the paper's point
/// total-step matrix is I + hA, Eq. 6), with \p z as the Jyy^-1 Jyx scratch.
void form_eliminated_matrix(const Linearisation& lin, linalg::Matrix& z, linalg::Matrix& a) {
  const std::size_t n = lin.jxx.rows();
  const std::size_t m = lin.jyy.rows();
  if (m > 0) {
    lin.jyy_lu.solve_matrix(lin.jyx, z);
    a = lin.jxx;
    for (std::size_t r = 0; r < n; ++r) {
      for (std::size_t k = 0; k < m; ++k) {
        const double jxy_rk = lin.jxy(r, k);
        if (jxy_rk == 0.0) {
          continue;
        }
        for (std::size_t c = 0; c < n; ++c) {
          a(r, c) -= jxy_rk * z(k, c);
        }
      }
    }
  } else {
    a = lin.jxx;
  }
}

}  // namespace

linalg::Matrix LinearisedSolver::eliminated_matrix() const {
  linalg::Matrix z;
  linalg::Matrix a;
  form_eliminated_matrix(*lin_, z, a);
  return a;
}

bool LinearisedSolver::reuse_stability_cap() {
  if (!config_.enable_jacobian_reuse || !lin_->stability_cap) {
    return false;
  }
  set_stability_cap(*lin_->stability_cap);
  ++stats_.stability_reuses;
  return true;
}

void LinearisedSolver::recompute_stability_cap() {
  if (!config_.enable_stability_cap) {
    h_stability_ = std::numeric_limits<double>::infinity();
    return;
  }
  form_eliminated_matrix(*lin_, z_elim_, a_elim_);
  // A NaN or infinite entry would slip through every comparison below and
  // leave a cap computed as if the entry were absent (or none at all).
  for (std::size_t r = 0; r < a_elim_.rows(); ++r) {
    if (!all_finite(a_elim_.row(r))) {
      throw SolverError("LinearisedSolver: non-finite linearisation in the row of state " +
                        system_->state_names()[r] + " at t=" + std::to_string(t_));
    }
  }
  // The paper's diagonal-dominance cap where it applies, then the spectrum
  // of A: the L_p / rho cap where dominance fails (the mechanical position
  // row has a zero diagonal) and the multistep root condition for every
  // mode, which the real-axis caps overestimate for lightly-damped
  // oscillatory modes such as the mechanical resonator.
  const auto limit = ode::max_stable_step(a_elim_, config_.max_ab_order, 1.0);
  // The refinement search only needs an upper bound slightly beyond any step
  // the engine could take (accuracy ceiling or explicit fixed step).
  const double h_request_max = 10.0 * std::max(config_.h_max, config_.fixed_step);
  double candidate = std::min(limit.h_max, h_request_max);
  if (candidate > 0.0) {
    candidate = ode::refine_stable_step(a_elim_, config_.max_ab_order, candidate,
                                        config_.h_min);
    if (candidate <= 0.0) {
      candidate = config_.h_min;
    }
  }
  lin_->stability_cap = candidate * config_.stability_safety;
  set_stability_cap(*lin_->stability_cap);
  ++stats_.stability_recomputes;
}

void LinearisedSolver::set_stability_cap(double h) {
  h_stability_ = h;
  steps_since_stability_ = 0;
  drift_since_stability_ = 0.0;
  stability_due_ = false;
}

bool LinearisedSolver::snap_sliver(double t_end) {
  if (t_end - t_ > config_.h_min) {
    return false;
  }
  t_ = t_end;
  fresh_ = false;
  return true;
}

double LinearisedSolver::propose_step(double remaining) const {
  // Fixed-step mode (ablations) bypasses the accuracy ceiling h_max; the
  // Eq. 7 stability cap still applies unless explicitly disabled. Without
  // LLE control the engine runs at the pure stability-capped step — the
  // paper's primary operating mode.
  double h;
  if (config_.fixed_step > 0.0) {
    h = std::min(config_.fixed_step, remaining);
  } else if (config_.enable_lle_control) {
    h = std::min({controller_.suggested_step(), config_.h_max, remaining});
  } else {
    h = std::min(config_.h_max, remaining);
  }
  return std::min(h, h_stability_);
}

void LinearisedSolver::commit_step(double h) {
  h = std::max(h, config_.h_min);
  // Explicit Adams-Bashforth march (Eq. 5); effective order ramps with the
  // available history.
  history_.step(t_ + h, x_.span());
  t_ += h;
  fresh_ = false;

  ++stats_.steps;
  ++steps_since_stability_;
  stats_.last_step = h;
  stats_.min_step = stats_.min_step == 0.0 ? h : std::min(stats_.min_step, h);
  stats_.max_step = std::max(stats_.max_step, h);

  if (!all_finite(x_.span())) {
    throw SolverError("LinearisedSolver: state diverged (non-finite) at t=" +
                      std::to_string(t_) + " — check the Eq. 7 stability cap configuration");
  }
}

void LinearisedSolver::notify_observers() {
  if (t_ == last_notify_time_) {
    return;
  }
  last_notify_time_ = t_;
  for (const auto& observer : observers_) {
    observer(t_, x_.span(), y_.span());
  }
}

io::JsonValue LinearisedSolver::checkpoint_state() const {
  if (!initialised_) {
    throw ModelError("LinearisedSolver: cannot checkpoint before initialise");
  }
  io::JsonValue state = io::JsonValue::make_object();
  state.set("engine", io::JsonValue(std::string(engine_name())));
  state.set("t", io::real_to_json(t_));
  state.set("x", io::reals_to_json(x_.span()));
  state.set("y", io::reals_to_json(y_.span()));
  state.set("jacobians_valid", io::JsonValue(jacobians_valid_));
  if (jacobians_valid_) {
    const Linearisation& lin = *lin_;
    state.set("jxx", io::matrix_to_json(lin.jxx));
    state.set("jxy", io::matrix_to_json(lin.jxy));
    state.set("jyx", io::matrix_to_json(lin.jyx));
    state.set("jyy", io::matrix_to_json(lin.jyy));
  }
  state.set("jacobian_signature", io::u64_to_json(jacobian_signature_));
  state.set("history", history_.checkpoint_state());
  state.set("controller", controller_.checkpoint_state());
  state.set("lle", lle_.checkpoint_state());
  state.set("h_stability", io::real_to_json(h_stability_));
  state.set("steps_since_stability", io::u64_to_json(steps_since_stability_));
  state.set("drift_since_stability", io::real_to_json(drift_since_stability_));
  state.set("stability_due", io::JsonValue(stability_due_));
  state.set("last_epoch", io::u64_to_json(last_epoch_));
  state.set("fresh", io::JsonValue(fresh_));
  state.set("last_history_time", io::real_to_json(last_history_time_));
  state.set("last_notify_time", io::real_to_json(last_notify_time_));
  state.set("stats", io::solver_stats_to_json(stats_));
  // Honesty anchor: the algebraic residual at the checkpointed point.
  // Restore re-evaluates the (already restored) model at (t, x, y) and
  // requires exact bit-equality, proving that model restore and engine
  // restore describe the same trajectory.
  linalg::Vector fx_check(x_.size());
  linalg::Vector fy_check(y_.size());
  system_->eval(t_, x_.span(), y_.span(), fx_check.span(), fy_check.span());
  state.set("residual", io::real_to_json(linalg::norm_inf(fy_check)));
  return state;
}

void LinearisedSolver::restore_checkpoint_state(const io::JsonValue& state) {
  const std::string what = "engine checkpoint";
  io::check_state_keys(
      state, what,
      {"engine", "t", "x", "y", "jacobians_valid", "jxx", "jxy", "jyx", "jyy",
       "jacobian_signature", "history", "controller", "lle", "h_stability",
       "steps_since_stability", "drift_since_stability", "stability_due", "last_epoch", "fresh",
       "last_history_time", "last_notify_time", "stats", "residual"});
  const std::string& engine = io::require_key(state, what, "engine").as_string();
  if (engine != engine_name()) {
    throw ModelError(what + ": snapshot was written by engine '" + engine + "', not '" +
                     engine_name() + "'");
  }
  t_ = io::real_from_json(io::require_key(state, what, "t"), what + ".t");
  io::reals_into(io::require_key(state, what, "x"), x_.span(), what + ".x");
  io::reals_into(io::require_key(state, what, "y"), y_.span(), what + ".y");
  jacobians_valid_ = io::bool_from_json(io::require_key(state, what, "jacobians_valid"),
                                        what + ".jacobians_valid");
  checkpoint_cut();  // a restored solver starts from what a cut leaves
  if (jacobians_valid_) {
    Linearisation lin;
    lin.jxx = io::matrix_from_json(io::require_key(state, what, "jxx"), what + ".jxx");
    lin.jxy = io::matrix_from_json(io::require_key(state, what, "jxy"), what + ".jxy");
    lin.jyx = io::matrix_from_json(io::require_key(state, what, "jyx"), what + ".jyx");
    lin.jyy = io::matrix_from_json(io::require_key(state, what, "jyy"), what + ".jyy");
    if (lin.jxx.rows() != x_.size() || lin.jxx.cols() != x_.size() ||
        lin.jxy.rows() != x_.size() || lin.jxy.cols() != y_.size() ||
        lin.jyx.rows() != y_.size() || lin.jyx.cols() != x_.size() ||
        lin.jyy.rows() != y_.size() || lin.jyy.cols() != y_.size()) {
      throw ModelError(what + ": Jacobian dimensions do not match the model");
    }
    // The LU is derived state: refactorising the restored Jyy is a
    // deterministic function of its bits, so the solve results match the
    // uninterrupted run's exactly.
    if (y_.size() > 0 && !lin.jyy_lu.factor(lin.jyy)) {
      throw ModelError(what + ": restored Jyy is singular");
    }
    own_ = std::move(lin);
  }
  jacobian_signature_ = io::u64_from_json(io::require_key(state, what, "jacobian_signature"),
                                          what + ".jacobian_signature");
  history_.restore_checkpoint_state(io::require_key(state, what, "history"));
  controller_.restore_checkpoint_state(io::require_key(state, what, "controller"));
  lle_.restore_checkpoint_state(io::require_key(state, what, "lle"), x_.size(), y_.size());
  h_stability_ =
      io::real_from_json(io::require_key(state, what, "h_stability"), what + ".h_stability");
  steps_since_stability_ = io::index_from_json(
      io::require_key(state, what, "steps_since_stability"), what + ".steps_since_stability");
  drift_since_stability_ = io::real_from_json(
      io::require_key(state, what, "drift_since_stability"), what + ".drift_since_stability");
  stability_due_ =
      io::bool_from_json(io::require_key(state, what, "stability_due"), what + ".stability_due");
  last_epoch_ = io::u64_from_json(io::require_key(state, what, "last_epoch"),
                                  what + ".last_epoch");
  // A checkpoint cut exactly at a parameter-event boundary can carry a
  // pending discontinuity: the blocks already bumped past the epoch the
  // engine last consumed, and the restored engine re-notices it on its next
  // step exactly like the uninterrupted run would. Only a model *behind*
  // the engine means the caller restored in the wrong order.
  if (system_->total_epoch() < last_epoch_) {
    throw ModelError(what + ": model epoch " + std::to_string(system_->total_epoch()) +
                     " is behind the checkpointed epoch " + std::to_string(last_epoch_) +
                     " (restore the model first)");
  }
  fresh_ = io::bool_from_json(io::require_key(state, what, "fresh"), what + ".fresh");
  last_history_time_ = io::real_from_json(io::require_key(state, what, "last_history_time"),
                                          what + ".last_history_time");
  last_notify_time_ = io::real_from_json(io::require_key(state, what, "last_notify_time"),
                                         what + ".last_notify_time");
  stats_ = io::solver_stats_from_json(io::require_key(state, what, "stats"), what + ".stats");
  initialised_ = true;

  // Consistency proof: the restored model must reproduce the checkpointed
  // algebraic residual at the restored point, bit for bit.
  const double saved = io::real_from_json(io::require_key(state, what, "residual"),
                                          what + ".residual");
  linalg::Vector fx_check(x_.size());
  linalg::Vector fy_check(y_.size());
  system_->eval(t_, x_.span(), y_.span(), fx_check.span(), fy_check.span());
  const double residual = linalg::norm_inf(fy_check);
  const bool same = residual == saved || (std::isnan(residual) && std::isnan(saved));
  if (!same) {
    throw ModelError(what + ": consistency check failed — the restored model evaluates to a "
                     "different residual at the checkpointed point (saved " +
                     std::to_string(saved) + ", got " + std::to_string(residual) + ")");
  }
}

void LinearisedSolver::checkpoint_cut() {
  // The document carries the current linearisation's Jacobians, from which
  // a restore refactorises the identical LU, but neither the cache nor any
  // cap: a run that continues past the cut must march like a restored one.
  if (lin_ != &own_) {
    own_ = *lin_;
    lin_ = &own_;
  }
  own_.stability_cap.reset();
  cache_.clear();
}

LinearisedSolver::LinearisationTransplant LinearisedSolver::linearisation_transplant() const {
  return LinearisationTransplant{cache_, lin_ != &own_, lin_->stability_cap};
}

void LinearisedSolver::transplant(const LinearisationTransplant& from) {
  cache_ = from.cache;
  // The current entry is the most recently used one (every signature change
  // makes its entry the newest), so this lookup keeps the order.
  Linearisation* current = from.current_cached ? cache_.find(jacobian_signature_) : &own_;
  if (current == nullptr) {
    throw ModelError("LinearisedSolver: transplanted cache has no entry for the current "
                     "signature — it was taken from another snapshot");
  }
  lin_ = current;
  lin_->stability_cap = from.current_cap;
}

void LinearisedSolver::advance_to(double t_end) {
  require_advance(t_end);
  while (true) {
    check_for_discontinuity();
    refresh();
    notify_observers();
    const double remaining = t_end - t_;
    if (remaining <= 0.0) {
      break;
    }
    if (stability_due() && !reuse_stability_cap()) {
      recompute_stability_cap();
    }
    // Everything above is a no-op when repeated at one point, so a pause
    // here resumes exactly.
    const double h = std::max(propose_step(remaining), config_.h_min);
    if ((remaining <= config_.h_min ? t_end : t_ + h) >= pause_before_) {
      return;
    }
    if (snap_sliver(t_end)) {
      continue;
    }
    commit_step(h);
  }
}

}  // namespace ehsim::core
