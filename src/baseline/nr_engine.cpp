#include "baseline/nr_engine.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "io/state_json.hpp"

namespace ehsim::baseline {

namespace {

ode::StepControlOptions controller_options(const NrEngineConfig& config) {
  ode::StepControlOptions options;
  options.h_min = config.h_min;
  options.h_max = config.h_max;
  options.safety = 0.9;
  options.max_growth = 2.0;
  options.max_shrink = 0.1;
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

NrEngine::NrEngine(core::SystemAssembler& system, NrEngineConfig config)
    : system_(&system),
      config_(config),
      newton_ws_(0),
      controller_(controller_options(config),
                  config.method == BaselineMethod::kBackwardEuler ? 1 : 2) {
  if (!system.elaborated()) {
    system.elaborate();
  }
  num_states_ = system.num_states();
  num_nets_ = system.num_nets();
  num_unknowns_ = num_states_ + num_nets_;

  u_.assign(num_unknowns_, 0.0);
  u_prev_.assign(num_unknowns_, 0.0);
  u_scale_.assign(num_unknowns_, 0.0);
  w_newton_.assign(num_unknowns_, 1.0);
  x_entry_.assign(num_states_, 0.0);
  fx_entry_.assign(num_states_, 0.0);
  fx_scratch_.assign(num_states_, 0.0);
  fy_scratch_.assign(num_nets_, 0.0);
  u_pred_.assign(num_unknowns_, 0.0);
  u_work_.assign(num_unknowns_, 0.0);
  newton_ws_ = ode::NewtonWorkspace(num_unknowns_);
}

void NrEngine::add_observer(core::SolutionObserver observer) {
  if (!observer) {
    throw ModelError("NrEngine: null observer");
  }
  observers_.push_back(std::move(observer));
}

void NrEngine::solve_initial_terminals() {
  // DC-consistent terminals for the fixed initial state: Newton on y only,
  // using the algebraic block Jyy.
  auto x = std::span<double>(u_.data(), num_states_);
  auto y = std::span<double>(u_.data() + num_states_, num_nets_);
  linalg::LuFactorization lu;
  std::vector<double> dy(num_nets_);
  init_iterations_ = 0;
  bool converged = num_nets_ == 0;
  for (std::size_t it = 0; it < 80 && !converged; ++it) {
    system_->eval(t_, x, y, std::span<double>(fx_scratch_), std::span<double>(fy_scratch_));
    double norm = 0.0;
    for (double v : fy_scratch_) {
      norm = std::max(norm, std::abs(v));
    }
    if (norm <= config_.newton_abs_flow) {
      converged = true;
      break;
    }
    ++init_iterations_;
    system_->jacobians(t_, x, y, jxx_, jxy_, jyx_, jyy_);
    if (!lu.factor(jyy_)) {
      throw SolverError("NrEngine: singular Jyy during initialisation");
    }
    for (std::size_t i = 0; i < num_nets_; ++i) {
      dy[i] = -fy_scratch_[i];
    }
    lu.solve_inplace(std::span<double>(dy));
    // Damped update: exact exponentials can overshoot from a cold start.
    double lambda = 1.0;
    for (double v : dy) {
      if (std::abs(v) > 1.0) {
        lambda = std::min(lambda, 1.0 / std::abs(v));
      }
    }
    for (std::size_t i = 0; i < num_nets_; ++i) {
      y[i] += lambda * dy[i];
    }
  }
  if (!converged) {
    throw SolverError("NrEngine: initial operating point did not converge");
  }
}

void NrEngine::initialise(double t0) {
  t_ = t0;
  std::fill(u_.begin(), u_.end(), 0.0);
  system_->initial_state(std::span<double>(u_.data(), num_states_));
  solve_initial_terminals();

  std::copy(u_.begin(), u_.end(), u_prev_.begin());
  has_prev_ = false;
  h_prev_ = 0.0;
  std::fill(u_scale_.begin(), u_scale_.end(), 0.0);
  update_running_scales();
  controller_.set_step(config_.h_initial);
  last_epoch_ = system_->total_epoch();
  last_notify_time_ = -std::numeric_limits<double>::infinity();
  stats_ = core::SolverStats{};
  stats_.init_iterations = init_iterations_;
  initialised_ = true;
}

void NrEngine::check_for_discontinuity() {
  const std::uint64_t epoch = system_->total_epoch();
  if (epoch != last_epoch_) {
    last_epoch_ = epoch;
    has_prev_ = false;  // multistep history is invalid across the event
    controller_.set_step(config_.h_initial);
    ++stats_.history_resets;
  }
}

void NrEngine::update_running_scales() {
  for (std::size_t i = 0; i < num_unknowns_; ++i) {
    u_scale_[i] = std::max(u_scale_[i], std::abs(u_[i]));
  }
}

void NrEngine::notify_observers() {
  if (t_ == last_notify_time_) {
    return;
  }
  last_notify_time_ = t_;
  for (const auto& observer : observers_) {
    observer(t_, state(), terminals());
  }
}

bool NrEngine::try_step(double h) {
  const double t_next = t_ + h;
  std::copy(u_.begin(), u_.begin() + static_cast<std::ptrdiff_t>(num_states_),
            x_entry_.begin());

  // Effective method: Gear-2 needs one step of history.
  BaselineMethod eff = config_.method;
  if (eff == BaselineMethod::kGear2 && !has_prev_) {
    eff = BaselineMethod::kBackwardEuler;
  }
  if (eff == BaselineMethod::kTrapezoidal) {
    system_->eval(t_, state(), terminals(), std::span<double>(fx_entry_),
                  std::span<double>(fy_scratch_));
  }

  double bdf_a1 = 0.0;
  double bdf_a2 = 0.0;
  double gamma = h;  // multiplier of f_x(t_{n+1}) in the residual
  if (eff == BaselineMethod::kTrapezoidal) {
    gamma = 0.5 * h;
  } else if (eff == BaselineMethod::kGear2) {
    const double r = h / h_prev_;
    const double denom = 1.0 + 2.0 * r;
    bdf_a1 = (1.0 + r) * (1.0 + r) / denom;
    bdf_a2 = -r * r / denom;
    gamma = (1.0 + r) / denom * h;
  }

  // Newton residual weights for this step: state rows in delta-x units,
  // algebraic rows in flow units (SPICE abstol-style).
  for (std::size_t i = 0; i < num_states_; ++i) {
    w_newton_[i] = config_.newton_abs_state + config_.newton_rel_tol * u_scale_[i];
  }
  for (std::size_t i = num_states_; i < num_unknowns_; ++i) {
    w_newton_[i] = config_.newton_abs_flow;
  }

  // Predictor (also the Newton start): linear extrapolation when history
  // exists — the standard SPICE arrangement.
  if (has_prev_ && h_prev_ > 0.0) {
    const double r = h / h_prev_;
    for (std::size_t i = 0; i < num_unknowns_; ++i) {
      u_pred_[i] = u_[i] + (u_[i] - u_prev_[i]) * r;
    }
  } else {
    std::copy(u_.begin(), u_.end(), u_pred_.begin());
  }
  std::copy(u_pred_.begin(), u_pred_.end(), u_work_.begin());

  auto residual = [&](std::span<const double> u, std::span<double> out) {
    const auto x = u.subspan(0, num_states_);
    const auto y = u.subspan(num_states_, num_nets_);
    system_->eval(t_next, x, y, std::span<double>(fx_scratch_),
                  std::span<double>(fy_scratch_));
    for (std::size_t i = 0; i < num_states_; ++i) {
      double r = x[i] - gamma * fx_scratch_[i];
      switch (eff) {
        case BaselineMethod::kBackwardEuler:
          r -= x_entry_[i];
          break;
        case BaselineMethod::kTrapezoidal:
          r -= x_entry_[i] + 0.5 * h * fx_entry_[i];
          break;
        case BaselineMethod::kGear2:
          r -= bdf_a1 * x_entry_[i] + bdf_a2 * u_prev_[i];
          break;
      }
      out[i] = r / w_newton_[i];
    }
    for (std::size_t i = 0; i < num_nets_; ++i) {
      out[num_states_ + i] = fy_scratch_[i] / w_newton_[num_states_ + i];
    }
  };

  auto jacobian = [&](std::span<const double> u, linalg::Matrix& out) {
    const auto x = u.subspan(0, num_states_);
    const auto y = u.subspan(num_states_, num_nets_);
    // Full Jacobian reassembly at every Newton iteration, exactly as the
    // classical analogue solvers do — this is the cost centre the proposed
    // technique removes.
    system_->jacobians(t_next, x, y, jxx_, jxy_, jyx_, jyy_);
    ++stats_.jacobian_builds;
    out.resize(num_unknowns_, num_unknowns_);
    for (std::size_t r = 0; r < num_states_; ++r) {
      const double w = w_newton_[r];
      for (std::size_t c = 0; c < num_states_; ++c) {
        out(r, c) = ((r == c ? 1.0 : 0.0) - gamma * jxx_(r, c)) / w;
      }
      for (std::size_t c = 0; c < num_nets_; ++c) {
        out(r, num_states_ + c) = -gamma * jxy_(r, c) / w;
      }
    }
    for (std::size_t r = 0; r < num_nets_; ++r) {
      const double w = w_newton_[num_states_ + r];
      for (std::size_t c = 0; c < num_states_; ++c) {
        out(num_states_ + r, c) = jyx_(r, c) / w;
      }
      for (std::size_t c = 0; c < num_nets_; ++c) {
        out(num_states_ + r, num_states_ + c) = jyy_(r, c) / w;
      }
    }
  };

  ode::NewtonOptions newton_options;
  newton_options.max_iterations = config_.newton_max_iterations;
  newton_options.abs_tol = 1.0;  // residual rows are pre-scaled by weights
  newton_options.step_tol = 1e-12;
  newton_options.enable_damping = true;
  // Classical analogue solvers declare convergence only after consecutive
  // iterates agree, which costs at least two corrector iterations (Jacobian
  // assembly + full LU each) per accepted time step — the cost the proposed
  // technique removes.
  newton_options.force_initial_iteration = true;
  newton_options.min_iterations = config_.newton_min_iterations;

  const auto result =
      ode::newton_solve(residual, jacobian, std::span<double>(u_work_), newton_options,
                        newton_ws_);
  stats_.newton_iterations += result.iterations;
  stats_.lu_factorisations += result.jacobian_factorisations;
  last_newton_iterations_ = result.iterations;

  if (!result.converged() || !all_finite(u_work_)) {
    return false;
  }
  return true;
}

io::JsonValue NrEngine::checkpoint_state() const {
  if (!initialised_) {
    throw ModelError("NrEngine: cannot checkpoint before initialise");
  }
  io::JsonValue doc = io::JsonValue::make_object();
  doc.set("engine", io::JsonValue(std::string(engine_name())));
  doc.set("t", io::real_to_json(t_));
  doc.set("u", io::reals_to_json(u_));
  doc.set("u_prev", io::reals_to_json(u_prev_));
  doc.set("h_prev", io::real_to_json(h_prev_));
  doc.set("has_prev", io::JsonValue(has_prev_));
  doc.set("u_scale", io::reals_to_json(u_scale_));
  doc.set("controller", controller_.checkpoint_state());
  doc.set("last_newton_iterations", io::u64_to_json(last_newton_iterations_));
  doc.set("last_epoch", io::u64_to_json(last_epoch_));
  doc.set("last_notify_time", io::real_to_json(last_notify_time_));
  doc.set("stats", io::solver_stats_to_json(stats_));
  // Honesty anchor (see LinearisedSolver::checkpoint_state).
  std::vector<double> fx_check(num_states_);
  std::vector<double> fy_check(num_nets_);
  system_->eval(t_, state(), terminals(), std::span<double>(fx_check),
                std::span<double>(fy_check));
  double residual = 0.0;
  for (double v : fy_check) {
    residual = std::max(residual, std::abs(v));
  }
  doc.set("residual", io::real_to_json(residual));
  return doc;
}

void NrEngine::restore_checkpoint_state(const io::JsonValue& snapshot) {
  const std::string what = "engine checkpoint";
  io::check_state_keys(snapshot, what,
                       {"engine", "t", "u", "u_prev", "h_prev", "has_prev", "u_scale",
                        "controller", "last_newton_iterations", "last_epoch",
                        "last_notify_time", "stats", "residual"});
  const std::string& engine = io::require_key(snapshot, what, "engine").as_string();
  if (engine != engine_name()) {
    throw ModelError(what + ": snapshot was written by engine '" + engine + "', not '" +
                     engine_name() + "'");
  }
  t_ = io::real_from_json(io::require_key(snapshot, what, "t"), what + ".t");
  io::reals_into(io::require_key(snapshot, what, "u"), u_, what + ".u");
  io::reals_into(io::require_key(snapshot, what, "u_prev"), u_prev_, what + ".u_prev");
  h_prev_ = io::real_from_json(io::require_key(snapshot, what, "h_prev"), what + ".h_prev");
  has_prev_ = io::bool_from_json(io::require_key(snapshot, what, "has_prev"), what + ".has_prev");
  io::reals_into(io::require_key(snapshot, what, "u_scale"), u_scale_, what + ".u_scale");
  controller_.restore_checkpoint_state(io::require_key(snapshot, what, "controller"));
  last_newton_iterations_ = io::index_from_json(
      io::require_key(snapshot, what, "last_newton_iterations"), what + ".last_newton_iterations");
  last_epoch_ = io::u64_from_json(io::require_key(snapshot, what, "last_epoch"),
                                  what + ".last_epoch");
  // See LinearisedSolver::restore_checkpoint_state: a boundary checkpoint
  // may carry a pending epoch bump the engine consumes on its next step;
  // only a model *behind* the engine is a restore-order bug.
  if (system_->total_epoch() < last_epoch_) {
    throw ModelError(what + ": model epoch " + std::to_string(system_->total_epoch()) +
                     " is behind the checkpointed epoch " + std::to_string(last_epoch_) +
                     " (restore the model first)");
  }
  last_notify_time_ = io::real_from_json(io::require_key(snapshot, what, "last_notify_time"),
                                         what + ".last_notify_time");
  stats_ = io::solver_stats_from_json(io::require_key(snapshot, what, "stats"), what + ".stats");
  initialised_ = true;

  const double saved = io::real_from_json(io::require_key(snapshot, what, "residual"),
                                          what + ".residual");
  std::vector<double> fx_check(num_states_);
  std::vector<double> fy_check(num_nets_);
  system_->eval(t_, state(), terminals(), std::span<double>(fx_check),
                std::span<double>(fy_check));
  double residual = 0.0;
  for (double v : fy_check) {
    residual = std::max(residual, std::abs(v));
  }
  const bool same = residual == saved || (std::isnan(residual) && std::isnan(saved));
  if (!same) {
    throw ModelError(what + ": consistency check failed — the restored model evaluates to a "
                     "different residual at the checkpointed point (saved " +
                     std::to_string(saved) + ", got " + std::to_string(residual) + ")");
  }
}

void NrEngine::advance_to(double t_end) {
  if (!initialised_) {
    throw SolverError("NrEngine: advance_to before initialise");
  }
  if (!(t_end >= t_)) {
    throw SolverError("NrEngine: advance_to would move time backwards");
  }
  notify_observers();

  while (t_ < t_end) {
    check_for_discontinuity();
    const double remaining = t_end - t_;
    if (remaining <= config_.h_min) {
      t_ = t_end;  // snap across a sliver
      break;
    }
    double h = std::min({controller_.suggested_step(), config_.h_max, remaining});
    h = std::max(h, config_.h_min);

    // Save predictor inputs before try_step overwrites scratch.
    const bool converged = try_step(h);
    if (!converged) {
      ++stats_.step_rejections;
      if (h <= config_.h_min * (1.0 + 1e-12)) {
        throw SolverError("NrEngine: Newton failed to converge at the minimum step, t=" +
                          std::to_string(t_));
      }
      controller_.set_step(std::max(h * config_.retry_shrink, config_.h_min));
      continue;
    }

    // Local truncation error from the predictor-corrector difference.
    const double divisor = config_.method == BaselineMethod::kBackwardEuler ? 2.0 : 6.0;
    double err_ratio = 0.0;
    if (has_prev_) {
      for (std::size_t i = 0; i < num_unknowns_; ++i) {
        const double w = config_.lte_abs_tol + config_.lte_rel_tol * u_scale_[i];
        err_ratio = std::max(err_ratio, std::abs(u_work_[i] - u_pred_[i]) / (divisor * w));
      }
    }
    const bool accepted = controller_.update(err_ratio);
    if (!accepted && h > config_.h_min * (1.0 + 1e-12)) {
      ++stats_.step_rejections;
      continue;  // retry with the controller's smaller step
    }

    // Promote the solution.
    std::copy(u_.begin(), u_.end(), u_prev_.begin());
    std::copy(u_work_.begin(), u_work_.end(), u_.begin());
    h_prev_ = h;
    has_prev_ = true;
    t_ += h;
    update_running_scales();

    ++stats_.steps;
    stats_.last_step = h;
    stats_.min_step = stats_.min_step == 0.0 ? h : std::min(stats_.min_step, h);
    stats_.max_step = std::max(stats_.max_step, h);

    // SPICE iteration-count heuristic: hard-working Newton caps growth.
    if (last_newton_iterations_ >= config_.iters_for_shrink) {
      controller_.set_step(std::max(h * 0.5, config_.h_min));
    } else if (last_newton_iterations_ > config_.iters_for_growth) {
      controller_.set_step(std::min(controller_.suggested_step(), h));
    }

    notify_observers();
  }
  notify_observers();
}

// Step-size ceilings: mixed-signal HDL simulators bound the analogue step
// well below the excitation period — both to resolve the rectifier switching
// for the LTE/NR machinery and to synchronise with the digital kernel for
// event detection. On a 70 Hz rectifier, tools of the paper's era ran
// tens-of-microsecond steps (consistent with Table I: SystemVision spent
// 2185 s CPU on scenario 1's ~300 simulated seconds, i.e. millions of
// steps). The caps below encode those documented behaviours; the proposed
// engine's own step is stability-capped in the same tens-of-microseconds
// range, so both engine families resolve the same dynamics and the CPU
// comparison isolates the per-step cost — NR iteration with full-system LU
// versus one feed-forward linearised update.

NrEngineConfig systemvision_profile() {
  NrEngineConfig config;
  config.method = BaselineMethod::kTrapezoidal;
  config.lte_rel_tol = 1e-3;
  // VHDL-AMS mixed-signal sync: analogue step bounded near the digital
  // sampling resolution (~1/300 of the excitation period).
  config.h_max = 5e-5;
  config.profile_name = "systemvision-vhdl-ams";
  return config;
}

NrEngineConfig pspice_profile() {
  NrEngineConfig config;
  config.method = BaselineMethod::kGear2;
  config.lte_rel_tol = 1e-3;
  // OrCAD transient runs cap the internal step at the print interval
  // (PSPICE's default TMAX behaviour with fine print steps), which is what
  // makes it the slowest column of the paper's Table I.
  config.h_max = 2e-5;
  config.profile_name = "orcad-pspice";
  return config;
}

NrEngineConfig systemca_profile() {
  NrEngineConfig config;
  // SystemC-A's analogue kernel [Al-Junaid 2006] used implicit integration
  // with Newton-Raphson; trapezoidal with a tighter error target than the
  // SystemVision profile lands its cost between the other two columns of
  // Table I (4h24 < 6h40 < 9h48) at comparable waveform accuracy.
  config.method = BaselineMethod::kTrapezoidal;
  config.lte_rel_tol = 5e-4;
  config.h_max = 3e-5;
  config.profile_name = "systemc-a-newton";
  return config;
}

}  // namespace ehsim::baseline
