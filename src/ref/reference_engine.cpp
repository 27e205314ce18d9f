#include "ref/reference_engine.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "common/error.hpp"

namespace ehsim::ref {

ReferenceEngine::ReferenceEngine(core::SystemAssembler& system, ReferenceConfig config)
    : system_(&system), config_(config) {
  if (!(config_.fixed_step > 0.0)) {
    throw ModelError("ReferenceEngine: fixed_step must be > 0");
  }
  if (!system.elaborated()) {
    system.elaborate();
  }
  num_states_ = system.num_states();
  num_nets_ = system.num_nets();
  num_unknowns_ = num_states_ + num_nets_;

  x_.assign(num_states_, CompensatedAccumulator{});
  y_.assign(num_nets_, 0.0L);
  u_scale_.assign(num_unknowns_, 0.0L);
  x_shadow_.assign(num_states_, 0.0);
  y_shadow_.assign(num_nets_, 0.0);
  x_eval_.assign(num_states_, 0.0);
  y_eval_.assign(num_nets_, 0.0);
  fx_scratch_.assign(num_states_, 0.0);
  fy_scratch_.assign(num_nets_, 0.0);
  u_work_.assign(num_unknowns_, 0.0L);
  u_trial_.assign(num_unknowns_, 0.0L);
  fx_entry_.assign(num_states_, 0.0L);
  residual_.assign(num_unknowns_, 0.0L);
  delta_.assign(num_unknowns_, 0.0L);
  jacobian_.resize(num_unknowns_, num_unknowns_);
}

void ReferenceEngine::add_observer(core::SolutionObserver observer) {
  if (!observer) {
    throw ModelError("ReferenceEngine: null observer");
  }
  observers_.push_back(std::move(observer));
}

void ReferenceEngine::sync_shadows() {
  for (std::size_t i = 0; i < num_states_; ++i) {
    x_shadow_[i] = static_cast<double>(x_[i].value());
  }
  for (std::size_t i = 0; i < num_nets_; ++i) {
    y_shadow_[i] = static_cast<double>(y_[i]);
  }
}

void ReferenceEngine::solve_algebraic_consistency() {
  // Newton on y alone (block Jyy) until ||fy||inf <= init_tolerance. The
  // iteration count lands in stats_.init_iterations at t0 and in
  // newton_iterations at mid-run discontinuities (see callers).
  if (num_nets_ == 0) {
    return;
  }
  const double t_now = time();
  RefMatrix jyy_wide(num_nets_, num_nets_);
  std::vector<long double> dy(num_nets_, 0.0L);
  bool converged = false;
  for (std::size_t it = 0; it < config_.max_init_iterations; ++it) {
    sync_shadows();
    system_->eval(t_now, x_shadow_, y_shadow_, std::span<double>(fx_scratch_),
                  std::span<double>(fy_scratch_));
    long double norm = 0.0L;
    for (const double v : fy_scratch_) {
      norm = std::max(norm, static_cast<long double>(std::fabs(v)));
    }
    if (norm <= static_cast<long double>(config_.init_tolerance)) {
      converged = true;
      break;
    }
    ++stats_.init_iterations;
    system_->jacobians(t_now, x_shadow_, y_shadow_, jxx_, jxy_, jyx_, jyy_);
    for (std::size_t r = 0; r < num_nets_; ++r) {
      for (std::size_t c = 0; c < num_nets_; ++c) {
        jyy_wide(r, c) = static_cast<long double>(jyy_(r, c));
      }
    }
    if (!lu_.factor(jyy_wide)) {
      throw SolverError("ReferenceEngine: singular Jyy during consistency solve");
    }
    for (std::size_t i = 0; i < num_nets_; ++i) {
      dy[i] = -static_cast<long double>(fy_scratch_[i]);
    }
    lu_.solve_inplace(std::span<long double>(dy));
    // Magnitude-capped damping: exact exponentials overshoot from far starts.
    long double lambda = 1.0L;
    for (const long double v : dy) {
      const long double a = std::fabs(v);
      if (a > 1.0L) {
        lambda = std::min(lambda, 1.0L / a);
      }
    }
    for (std::size_t i = 0; i < num_nets_; ++i) {
      y_[i] += lambda * dy[i];
    }
  }
  if (!converged) {
    throw SolverError("ReferenceEngine: operating-point consistency did not converge at t=" +
                      std::to_string(t_now));
  }
  sync_shadows();
}

void ReferenceEngine::initialise(double t0) {
  t_.reset(static_cast<long double>(t0));
  stats_ = core::SolverStats{};
  for (auto& acc : x_) {
    acc.reset(0.0L);
  }
  std::fill(y_.begin(), y_.end(), 0.0L);
  std::fill(u_scale_.begin(), u_scale_.end(), 0.0L);

  std::vector<double> x0(num_states_, 0.0);
  system_->initial_state(std::span<double>(x0));
  for (std::size_t i = 0; i < num_states_; ++i) {
    x_[i].reset(static_cast<long double>(x0[i]));
  }
  sync_shadows();
  solve_algebraic_consistency();

  for (std::size_t i = 0; i < num_states_; ++i) {
    u_scale_[i] = std::fabs(x_[i].value());
  }
  for (std::size_t i = 0; i < num_nets_; ++i) {
    u_scale_[num_states_ + i] = std::fabs(y_[i]);
  }
  last_epoch_ = system_->total_epoch();
  last_notify_time_ = -std::numeric_limits<double>::infinity();
  initialised_ = true;
}

void ReferenceEngine::check_for_discontinuity() {
  const std::uint64_t epoch = system_->total_epoch();
  if (epoch != last_epoch_) {
    last_epoch_ = epoch;
    ++stats_.history_resets;
    // The model changed under the solution: the terminals are no longer
    // consistent with the new equations, so re-solve them before taking the
    // next trapezoidal step (the baselines carry the O(h) glitch instead;
    // the oracle must not).
    const std::uint64_t init_before = stats_.init_iterations;
    solve_algebraic_consistency();
    stats_.newton_iterations += stats_.init_iterations - init_before;
    stats_.init_iterations = init_before;
  }
}

void ReferenceEngine::notify_observers() {
  const double now = time();
  if (now == last_notify_time_) {
    return;
  }
  last_notify_time_ = now;
  for (const auto& observer : observers_) {
    observer(now, state(), terminals());
  }
}

void ReferenceEngine::step(long double h) {
  const long double t0 = t_.value();
  const double t1 = static_cast<double>(t0 + h);

  // Entry derivative under the *current* model (post-discontinuity safe).
  sync_shadows();
  system_->eval(static_cast<double>(t0), x_shadow_, y_shadow_, std::span<double>(fx_scratch_),
                std::span<double>(fy_scratch_));
  for (std::size_t i = 0; i < num_states_; ++i) {
    fx_entry_[i] = static_cast<long double>(fx_scratch_[i]);
  }

  // Newton start: the previous solution (steps are small by construction).
  for (std::size_t i = 0; i < num_states_; ++i) {
    u_work_[i] = x_[i].value();
  }
  for (std::size_t i = 0; i < num_nets_; ++i) {
    u_work_[num_states_ + i] = y_[i];
  }

  const long double half_h = h * 0.5L;
  const auto weighted_residual_norm = [&](const std::vector<long double>& u) -> long double {
    for (std::size_t i = 0; i < num_states_; ++i) {
      x_eval_[i] = static_cast<double>(u[i]);
    }
    for (std::size_t i = 0; i < num_nets_; ++i) {
      y_eval_[i] = static_cast<double>(u[num_states_ + i]);
    }
    system_->eval(t1, x_eval_, y_eval_, std::span<double>(fx_scratch_),
                  std::span<double>(fy_scratch_));
    long double norm = 0.0L;
    for (std::size_t i = 0; i < num_states_; ++i) {
      const long double r =
          u[i] - (x_[i].value() + half_h * (fx_entry_[i] + static_cast<long double>(fx_scratch_[i])));
      residual_[i] = r;
      const long double w = static_cast<long double>(config_.abs_state) +
                            static_cast<long double>(config_.rel_tol) * u_scale_[i];
      norm = std::max(norm, std::fabs(r) / w);
    }
    for (std::size_t i = 0; i < num_nets_; ++i) {
      const long double r = static_cast<long double>(fy_scratch_[i]);
      residual_[num_states_ + i] = r;
      norm = std::max(norm, std::fabs(r) / static_cast<long double>(config_.abs_flow));
    }
    return norm;
  };

  bool converged = false;
  for (std::size_t it = 0; it < config_.max_newton_iterations; ++it) {
    const long double norm = weighted_residual_norm(u_work_);
    // At least one corrector update per step (the entry point satisfies the
    // state rows trivially but not the end-point derivative).
    if (norm <= 1.0L && it > 0) {
      converged = true;
      break;
    }
    system_->jacobians(t1, x_eval_, y_eval_, jxx_, jxy_, jyx_, jyy_);
    ++stats_.jacobian_builds;
    for (std::size_t r = 0; r < num_states_; ++r) {
      for (std::size_t c = 0; c < num_states_; ++c) {
        jacobian_(r, c) = (r == c ? 1.0L : 0.0L) - half_h * static_cast<long double>(jxx_(r, c));
      }
      for (std::size_t c = 0; c < num_nets_; ++c) {
        jacobian_(r, num_states_ + c) = -half_h * static_cast<long double>(jxy_(r, c));
      }
    }
    for (std::size_t r = 0; r < num_nets_; ++r) {
      for (std::size_t c = 0; c < num_states_; ++c) {
        jacobian_(num_states_ + r, c) = static_cast<long double>(jyx_(r, c));
      }
      for (std::size_t c = 0; c < num_nets_; ++c) {
        jacobian_(num_states_ + r, num_states_ + c) = static_cast<long double>(jyy_(r, c));
      }
    }
    if (!lu_.factor(jacobian_)) {
      throw SolverError("ReferenceEngine: singular step Jacobian at t=" + std::to_string(t1));
    }
    ++stats_.lu_factorisations;
    for (std::size_t i = 0; i < num_unknowns_; ++i) {
      delta_[i] = -residual_[i];
    }
    lu_.solve_inplace(std::span<long double>(delta_));
    long double lambda = 1.0L;
    for (const long double v : delta_) {
      const long double a = std::fabs(v);
      if (a > 1.0L) {
        lambda = std::min(lambda, 1.0L / a);
      }
    }
    for (std::size_t i = 0; i < num_unknowns_; ++i) {
      u_work_[i] += lambda * delta_[i];
    }
    ++stats_.newton_iterations;
  }
  if (!converged) {
    throw SolverError("ReferenceEngine: Newton failed to converge at t=" + std::to_string(t1));
  }

  // Promote: states feed their compensated accumulators (the subtraction of
  // two nearby long doubles is exact, so the accumulator sees the true
  // per-step increment and carries its sub-ulp part forward).
  for (std::size_t i = 0; i < num_states_; ++i) {
    x_[i].add(u_work_[i] - x_[i].value());
    u_scale_[i] = std::max(u_scale_[i], std::fabs(u_work_[i]));
  }
  for (std::size_t i = 0; i < num_nets_; ++i) {
    y_[i] = u_work_[num_states_ + i];
    u_scale_[num_states_ + i] = std::max(u_scale_[num_states_ + i], std::fabs(y_[i]));
  }
  t_.add(h);
  sync_shadows();

  ++stats_.steps;
  const double h_d = static_cast<double>(h);
  stats_.last_step = h_d;
  stats_.min_step = stats_.min_step == 0.0 ? h_d : std::min(stats_.min_step, h_d);
  stats_.max_step = std::max(stats_.max_step, h_d);
}

void ReferenceEngine::advance_to(double t_end) {
  if (!initialised_) {
    throw SolverError("ReferenceEngine: advance_to before initialise");
  }
  if (!(t_end >= time())) {
    throw SolverError("ReferenceEngine: advance_to would move time backwards");
  }
  notify_observers();

  const long double h_nominal = static_cast<long double>(config_.fixed_step);
  while (true) {
    const long double remaining = static_cast<long double>(t_end) - t_.value();
    if (remaining <= h_nominal * 1e-9L) {
      break;
    }
    check_for_discontinuity();
    step(std::min(h_nominal, remaining));
    notify_observers();
  }
  // Land exactly on the segment boundary: event scheduling upstream compares
  // doubles for equality, and the sub-ulp compensation re-anchors here.
  t_.reset(static_cast<long double>(t_end));
  sync_shadows();
  notify_observers();
}

io::JsonValue ReferenceEngine::checkpoint_state() const {
  throw ModelError(
      "ReferenceEngine: the extended-precision oracle does not support checkpointing "
      "(run accuracy/autotune jobs without --checkpoint)");
}

void ReferenceEngine::restore_checkpoint_state(const io::JsonValue& /*state*/) {
  throw ModelError(
      "ReferenceEngine: the extended-precision oracle does not support checkpoint restore");
}

}  // namespace ehsim::ref
