#include "phase_tracer.hpp"

#include <algorithm>
#include <cmath>
#include <complex>
#include <span>
#include <vector>

#include "core/lle_monitor.hpp"
#include "linalg/eigen.hpp"
#include "linalg/lu.hpp"
#include "ode/explicit_integrators.hpp"
#include "ode/stability.hpp"
#include "sim/harvester_session.hpp"

namespace perfbench {
namespace {

using ehsim::linalg::Matrix;

/// Calls per timed loop: long enough that even the cheapest phase (a
/// signature lookup, ~0.1 us) spans several microseconds of clock.
constexpr std::size_t kReps = 64;

/// Defeats dead-code elimination of the replayed calls.
volatile double g_sink = 0.0;

template <typename Body>
double per_call_us(Body&& body) {
  const Clock::time_point start = Clock::now();
  for (std::size_t i = 0; i < kReps; ++i) body();
  return seconds_since(start) * 1e6 / static_cast<double>(kReps);
}

/// Per-sample timings, one vector per phase.
struct PhaseSamples {
  std::vector<double> eval, signature, jacobians, lle, factor, solve, eliminate, eigen,
      stability, ab;
};

class PhaseReplay {
 public:
  PhaseReplay(const ehsim::core::SystemAssembler& system,
              const ehsim::core::SolverConfig& config, std::size_t sample_every)
      : system_(system), config_(config), every_(std::max<std::size_t>(1, sample_every)) {}

  void observe(double t, std::span<const double> x, std::span<const double> y) {
    if (++seen_ % every_ != 0) return;
    const Clock::time_point start = Clock::now();
    replay(t, x, y);
    replay_s_ += seconds_since(start);
  }

  [[nodiscard]] double replay_seconds() const noexcept { return replay_s_; }

  [[nodiscard]] PhaseTimes times() const {
    PhaseTimes times;
    times.eval_us = median(samples_.eval);
    times.signature_us = median(samples_.signature);
    times.jacobians_us = median(samples_.jacobians);
    times.lle_update_us = median(samples_.lle);
    times.lu_factor_us = median(samples_.factor);
    times.lu_solve_us = median(samples_.solve);
    times.eliminate_us = median(samples_.eliminate);
    times.eigenvalues_us = median(samples_.eigen);
    times.stability_cap_us = median(samples_.stability);
    times.ab_step_us = median(samples_.ab);
    times.samples = samples_.eval.size();
    return times;
  }

 private:
  void replay(double t, std::span<const double> x_live, std::span<const double> y_live) {
    // Private copies: the replay never hands engine-owned storage to a
    // function that could write it.
    const std::vector<double> x(x_live.begin(), x_live.end());
    const std::vector<double> y(y_live.begin(), y_live.end());
    const std::size_t n = x.size();
    const std::size_t m = y.size();
    std::vector<double> fx(n), fy(m);

    samples_.eval.push_back(per_call_us([&] {
      system_.eval(t, x, y, fx, fy);
      g_sink = g_sink + fx[0];
    }));
    samples_.signature.push_back(per_call_us([&] {
      g_sink = g_sink + static_cast<double>(system_.jacobian_signature(t, x, y) & 1U);
    }));
    samples_.jacobians.push_back(per_call_us([&] {
      system_.jacobians(t, x, y, jxx_, jxy_, jyx_, jyy_);
      g_sink = g_sink + jxx_(0, 0);
    }));
    samples_.lle.push_back(per_call_us([&] { g_sink = g_sink + lle_.update(jxx_, jxy_, jyx_, jyy_); }));
    if (m == 0) return;  // no algebraic system: nothing below applies

    samples_.factor.push_back(per_call_us([&] { g_sink = g_sink + (lu_.factor(jyy_) ? 1.0 : 0.0); }));
    std::vector<double> dy(m);
    samples_.solve.push_back(per_call_us([&] {
      for (std::size_t i = 0; i < m; ++i) dy[i] = -fy[i];
      lu_.solve_inplace(dy);
      g_sink = g_sink + dy[0];
    }));
    samples_.eliminate.push_back(per_call_us([&] {
      lu_.solve_matrix(jyx_, z_);
      g_sink = g_sink + z_(0, 0);
    }));

    // A = Jxx - Jxy Jyy^-1 Jyx, formed as the engine forms it.
    Matrix a = jxx_;
    for (std::size_t r = 0; r < n; ++r) {
      for (std::size_t k = 0; k < m; ++k) {
        for (std::size_t c = 0; c < n; ++c) a(r, c) -= jxy_(r, k) * z_(k, c);
      }
    }
    samples_.eigen.push_back(per_call_us([&] {
      g_sink = g_sink + ehsim::linalg::eigenvalues(a).front().real();
    }));
    const std::size_t order = config_.max_ab_order;
    const double h_request_max = 10.0 * std::max(config_.h_max, config_.fixed_step);
    samples_.stability.push_back(per_call_us([&] {
      const auto limit = ehsim::ode::max_stable_step(a, order, 1.0);
      double candidate = std::min(limit.h_max, h_request_max);
      if (std::isfinite(candidate) && candidate > 0.0) {
        candidate = ehsim::ode::refine_stable_step(a, order, candidate, config_.h_min);
      }
      g_sink = g_sink + candidate;
    }));

    ehsim::ode::AbHistory history(n, order);
    const double h = config_.h_initial;
    for (std::size_t k = order; k > 0; --k) {
      history.push(t - static_cast<double>(k) * h, fx);
    }
    std::vector<double> x_step(n);
    samples_.ab.push_back(per_call_us([&] {
      std::copy(x.begin(), x.end(), x_step.begin());
      history.step(t + h, x_step);
      g_sink = g_sink + x_step[0];
    }));
  }

  const ehsim::core::SystemAssembler& system_;
  ehsim::core::SolverConfig config_;
  std::size_t every_;
  std::size_t seen_ = 0;
  double replay_s_ = 0.0;
  Matrix jxx_, jxy_, jyx_, jyy_, z_;
  ehsim::linalg::LuFactorization lu_;
  ehsim::core::LleMonitor lle_;
  PhaseSamples samples_;
};

}  // namespace

TracedRun traced_run(const ehsim::experiments::ExperimentSpec& spec, std::size_t sample_every) {
  ehsim::sim::HarvesterSession session = ehsim::experiments::make_experiment_session(spec);
  PhaseReplay replay(session.session().assembler(), spec.solver, sample_every);
  session.add_observer([&replay](double t, std::span<const double> x,
                                 std::span<const double> y) { replay.observe(t, x, y); });
  session.initialise(0.0);
  const Clock::time_point start = Clock::now();
  session.run_until(spec.duration);

  TracedRun run;
  run.wall_s = seconds_since(start);
  run.replay_s = replay.replay_seconds();
  run.stats = session.stats();
  const std::vector<double> vc = session.session().trace().column("Vc");
  run.digest = Digest{run.stats.steps, run.stats.jacobian_builds,
                      bits_of(vc.empty() ? 0.0 : vc.back()), trace_hash(vc)};
  run.events_executed = session.system().kernel().events_executed();
  run.sync_points = session.session().sync_points();
  if (session.system().mcu() != nullptr) run.mcu_events = session.system().mcu()->events().size();
  run.phases = replay.times();
  return run;
}

}  // namespace perfbench
