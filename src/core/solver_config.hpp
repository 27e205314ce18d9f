/// \file solver_config.hpp
/// \brief Configuration and statistics for the analogue engines.
#pragma once

#include <cstddef>
#include <cstdint>

namespace ehsim::core {

/// Options of the proposed linearised state-space engine.
struct SolverConfig {
  /// Maximum Adams-Bashforth order (1..4). The effective order ramps up from
  /// 1 after every cold start / discontinuity. Order 2 is the default sweet
  /// spot: its real-axis stability interval is half of Forward Euler's but
  /// its accuracy lets the LLE controller run at the stability cap, while
  /// orders 3-4 shrink the cap by a further 2-3x for accuracy the harvester
  /// waveforms do not need (ablation A1 quantifies this trade-off).
  std::size_t max_ab_order = 2;

  double h_min = 1e-9;      ///< step underflow guard [s]
  double h_max = 5e-4;      ///< accuracy ceiling on the step [s]
  double h_initial = 1e-6;  ///< first step after (re)start [s]

  /// Safety factor applied to the Eq. 7 stability step.
  double stability_safety = 0.75;
  /// Recompute the eliminated-system stability cap every this many steps...
  std::size_t stability_check_interval = 256;
  /// ...or sooner, when the Jacobian max-norm drifts relatively more than
  /// this since the last stability evaluation (diode segment changes trip
  /// this within a few steps, which is when the cap actually moves).
  double stability_drift_threshold = 0.2;
  /// Disable the Eq. 7 cap entirely (ablation A3 only — unstable for large
  /// fixed steps, which is precisely what the ablation demonstrates).
  bool enable_stability_cap = true;

  /// LLE control (paper Eq. 3): target relative Jacobian drift per step.
  /// The drift spikes at piecewise-linear segment crossings (diode turn-on);
  /// the tolerance is sized so those transitions shrink the step moderately
  /// without collapsing it.
  double lle_tolerance = 0.25;
  bool enable_lle_control = true;

  /// Fixed-step mode for ablations: when > 0, adaptivity is bypassed and
  /// every step uses exactly this h (still aligned to event boundaries).
  double fixed_step = 0.0;

  /// Skip Jacobian assembly / LLE update / Jyy factorisation when the
  /// blocks' signatures certify an unchanged linearisation (piecewise-linear
  /// models have piecewise-constant Jacobians). Disable for ablation A6.
  bool enable_jacobian_reuse = true;

  /// Consistency iterations allowed when establishing the initial operating
  /// point (the march itself never iterates).
  std::size_t max_init_iterations = 50;
  double init_tolerance = 1e-10;

  [[nodiscard]] bool operator==(const SolverConfig&) const = default;
};

/// Run statistics of either engine.
struct SolverStats {
  std::uint64_t steps = 0;
  /// Consistency iterations spent establishing the initial operating point.
  std::uint64_t init_iterations = 0;
  std::uint64_t jacobian_builds = 0;
  /// Refreshes served without assembly: signature held, cache hit, or a
  /// lockstep adoption / clone sync.
  std::uint64_t jacobian_reuses = 0;
  std::uint64_t algebraic_solves = 0;       ///< Eq. 4 eliminations (proposed)
  std::uint64_t newton_iterations = 0;      ///< total NR iterations (baseline)
  std::uint64_t lu_factorisations = 0;      ///< full-system LU count (baseline)
  std::uint64_t stability_recomputes = 0;   ///< Eq. 7 cap evaluations
  /// Eq. 7 caps installed without an evaluation: a linearisation's own
  /// cached cap, or a lockstep peer's.
  std::uint64_t stability_reuses = 0;
  std::uint64_t history_resets = 0;         ///< discontinuity restarts
  std::uint64_t step_rejections = 0;        ///< baseline NR non-convergence retries
  double last_step = 0.0;
  double min_step = 0.0;
  double max_step = 0.0;
};

}  // namespace ehsim::core
