/// \file phase_tracer.hpp
/// \brief The traced pass: per-call cost of each engine phase, measured from
/// outside the engine.
///
/// A solution observer samples every K-th accepted point (t, x, y) of a live
/// run and, at each sample, times the public functions the proposed engine
/// calls per step — SystemAssembler::eval / jacobian_signature / jacobians,
/// LleMonitor::update, the Jyy LU factor / solve / elimination solve,
/// linalg::eigenvalues, the Eq. 7 cap (ode::max_stable_step +
/// ode::refine_stable_step) and AbHistory::step — against the live
/// assembler, in loops long enough to sit far above the clock resolution.
/// The replay works on its own scratch and never writes engine state; the
/// run's digest proves it (it must equal the untraced run's).
#pragma once

#include <cstddef>
#include <cstdint>

#include "common.hpp"
#include "experiments/experiment_spec.hpp"

namespace perfbench {

/// Median per-call wall time of each phase across the samples [us].
struct PhaseTimes {
  double eval_us = 0.0;
  double signature_us = 0.0;
  double jacobians_us = 0.0;
  double lle_update_us = 0.0;
  double lu_factor_us = 0.0;
  double lu_solve_us = 0.0;
  double eliminate_us = 0.0;
  double eigenvalues_us = 0.0;
  /// ode::max_stable_step + ode::refine_stable_step (eigenvalues included).
  double stability_cap_us = 0.0;
  double ab_step_us = 0.0;
  std::size_t samples = 0;
};

struct TracedRun {
  Digest digest;
  ehsim::core::SolverStats stats;
  /// Wall time of the transient, replay loops included.
  double wall_s = 0.0;
  /// Wall time spent inside the replay loops.
  double replay_s = 0.0;
  std::uint64_t events_executed = 0;
  std::uint64_t sync_points = 0;
  std::size_t mcu_events = 0;
  PhaseTimes phases;
};

/// Run \p spec (proposed engine) with the phase replay sampling every
/// \p sample_every accepted points.
[[nodiscard]] TracedRun traced_run(const ehsim::experiments::ExperimentSpec& spec,
                                   std::size_t sample_every);

}  // namespace perfbench
