/// \file accuracy.hpp
/// \brief Oracle-backed accuracy measurement: fast engines vs src/ref.
///
/// The paper's headline is a speed/accuracy trade ("the computational speed
/// is increased ... with negligible loss of accuracy", §V) — but the repo's
/// accuracy claims were, until this layer, pinned against *each other*
/// (engine vs engine, parallel vs serial). run_accuracy pins them against an
/// independent yardstick: the extended-precision fixed-step trapezoidal
/// oracle of ref/reference_engine.hpp, whose own error is bounded by
/// construction (compensated long double state, tiny fixed step, exact
/// Shockley device evaluation). Every job of a spec (or sweep) runs once on
/// the oracle and once on the fast path; the report carries measured
/// relative error bounds on the supercapacitor voltage trace, the scalar
/// figures of merit and every declared probe — in strict-keyed JSON
/// (io::to_json) so regressions pin exact numbers.
///
/// The same measurement is the feasibility test of the error-budget
/// autotuner (autotune.hpp).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "experiments/scenarios.hpp"
#include "experiments/sweep.hpp"

namespace ehsim::experiments {

/// Execution options of one run_accuracy call.
struct AccuracyOptions {
  /// Oracle step [s]; <= 0 uses the ref::ReferenceConfig default. The
  /// oracle cost is duration / step dense LU solves — size it to the spec.
  double oracle_step = 0.0;
  /// Worker threads for the fast-path batch (the oracle always runs
  /// serially, job by job, so its trace is scheduling-independent).
  std::size_t threads = 1;
};

/// Relative-error summary of one fast run against its oracle run. All
/// errors are relative: trace errors are scaled by the oracle's peak |Vc|,
/// final Vc by max(1, |oracle final Vc|) (the PR-6 bench convention),
/// energy/resonance by the oracle magnitude.
struct ErrorMetrics {
  double vc_max_rel_error = 0.0;     ///< max-norm error of the Vc trace
  double vc_rms_rel_error = 0.0;     ///< RMS error of the Vc trace
  double final_vc_rel_error = 0.0;   ///< final supercapacitor voltage
  double energy_rel_error = 0.0;     ///< binned generator energy integral
  double resonance_rel_error = 0.0;  ///< final tuned resonance frequency

  /// The feasibility scalar the autotuner tests against its budget: the
  /// worst of the Vc-trace, final-Vc and energy errors (resonance is
  /// excluded — it is quantised by the tuning controller's discrete moves,
  /// so it is reported but not budgeted).
  [[nodiscard]] double combined() const;

  [[nodiscard]] bool operator==(const ErrorMetrics&) const = default;
};

/// Measure \p fast against \p oracle (same spec, different engine/step).
/// The oracle trace is resampled onto the fast trace's time grid.
/// \p power_bin_width is the spec's bin width (the energy integral weight).
[[nodiscard]] ErrorMetrics measure_errors(const ScenarioResult& oracle,
                                          const ScenarioResult& fast,
                                          double power_bin_width);

/// Worst relative error across one probe's scalar statistics
/// (final/min/max/mean/rms), each scaled by max(1e-9, |oracle value|).
struct ProbeAccuracy {
  std::string label;
  double max_rel_error = 0.0;

  [[nodiscard]] bool operator==(const ProbeAccuracy&) const = default;
};

/// Per-job measurement.
struct JobAccuracy {
  std::string job;  ///< job (spec) name
  ErrorMetrics errors{};
  std::vector<ProbeAccuracy> probes{};  ///< spec order

  [[nodiscard]] bool operator==(const JobAccuracy&) const = default;
};

/// The full oracle-vs-fast accuracy report of one spec or sweep: per-job
/// errors plus max-over-jobs bounds.
struct AccuracyReport {
  std::string name;            ///< spec / sweep name
  std::string engine;          ///< fast-path engine id
  double oracle_step = 0.0;    ///< fixed step the oracle actually used [s]
  std::uint64_t oracle_steps = 0;    ///< summed oracle steps
  double oracle_cpu_seconds = 0.0;   ///< summed oracle wall clock [s]
  /// Summed fast-path CPU time [s]; a prefix the jobs share counts once
  /// (see run_scenario_batch).
  double cpu_seconds = 0.0;
  std::uint64_t steps = 0;     ///< summed fast-path solver steps
  ErrorMetrics bounds{};       ///< max over jobs, per metric
  std::vector<JobAccuracy> jobs{};

  [[nodiscard]] bool operator==(const AccuracyReport&) const = default;
};

/// Run \p spec once on the oracle and once on its own engine; measure.
/// Throws ModelError for a kReference spec (the oracle cannot judge itself).
[[nodiscard]] AccuracyReport run_accuracy(const ExperimentSpec& spec,
                                          const AccuracyOptions& options = {});

/// Sweep form: every expanded job is measured; the bounds are maxima over
/// all jobs.
[[nodiscard]] AccuracyReport run_accuracy(const SweepSpec& sweep,
                                          const AccuracyOptions& options = {});

}  // namespace ehsim::experiments
