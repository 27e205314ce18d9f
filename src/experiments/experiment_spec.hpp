/// \file experiment_spec.hpp
/// \brief The declarative description of one simulation experiment.
///
/// An ExperimentSpec is pure data: an excitation timeline, the engine to
/// run, sparse device-parameter overrides and trace/power-binning settings.
/// Every experiment in the repository — the paper's canned scenarios, the
/// benches, JSON spec files fed to the `ehsim` CLI — reduces to this struct,
/// and src/io round-trips it losslessly through JSON. Execution lives in
/// scenarios.hpp (run_experiment / run_scenario_batch).
#pragma once

#include <compare>
#include <string>
#include <vector>

#include "core/solver_config.hpp"
#include "experiments/engine_kind.hpp"
#include "experiments/excitation.hpp"
#include "experiments/param_registry.hpp"
#include "experiments/probes.hpp"

namespace ehsim::experiments {

struct ExperimentSpec {
  std::string name = "experiment";
  double duration = 300.0;  ///< simulated span [s]
  /// Generator tuned to this frequency at t = 0 by pre-positioning the
  /// tuning magnet; <= 0 leaves actuator.initial_gap untouched (relaxed
  /// position, or whatever an override set).
  double pre_tuned_hz = 70.0;
  bool with_mcu = true;            ///< build the digital control process
  double trace_interval = 0.05;    ///< Vc trace decimation [s]
  double power_bin_width = 0.5;    ///< Fig. 8(a) power bin width [s]
  EngineKind engine = EngineKind::kProposed;
  /// Engine tuning knobs. Consumed by the proposed engine (all fields) and
  /// the reference oracle (fixed_step / init_tolerance); the NR baselines
  /// keep their historical profiles. Serialised as an optional "solver"
  /// block only when it differs from the defaults, so pre-existing specs
  /// and goldens round-trip byte-identically. This is the surface the
  /// autotuner walks (see autotune.hpp).
  core::SolverConfig solver{};
  ExcitationSchedule excitation{};
  /// Sparse overrides applied to the default HarvesterParams, in order.
  std::vector<ParamOverride> overrides{};
  /// Declarative observers: each yields scalar statistics in the result and,
  /// when recorded, an extra trace CSV column (see probes.hpp).
  std::vector<ProbeSpec> probes{};

  /// Throws ModelError with a precise message on any inconsistency.
  void validate() const;

  /// Ordered as well as compared, so a batch can group its jobs by spec in
  /// one pass (run_scenario_batch's fork plan).
  [[nodiscard]] auto operator<=>(const ExperimentSpec&) const = default;
};

/// Device parameters configured for a spec: overrides applied, ambient
/// excitation seeded, actuator pre-positioned for `pre_tuned_hz`.
[[nodiscard]] harvester::HarvesterParams experiment_params(const ExperimentSpec& spec);

}  // namespace ehsim::experiments
