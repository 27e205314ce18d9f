/// \file optimise_spec.hpp
/// \brief Declarative optimisation loops: line-search and coordinate-descent
/// tuning as data.
///
/// The paper's motivating workload — "optimal parameters of energy harvester
/// ... obtained iteratively using multiple simulations" (§V) — used to be
/// hand-coded C++ driving golden_section_maximise (one variable) or
/// coordinate_descent_maximise (joint studies) over run_experiment. An
/// OptimiseSpec captures that whole loop declaratively: a base
/// ExperimentSpec (with probes), one or more variables addressed by the same
/// dotted paths sweeps use (device parameters or spec fields such as
/// spec.pre_tuned_hz), per-variable brackets, and a probe-derived
/// objective (probe label + statistic). run_optimise reproduces the
/// hand-coded loops bit-identically — same evaluation sequence, same optimum
/// — which is what the scenario-1 tuning ctests pin; `ehsim optimise` runs
/// it from JSON.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "experiments/optimise.hpp"
#include "experiments/sweep.hpp"

namespace ehsim::experiments {

/// One search axis of a (possibly multi-variable) optimisation.
struct OptimiseVariable {
  /// Sweepable path, resolved exactly like a sweep axis (set_spec_value):
  /// device parameters ("multiplier.stage_capacitance") or spec fields
  /// (spec.pre_tuned_hz, excitation.event[0].frequency_hz, ...).
  std::string path{};
  double lower = 0.0;  ///< per-axis bracket [lower, upper]; upper > lower
  double upper = 0.0;
  /// Optional per-axis relative line-search tolerance; the spec-level
  /// x_tolerance applies when unset.
  std::optional<double> x_tolerance{};

  [[nodiscard]] bool operator==(const OptimiseVariable&) const = default;
};

struct OptimiseSpec {
  std::string name = "optimise";
  /// The experiment evaluated at every probe point; must declare the
  /// objective probe.
  ExperimentSpec base{};
  /// Multi-variable form: the search axes, in declaration order. Exactly one
  /// of `variables` and the single-variable alias below must be used. One
  /// entry runs the same golden-section search as the alias; two or more
  /// entries run cyclic coordinate descent (see run_optimise).
  std::vector<OptimiseVariable> variables{};
  /// Single-variable alias (the original schema): equivalent to a
  /// one-element `variables` array but kept as separate fields so existing
  /// specs keep round-tripping byte-identically through to_json.
  std::string variable{};
  double lower = 0.0;  ///< bracket [lower, upper]; requires upper > lower
  double upper = 0.0;
  /// Label of the probe in base.probes whose statistic is the objective.
  std::string objective{};
  /// "final" | "min" | "max" | "mean" | "rms" | "duty_cycle" | "crossings".
  std::string statistic = "mean";
  bool maximise = true;
  /// golden_section_maximise budget/tolerance (see OptimiseOptions).
  std::size_t max_evaluations = 32;
  double x_tolerance = 1e-3;

  /// Throws ModelError naming the first inconsistency (degenerate bracket,
  /// unknown/duplicate/integer-valued variable path, both variable forms at
  /// once, unknown objective probe/statistic, threshold statistics on a
  /// threshold-less probe, ...).
  void validate() const;

  [[nodiscard]] bool operator==(const OptimiseSpec&) const = default;
};

/// The spec's search axes in canonical form: `variables` as declared, or the
/// single-variable alias lifted into a one-element vector. Does not
/// validate.
[[nodiscard]] std::vector<OptimiseVariable> optimise_axes(const OptimiseSpec& spec);

/// One objective evaluation, in call order (the golden-section and
/// coordinate-descent sequences are deterministic, so this log is
/// reproducible bit for bit).
struct OptimiseEvaluation {
  double x = 0.0;          ///< the candidate (single-variable searches)
  /// Multi-variable candidate vector, in axis order (empty on the 1-D path).
  std::vector<double> xs{};
  /// Coordinate-descent position: 1-based sweep and the axis whose line
  /// search requested this evaluation (both 0 for the start-point evaluation
  /// and on the 1-D path).
  std::size_t sweep = 0;
  std::size_t axis = 0;
  double objective = 0.0;  ///< true objective value (sign not flipped)
};

struct OptimiseResult {
  std::string name;
  std::string variable;                 ///< 1-D path (empty for multi-variable runs)
  std::vector<std::string> variables{}; ///< multi-variable paths (empty on the 1-D path)
  std::string statistic;
  bool maximise = true;
  /// best.value carries the true objective at best.x (sign restored for
  /// minimisation); best.evaluations counts objective calls. 1-D path only.
  Optimum1D best{};
  /// Multi-variable optimum (x empty on the 1-D path): joint best point,
  /// true objective value, total evaluations, completed sweeps and per-axis
  /// convergence of the final sweep's line searches.
  OptimumND best_nd{};
  std::vector<OptimiseEvaluation> evaluations{};
  /// The full experiment re-run at the optimum — deterministic, so
  /// bit-identical to the evaluation the search saw.
  ScenarioResult best_run{};
};

/// Execute the optimisation loop serially (every evaluation depends on the
/// previous one). One search axis dispatches to golden_section_maximise —
/// bit-identical to the pre-multi-variable driver. Two or more axes dispatch
/// to coordinate_descent_maximise started at the per-axis bracket midpoints,
/// with OptimiseOptions{max_evaluations, x_tolerance} from the spec and
/// axis_tolerances from each variable's x_tolerance (spec-level default) —
/// exactly the options a hand-coded loop would pass, so the declarative run
/// is bit-identical to driving the C++ API directly. Throws ModelError on an
/// invalid spec.
[[nodiscard]] OptimiseResult run_optimise(const OptimiseSpec& spec);

/// The candidate experiment evaluated at \p x: base with the variable set
/// and a unique "name/variable=value" job name. Exposed so tests (and the
/// hand-coded C++ loops the driver supersedes) can reproduce the exact
/// evaluation the driver performs.
[[nodiscard]] ExperimentSpec optimise_candidate(const OptimiseSpec& spec, double x);

/// Multi-variable candidate: base with every axis set to its entry of \p xs
/// (one value per optimise_axes entry, in order) and a unique
/// "name/path=value/..." job name.
[[nodiscard]] ExperimentSpec optimise_candidate(const OptimiseSpec& spec,
                                                const std::vector<double>& xs);

}  // namespace ehsim::experiments
