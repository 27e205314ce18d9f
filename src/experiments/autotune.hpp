/// \file autotune.hpp
/// \brief Error-budget autotuning of the proposed engine's solver knobs.
///
/// The paper trades accuracy for speed by hand (step-control tolerances,
/// PWL table resolution); this driver closes the loop: walk a declared
/// ladder of solver knobs with the repository's coordinate-descent
/// machinery and return the *cheapest* configuration whose oracle-measured
/// error (accuracy.hpp, src/ref) stays inside a user-specified budget. Knob paths are restricted to
/// model-invariant settings (solver.* plus multiplier.table_segments):
/// they change how the trajectory is computed, never the circuit being
/// solved, so a single extended-precision oracle run of the base spec is
/// the yardstick for every candidate.
///
/// Candidates are ranked by a deterministic work proxy over SolverStats
/// (steps + algebraic solves + weighted Newton/assembly/factorisation
/// counts — see autotune.cpp), never by wall clock, so the same spec
/// always selects the same configuration and the result JSON is
/// byte-reproducible. AutotuneSpec rides the io::AnySpec union
/// ("type": "autotune"), the `ehsim autotune` CLI verb and the serve
/// daemon's "autotune" request.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "experiments/accuracy.hpp"
#include "experiments/scenarios.hpp"

namespace ehsim::experiments {

/// One tunable knob: a spec path and the explicit ladder of candidate
/// values the search may pick from. Discrete ladders (not continuous
/// ranges) because the interesting knobs are quantised — table segment
/// counts, step caps in decade steps — and because OptimiseSpec already
/// rejects integer paths for golden-section search; the autotuner instead
/// walks ladder *indices*, where rounding is exact.
struct AutotuneKnob {
  std::string path;  ///< "solver.*" (see io::spec_field_paths) or "multiplier.table_segments"
  std::vector<double> values{};

  [[nodiscard]] bool operator==(const AutotuneKnob&) const = default;
};

struct AutotuneSpec {
  std::string name = "autotune";
  /// The experiment whose solver configuration is being tuned. Must run the
  /// proposed engine — the NR baselines ignore the solver block, so there
  /// would be nothing to tune.
  ExperimentSpec base{};
  std::vector<AutotuneKnob> knobs{};
  /// Feasibility bound on ErrorMetrics::combined() (worst of Vc-trace,
  /// final-Vc and energy relative error vs the oracle).
  double error_budget = 1e-3;
  /// Oracle step [s]; <= 0 uses the ref::ReferenceConfig default.
  double oracle_step = 0.0;
  /// Fast-path evaluation budget of the coordinate descent.
  std::size_t max_evaluations = 60;

  /// Throws ModelError naming the offending field.
  void validate() const;

  [[nodiscard]] bool operator==(const AutotuneSpec&) const = default;
};

/// One fast-path evaluation of the search, in evaluation order.
struct AutotuneEvaluation {
  std::vector<double> values{};  ///< knob values, AutotuneSpec::knobs order
  double cost = 0.0;             ///< deterministic work proxy
  double error = 0.0;            ///< ErrorMetrics::combined() vs the oracle
  bool feasible = false;         ///< error <= error_budget

  [[nodiscard]] bool operator==(const AutotuneEvaluation&) const = default;
};

/// The deterministic record of one autotune run. Deliberately excludes
/// every wall-clock quantity: same spec, same result JSON, byte for byte.
struct AutotuneResult {
  std::string name;
  double error_budget = 0.0;
  double oracle_step = 0.0;  ///< fixed step the oracle actually used [s]
  std::uint64_t oracle_steps = 0;
  std::vector<std::string> paths{};  ///< knob paths, spec order

  /// The base spec evaluated as-is.
  double baseline_cost = 0.0;
  double baseline_error = 0.0;

  std::vector<double> chosen_values{};  ///< knob values, spec order
  double chosen_cost = 0.0;
  double chosen_error = 0.0;
  /// chosen_cost / baseline_cost — < 1 means the tuned configuration does
  /// measurably less work than the defaults inside the budget.
  double cost_ratio = 0.0;
  /// A within-budget configuration was found. When false, chosen_* is the
  /// minimum-error configuration instead (diagnostic, not a tuning).
  bool feasible = false;

  std::uint64_t evaluations = 0;  ///< distinct fast-path runs
  std::uint64_t sweeps = 0;       ///< coordinate-descent sweeps completed
  std::vector<AutotuneEvaluation> log{};  ///< evaluation order

  [[nodiscard]] bool operator==(const AutotuneResult&) const = default;
};

/// run_autotune's full product: the deterministic result plus the re-run of
/// the chosen configuration (traces/probes/cpu_seconds — the part that is
/// *not* byte-reproducible and therefore lives outside AutotuneResult).
struct AutotuneOutcome {
  AutotuneResult result;
  ExperimentSpec chosen_spec;  ///< base with chosen_values applied
  ScenarioResult best_run;
};

/// Run the search: one oracle run of the base, then memoised
/// coordinate-descent over the knob-ladder indices. Throws ModelError for an
/// invalid spec.
[[nodiscard]] AutotuneOutcome run_autotune(const AutotuneSpec& spec);

}  // namespace ehsim::experiments
