#include "experiments/autotune.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <map>

#include "common/error.hpp"
#include "experiments/optimise.hpp"
#include "experiments/sweep.hpp"
#include "io/spec_json.hpp"

namespace ehsim::experiments {

namespace {

/// Knob paths the autotuner may walk: the addressable solver rows plus the
/// PWL table resolution. Every entry is model-invariant: it changes how the
/// proposed engine computes the trajectory, never the circuit, so one oracle
/// run of the base spec judges every candidate.
std::vector<std::string> tunable_paths() {
  std::vector<std::string> paths;
  for (const std::string& path : io::spec_field_paths()) {
    if (path.starts_with("solver.")) {
      paths.push_back(path);
    }
  }
  paths.emplace_back("multiplier.table_segments");
  return paths;
}

/// Deterministic work proxy ranking candidates — a fixed linear model over
/// the solver counters, never wall clock (documented in docs/accuracy.md).
/// The weights reflect relative per-operation cost in the proposed engine:
/// a step and an Eq. 4 algebraic solve are the cheap units, a Newton
/// iteration re-evaluates the model, a Jacobian build assembles it, an LU
/// factorisation dominates.
double work_proxy(const core::SolverStats& stats) {
  return static_cast<double>(stats.steps) + static_cast<double>(stats.algebraic_solves) +
         2.0 * static_cast<double>(stats.newton_iterations) +
         4.0 * static_cast<double>(stats.jacobian_builds) +
         8.0 * static_cast<double>(stats.lu_factorisations);
}

struct Evaluation {
  double cost = 0.0;
  double error = 0.0;
  bool feasible = false;
};

}  // namespace

void AutotuneSpec::validate() const {
  if (name.empty()) {
    throw ModelError("AutotuneSpec: name must not be empty");
  }
  base.validate();
  if (base.engine != EngineKind::kProposed) {
    throw ModelError("AutotuneSpec '" + name +
                     "': base must run the proposed engine — the NR baselines ignore the "
                     "solver block, so there is nothing to tune");
  }
  if (knobs.empty()) {
    throw ModelError("AutotuneSpec '" + name + "': need at least one knob");
  }
  const std::vector<std::string> tunable = tunable_paths();
  for (std::size_t i = 0; i < knobs.size(); ++i) {
    const AutotuneKnob& knob = knobs[i];
    if (std::find(tunable.begin(), tunable.end(), knob.path) == tunable.end()) {
      std::string listing;
      for (const std::string& path : tunable) {
        listing += (listing.empty() ? "" : " | ") + path;
      }
      throw ModelError("AutotuneSpec '" + name + "': knob '" + knob.path + "' is not tunable (" +
                       listing + ") — device parameters would change the true solution the "
                       "oracle measures against");
    }
    for (std::size_t j = 0; j < i; ++j) {
      if (knobs[j].path == knob.path) {
        throw ModelError("AutotuneSpec '" + name + "': duplicate knob '" + knob.path + "'");
      }
    }
    if (knob.values.empty()) {
      throw ModelError("AutotuneSpec '" + name + "': knob '" + knob.path +
                       "' has an empty value ladder");
    }
    for (std::size_t a = 0; a < knob.values.size(); ++a) {
      for (std::size_t b = 0; b < a; ++b) {
        if (knob.values[a] == knob.values[b]) {
          throw ModelError("AutotuneSpec '" + name + "': knob '" + knob.path +
                           "' repeats value " + std::to_string(knob.values[a]));
        }
      }
      // Eager validation: a bad ladder value must fail before any run does.
      ExperimentSpec scratch = base;
      set_spec_value(scratch, knob.path, knob.values[a]);
      scratch.validate();
    }
  }
  if (!(error_budget > 0.0)) {
    throw ModelError("AutotuneSpec '" + name + "': error budget must be positive");
  }
  if (oracle_step < 0.0) {
    throw ModelError("AutotuneSpec '" + name + "': oracle step must be >= 0");
  }
  if (max_evaluations == 0) {
    throw ModelError("AutotuneSpec '" + name + "': evaluation budget must be positive");
  }
}

AutotuneOutcome run_autotune(const AutotuneSpec& spec) {
  spec.validate();

  // One oracle run of the base: every candidate changes only how the
  // trajectory is computed, so this is the yardstick for all of them.
  ExperimentSpec oracle_spec = spec.base;
  oracle_spec.engine = EngineKind::kReference;
  oracle_spec.solver.fixed_step = spec.oracle_step > 0.0 ? spec.oracle_step : 0.0;
  const ScenarioResult oracle = run_experiment(oracle_spec);

  AutotuneOutcome outcome;
  AutotuneResult& result = outcome.result;
  result.name = spec.name;
  result.error_budget = spec.error_budget;
  result.oracle_step = oracle.stats.max_step;
  result.oracle_steps = oracle.stats.steps;
  for (const AutotuneKnob& knob : spec.knobs) {
    result.paths.push_back(knob.path);
  }

  const auto spec_for = [&spec](const std::vector<double>& values) {
    ExperimentSpec candidate = spec.base;
    for (std::size_t i = 0; i < spec.knobs.size(); ++i) {
      set_spec_value(candidate, spec.knobs[i].path, values[i]);
    }
    return candidate;
  };

  const auto evaluate = [&](const std::vector<double>& values) {
    const ExperimentSpec candidate = spec_for(values);
    const ScenarioResult run = run_experiment(candidate);
    Evaluation eval;
    eval.cost = work_proxy(run.stats);
    eval.error = measure_errors(oracle, run, candidate.power_bin_width).combined();
    eval.feasible = eval.error <= spec.error_budget;
    AutotuneEvaluation entry;
    entry.values = values;
    entry.cost = eval.cost;
    entry.error = eval.error;
    entry.feasible = eval.feasible;
    result.log.push_back(std::move(entry));
    ++result.evaluations;
    return eval;
  };

  // Baseline: the base spec exactly as declared. The cost_ratio is measured
  // against this.
  std::vector<double> base_values;
  for (const AutotuneKnob& knob : spec.knobs) {
    base_values.push_back(get_spec_value(spec.base, knob.path));
  }
  const Evaluation baseline = evaluate(base_values);
  result.baseline_cost = baseline.cost;
  result.baseline_error = baseline.error;

  // Search axes: one continuous [0, n-1] index axis per multi-value knob
  // (single-value knobs are forced overrides). Golden-section probes
  // fractional indices; rounding + memoisation turn the line search into a
  // ladder walk.
  struct Axis {
    std::size_t knob = 0;      ///< index into spec.knobs
    std::size_t size = 0;      ///< ladder length
    std::size_t start = 0;     ///< start index
  };
  std::vector<Axis> axes;
  for (std::size_t i = 0; i < spec.knobs.size(); ++i) {
    const AutotuneKnob& knob = spec.knobs[i];
    if (knob.values.size() < 2) {
      continue;
    }
    Axis axis;
    axis.knob = i;
    axis.size = knob.values.size();
    // Start at the ladder value closest to the base configuration.
    const double current = get_spec_value(spec.base, knob.path);
    double best_distance = std::abs(knob.values[0] - current);
    for (std::size_t v = 1; v < knob.values.size(); ++v) {
      const double distance = std::abs(knob.values[v] - current);
      if (distance < best_distance) {
        best_distance = distance;
        axis.start = v;
      }
    }
    axes.push_back(axis);
  }

  const auto values_for = [&](const std::vector<std::size_t>& indices) {
    std::vector<double> values = base_values;
    // Single-value knobs are forced overrides — always applied.
    for (std::size_t i = 0; i < spec.knobs.size(); ++i) {
      if (spec.knobs[i].values.size() == 1) {
        values[i] = spec.knobs[i].values.front();
      }
    }
    for (std::size_t a = 0; a < axes.size(); ++a) {
      values[axes[a].knob] = spec.knobs[axes[a].knob].values[indices[a]];
    }
    return values;
  };

  std::map<std::vector<std::size_t>, Evaluation> memo;
  std::vector<std::size_t> best_key;
  bool have_best = false;
  bool have_feasible = false;
  const auto consider = [&](const std::vector<std::size_t>& key, const Evaluation& eval) {
    if (memo.find(key) != memo.end()) {
      return;
    }
    memo.emplace(key, eval);
    const bool better =
        !have_best ||
        (eval.feasible && !have_feasible) ||
        (eval.feasible == have_feasible &&
         (eval.feasible ? eval.cost < memo.at(best_key).cost
                        : eval.error < memo.at(best_key).error));
    if (better) {
      best_key = key;
      have_best = true;
      have_feasible = have_feasible || eval.feasible;
    }
  };

  // Seed the memo with the baseline when it lies on the search grid.
  {
    std::vector<std::size_t> start_key;
    for (const Axis& axis : axes) {
      start_key.push_back(axis.start);
    }
    if (values_for(start_key) == base_values) {
      consider(start_key, baseline);
    } else if (axes.empty()) {
      // No search axes, but forced single-value knobs move the config off
      // the baseline: evaluate that one candidate so it can be chosen.
      consider(start_key, evaluate(values_for(start_key)));
    }
  }

  std::size_t sweeps = 0;
  if (!axes.empty()) {
    std::vector<double> lower(axes.size(), 0.0);
    std::vector<double> upper;
    std::vector<double> start;
    OptimiseOptions descent;
    descent.max_evaluations = spec.max_evaluations;
    for (const Axis& axis : axes) {
      upper.push_back(static_cast<double>(axis.size - 1));
      start.push_back(static_cast<double>(axis.start));
      // Absolute resolution of ~half an index: adjacent ladder entries stay
      // distinguishable, sub-index movement counts as converged.
      descent.axis_tolerances.push_back(0.49 / static_cast<double>(axis.size - 1));
    }
    const ObjectiveND objective = [&](const std::vector<double>& x) {
      std::vector<std::size_t> key;
      key.reserve(axes.size());
      for (std::size_t a = 0; a < axes.size(); ++a) {
        const double rounded = std::round(std::clamp(x[a], 0.0, upper[a]));
        key.push_back(static_cast<std::size_t>(rounded));
      }
      const auto hit = memo.find(key);
      const Evaluation eval =
          hit != memo.end() ? hit->second : evaluate(values_for(key));
      consider(key, eval);
      // Infeasible candidates rank strictly below every feasible one, and
      // among themselves by distance to the budget — so the descent walks
      // out of an infeasible region instead of stalling in it.
      return eval.feasible ? -eval.cost
                           : -(eval.cost + 1e15 * (1.0 + eval.error / spec.error_budget));
    };
    const OptimumND optimum = coordinate_descent_maximise(objective, lower, upper, start, descent);
    sweeps = optimum.sweeps;
  }
  result.sweeps = sweeps;

  // Chosen configuration: cheapest feasible point seen, else (diagnostic)
  // the minimum-error point; with no search axes, the baseline itself.
  std::vector<double> chosen_values = base_values;
  Evaluation chosen = baseline;
  if (have_best) {
    chosen_values = values_for(best_key);
    chosen = memo.at(best_key);
  }
  // The baseline competes even when it lies off the search grid: the tuner
  // must never return a configuration worse than the one it started from.
  const bool baseline_wins =
      !have_best ||
      (baseline.feasible && (!chosen.feasible || baseline.cost < chosen.cost)) ||
      (!baseline.feasible && !chosen.feasible && baseline.error < chosen.error);
  if (baseline_wins) {
    chosen_values = base_values;
    chosen = baseline;
  }
  have_feasible = have_feasible || baseline.feasible;
  result.chosen_values = chosen_values;
  result.chosen_cost = chosen.cost;
  result.chosen_error = chosen.error;
  result.cost_ratio = baseline.cost > 0.0 ? chosen.cost / baseline.cost : 0.0;
  result.feasible = have_feasible;

  outcome.chosen_spec = spec_for(chosen_values);
  outcome.best_run = run_experiment(outcome.chosen_spec);
  return outcome;
}

}  // namespace ehsim::experiments
