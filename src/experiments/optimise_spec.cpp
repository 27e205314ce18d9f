#include "experiments/optimise_spec.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <utility>

#include "common/error.hpp"

namespace ehsim::experiments {

namespace {

/// Shortest round-trip value text (same convention as sweep job names).
std::string value_text(double value) {
  char buffer[32];
  const auto [ptr, ec] = std::to_chars(buffer, buffer + sizeof(buffer), value);
  if (ec != std::errc{}) {
    throw ModelError("optimise: value formatting failed");
  }
  return std::string(buffer, ptr);
}

const ProbeSpec& objective_probe(const OptimiseSpec& spec) {
  for (const ProbeSpec& probe : spec.base.probes) {
    if (probe.label == spec.objective) {
      return probe;
    }
  }
  throw ModelError("OptimiseSpec '" + spec.name + "': objective probe '" + spec.objective +
                   "' is not declared in base.probes");
}

/// Validate one search axis: resolvable path, sane bracket, continuous
/// variable, positive per-axis tolerance. \p where names the axis in errors
/// ("variable" for the alias, "variables[K]" for array entries).
void validate_axis(const OptimiseSpec& spec, const OptimiseVariable& axis,
                   const std::string& where) {
  if (axis.path.empty()) {
    throw ModelError("OptimiseSpec '" + spec.name + "': " + where + " path is required");
  }
  if (!(axis.upper > axis.lower)) {
    throw ModelError("OptimiseSpec '" + spec.name + "': " + where +
                     " has a degenerate bracket — require upper (" + value_text(axis.upper) +
                     ") > lower (" + value_text(axis.lower) + ")");
  }
  // Resolve the path once up front so a bad one fails before any simulation
  // runs (same eager check as sweep axes).
  ExperimentSpec scratch = spec.base;
  set_spec_value(scratch, axis.path, axis.lower);
  // Golden-section line searches are continuous: over an integer-backed path
  // they would evaluate fractional candidates that set_param silently
  // rounds, turning the objective into a step function with spurious
  // plateaus. (Spec fields are all continuous; a device-parameter variable
  // is exactly one that set_spec_value recorded as an extra override.)
  const bool is_device_param = scratch.overrides.size() > spec.base.overrides.size();
  if (is_device_param && is_integer_param(axis.path)) {
    throw ModelError("OptimiseSpec '" + spec.name + "': " + where + " '" + axis.path +
                     "' is integer-valued — golden section would evaluate fractional "
                     "values that set_param silently rounds; sweep it instead");
  }
  if (axis.x_tolerance && !(*axis.x_tolerance > 0.0)) {
    throw ModelError("OptimiseSpec '" + spec.name + "': " + where +
                     " x_tolerance must be positive");
  }
}

}  // namespace

std::vector<OptimiseVariable> optimise_axes(const OptimiseSpec& spec) {
  if (!spec.variables.empty()) {
    return spec.variables;
  }
  return {OptimiseVariable{spec.variable, spec.lower, spec.upper, std::nullopt}};
}

void OptimiseSpec::validate() const {
  if (name.empty()) {
    throw ModelError("OptimiseSpec: name must not be empty");
  }
  base.validate();
  if (!variables.empty() && !variable.empty()) {
    throw ModelError("OptimiseSpec '" + name +
                     "': use either the single-variable fields (variable/lower/upper) or "
                     "the variables array, not both");
  }
  if (variables.empty()) {
    validate_axis(*this, OptimiseVariable{variable, lower, upper, std::nullopt}, "variable");
  } else {
    for (std::size_t i = 0; i < variables.size(); ++i) {
      const std::string where = "variables[" + std::to_string(i) + "]";
      validate_axis(*this, variables[i], where);
      for (std::size_t j = 0; j < i; ++j) {
        if (variables[j].path == variables[i].path) {
          throw ModelError("OptimiseSpec '" + name + "': " + where + " path '" +
                           variables[i].path + "' duplicates variables[" +
                           std::to_string(j) + "]");
        }
      }
    }
  }
  if (objective.empty()) {
    throw ModelError("OptimiseSpec '" + name + "': objective probe label is required");
  }
  const ProbeSpec& probe = objective_probe(*this);
  const auto statistics = probe_statistic_ids();
  if (std::find(statistics.begin(), statistics.end(), statistic) == statistics.end()) {
    throw ModelError("OptimiseSpec '" + name + "': unknown statistic '" + statistic +
                     "' (final | min | max | mean | rms | duty_cycle | crossings)");
  }
  if ((statistic == "duty_cycle" || statistic == "crossings") && !probe.threshold) {
    throw ModelError("OptimiseSpec '" + name + "': statistic '" + statistic +
                     "' requires a threshold on probe '" + objective + "'");
  }
  if (max_evaluations < 2) {
    throw ModelError("OptimiseSpec '" + name +
                     "': max_evaluations must be >= 2 (the bracket needs two interior "
                     "points)");
  }
  if (variables.size() > 1 && max_evaluations < 5) {
    throw ModelError("OptimiseSpec '" + name +
                     "': multi-variable searches need max_evaluations >= 5 (the start "
                     "point plus a meaningful first line search)");
  }
  if (!(x_tolerance > 0.0)) {
    throw ModelError("OptimiseSpec '" + name + "': x_tolerance must be positive");
  }
}

ExperimentSpec optimise_candidate(const OptimiseSpec& spec, double x) {
  const std::vector<OptimiseVariable> axes = optimise_axes(spec);
  if (axes.size() != 1) {
    throw ModelError("OptimiseSpec '" + spec.name +
                     "': scalar candidate requested for a multi-variable spec");
  }
  ExperimentSpec candidate = spec.base;
  set_spec_value(candidate, axes.front().path, x);
  candidate.name = spec.base.name + "/" + axes.front().path + "=" + value_text(x);
  return candidate;
}

ExperimentSpec optimise_candidate(const OptimiseSpec& spec, const std::vector<double>& xs) {
  const std::vector<OptimiseVariable> axes = optimise_axes(spec);
  if (xs.size() != axes.size()) {
    throw ModelError("OptimiseSpec '" + spec.name + "': candidate has " +
                     std::to_string(xs.size()) + " values for " +
                     std::to_string(axes.size()) + " variables");
  }
  ExperimentSpec candidate = spec.base;
  std::string suffix;
  for (std::size_t i = 0; i < axes.size(); ++i) {
    set_spec_value(candidate, axes[i].path, xs[i]);
    suffix += "/" + axes[i].path + "=" + value_text(xs[i]);
  }
  candidate.name = spec.base.name + suffix;
  return candidate;
}

std::vector<std::string> optimise_spec_keys() {
  return {"name",      "base",     "variable",   "variables",       "lower",
          "upper",     "objective", "statistic", "maximise",        "max_evaluations",
          "x_tolerance"};
}

std::vector<std::string> optimise_variable_keys() {
  return {"path", "lower", "upper", "x_tolerance"};
}

OptimiseResult run_optimise(const OptimiseSpec& spec) {
  spec.validate();

  OptimiseResult result;
  result.name = spec.name;
  result.statistic = spec.statistic;
  result.maximise = spec.maximise;

  const auto objective_of = [&spec](const ScenarioResult& run) {
    for (const ProbeResult& probe : run.probes) {
      if (probe.label == spec.objective) {
        return probe_statistic(probe, spec.statistic);
      }
    }
    return 0.0;
  };

  const std::vector<OptimiseVariable> axes = optimise_axes(spec);
  if (axes.size() == 1) {
    // Single variable (alias form or a one-element array): the original
    // golden-section driver, bit-identical to the pre-multi-variable one.
    result.variable = axes.front().path;
    const auto evaluate = [&](double x) {
      const ScenarioResult run = run_experiment(optimise_candidate(spec, x));
      const double value = objective_of(run);
      result.evaluations.push_back(OptimiseEvaluation{x, {}, 0, 0, value});
      return spec.maximise ? value : -value;
    };
    OptimiseOptions options;
    options.max_evaluations = spec.max_evaluations;
    options.x_tolerance = axes.front().x_tolerance.value_or(spec.x_tolerance);
    result.best =
        golden_section_maximise(evaluate, axes.front().lower, axes.front().upper, options);
    if (!spec.maximise) {
      result.best.value = -result.best.value;
    }
    // Re-run the winner for the full result document; the simulation is
    // deterministic, so this reproduces the search's evaluation bit for bit.
    result.best_run = run_experiment(optimise_candidate(spec, result.best.x));
    return result;
  }

  // Multi-variable: cyclic coordinate descent — golden-section line searches
  // along each axis in turn, started at the per-axis bracket midpoints. The
  // options below are exactly what a hand-coded loop would pass, so the
  // declarative run is bit-identical to driving coordinate_descent_maximise
  // directly (pinned by the joint-tuning ctest).
  std::vector<double> lower, upper, start;
  OptimiseOptions options;
  options.max_evaluations = spec.max_evaluations;
  options.x_tolerance = spec.x_tolerance;
  for (const OptimiseVariable& axis : axes) {
    result.variables.push_back(axis.path);
    lower.push_back(axis.lower);
    upper.push_back(axis.upper);
    start.push_back(0.5 * (axis.lower + axis.upper));
    options.axis_tolerances.push_back(axis.x_tolerance.value_or(spec.x_tolerance));
  }
  // The progress hook tags every evaluation with its sweep/axis position;
  // the search itself (and hence the evaluation sequence) is unaffected.
  std::size_t current_sweep = 0;
  std::size_t current_axis = 0;
  options.on_line_search = [&current_sweep, &current_axis](std::size_t sweep,
                                                           std::size_t axis) {
    current_sweep = sweep;
    current_axis = axis;
  };
  const auto evaluate = [&](const std::vector<double>& xs) {
    const ScenarioResult run = run_experiment(optimise_candidate(spec, xs));
    const double value = objective_of(run);
    result.evaluations.push_back(
        OptimiseEvaluation{0.0, xs, current_sweep, current_axis, value});
    return spec.maximise ? value : -value;
  };
  result.best_nd = coordinate_descent_maximise(evaluate, lower, upper, std::move(start),
                                               options);
  if (!spec.maximise) {
    result.best_nd.value = -result.best_nd.value;
  }
  result.best_run = run_experiment(optimise_candidate(spec, result.best_nd.x));
  return result;
}

}  // namespace ehsim::experiments
