#include "io/spec_json.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/error.hpp"

namespace ehsim::io {

namespace {

using experiments::AccuracyReport;
using experiments::AutotuneEvaluation;
using experiments::AutotuneKnob;
using experiments::AutotuneResult;
using experiments::AutotuneSpec;
using experiments::EnsembleProbeStats;
using experiments::EnsembleResult;
using experiments::EnsembleSpec;
using experiments::EnsembleStat;
using experiments::ErrorMetrics;
using experiments::JobAccuracy;
using experiments::KernelAccuracy;
using experiments::ProbeAccuracy;
using experiments::ExcitationEvent;
using experiments::ExcitationSchedule;
using experiments::ExperimentSpec;
using experiments::OptimiseEvaluation;
using experiments::OptimiseResult;
using experiments::OptimiseSpec;
using experiments::OptimiseVariable;
using experiments::ParamOverride;
using experiments::ProbeResult;
using experiments::ProbeSpec;
using experiments::RandomWalkParams;
using experiments::ScenarioResult;
using experiments::SweepAxis;
using experiments::SweepSpec;

/// Strict-parse helper: reject keys outside the allowed set so typos fail
/// loudly.
void check_keys(const JsonValue& json, std::initializer_list<std::string_view> allowed,
                const char* where) {
  for (const auto& [key, value] : json.as_object()) {
    bool known = false;
    for (const std::string_view candidate : allowed) {
      if (key == candidate) {
        known = true;
        break;
      }
    }
    if (!known) {
      throw ModelError(std::string(where) + ": unknown key '" + key + "'");
    }
  }
}

double number_or(const JsonValue& json, std::string_view key, double fallback) {
  const JsonValue* value = json.find(key);
  return value != nullptr ? value->as_number() : fallback;
}

bool bool_or(const JsonValue& json, std::string_view key, bool fallback) {
  const JsonValue* value = json.find(key);
  return value != nullptr ? value->as_bool() : fallback;
}

const char* event_kind_id(ExcitationEvent::Kind kind) {
  switch (kind) {
    case ExcitationEvent::Kind::kFrequencyStep:
      return "frequency_step";
    case ExcitationEvent::Kind::kFrequencyRamp:
      return "frequency_ramp";
    case ExcitationEvent::Kind::kAmplitudeStep:
      return "amplitude_step";
    case ExcitationEvent::Kind::kRandomWalk:
      return "random_walk";
  }
  return "?";
}

ExcitationEvent::Kind event_kind_from(const std::string& id) {
  for (const auto kind :
       {ExcitationEvent::Kind::kFrequencyStep, ExcitationEvent::Kind::kFrequencyRamp,
        ExcitationEvent::Kind::kAmplitudeStep, ExcitationEvent::Kind::kRandomWalk}) {
    if (id == event_kind_id(kind)) {
      return kind;
    }
  }
  throw ModelError("excitation event: unknown kind '" + id +
                   "' (expected frequency_step | frequency_ramp | amplitude_step | "
                   "random_walk)");
}

/// uint64 seeds may exceed the exactly-representable double range; such
/// seeds serialise as decimal strings, everything else as plain numbers.
JsonValue seed_to_json(std::uint64_t seed) {
  const auto as_double = static_cast<double>(seed);
  if (as_double < 0x1p64 && static_cast<std::uint64_t>(as_double) == seed) {
    return JsonValue(as_double);
  }
  return JsonValue(std::to_string(seed));
}

std::uint64_t seed_from_json(const JsonValue& json) {
  if (json.is_number()) {
    const double value = json.as_number();
    if (value < 0.0 || value != std::floor(value)) {
      throw ModelError("random_walk seed must be a non-negative integer");
    }
    return static_cast<std::uint64_t>(value);
  }
  const std::string& text = json.as_string();
  std::uint64_t seed = 0;
  const auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(), seed);
  if (ec != std::errc{} || ptr != text.data() + text.size()) {
    throw ModelError("random_walk seed string '" + text + "' is not a decimal uint64");
  }
  return seed;
}

/// Solver block: only the fields that differ from the defaults are
/// emitted (in declaration order), so pre-existing specs and goldens —
/// which predate the block — round-trip byte-identically.
JsonValue solver_to_json(const core::SolverConfig& solver) {
  const core::SolverConfig defaults;
  JsonValue json = JsonValue::make_object();
  if (solver.max_ab_order != defaults.max_ab_order) {
    json.set("max_ab_order", static_cast<double>(solver.max_ab_order));
  }
  if (solver.h_min != defaults.h_min) {
    json.set("h_min", solver.h_min);
  }
  if (solver.h_max != defaults.h_max) {
    json.set("h_max", solver.h_max);
  }
  if (solver.h_initial != defaults.h_initial) {
    json.set("h_initial", solver.h_initial);
  }
  if (solver.stability_safety != defaults.stability_safety) {
    json.set("stability_safety", solver.stability_safety);
  }
  if (solver.stability_check_interval != defaults.stability_check_interval) {
    json.set("stability_check_interval",
             static_cast<double>(solver.stability_check_interval));
  }
  if (solver.stability_drift_threshold != defaults.stability_drift_threshold) {
    json.set("stability_drift_threshold", solver.stability_drift_threshold);
  }
  if (solver.enable_stability_cap != defaults.enable_stability_cap) {
    json.set("enable_stability_cap", solver.enable_stability_cap);
  }
  if (solver.lle_tolerance != defaults.lle_tolerance) {
    json.set("lle_tolerance", solver.lle_tolerance);
  }
  if (solver.enable_lle_control != defaults.enable_lle_control) {
    json.set("enable_lle_control", solver.enable_lle_control);
  }
  if (solver.fixed_step != defaults.fixed_step) {
    json.set("fixed_step", solver.fixed_step);
  }
  if (solver.enable_jacobian_reuse != defaults.enable_jacobian_reuse) {
    json.set("enable_jacobian_reuse", solver.enable_jacobian_reuse);
  }
  if (solver.max_init_iterations != defaults.max_init_iterations) {
    json.set("max_init_iterations", static_cast<double>(solver.max_init_iterations));
  }
  if (solver.init_tolerance != defaults.init_tolerance) {
    json.set("init_tolerance", solver.init_tolerance);
  }
  return json;
}

core::SolverConfig solver_from_json(const JsonValue& json) {
  check_keys(json,
             {"max_ab_order", "h_min", "h_max", "h_initial", "stability_safety",
              "stability_check_interval", "stability_drift_threshold",
              "enable_stability_cap", "lle_tolerance", "enable_lle_control", "fixed_step",
              "enable_jacobian_reuse", "max_init_iterations", "init_tolerance"},
             "solver");
  core::SolverConfig solver;
  const auto size_or = [&json](std::string_view key, std::size_t fallback) {
    const double value = number_or(json, key, static_cast<double>(fallback));
    if (value < 0.0 || value != std::floor(value)) {
      throw ModelError("solver: '" + std::string(key) + "' must be a non-negative integer");
    }
    return static_cast<std::size_t>(value);
  };
  solver.max_ab_order = size_or("max_ab_order", solver.max_ab_order);
  solver.h_min = number_or(json, "h_min", solver.h_min);
  solver.h_max = number_or(json, "h_max", solver.h_max);
  solver.h_initial = number_or(json, "h_initial", solver.h_initial);
  solver.stability_safety = number_or(json, "stability_safety", solver.stability_safety);
  solver.stability_check_interval =
      size_or("stability_check_interval", solver.stability_check_interval);
  solver.stability_drift_threshold =
      number_or(json, "stability_drift_threshold", solver.stability_drift_threshold);
  solver.enable_stability_cap =
      bool_or(json, "enable_stability_cap", solver.enable_stability_cap);
  solver.lle_tolerance = number_or(json, "lle_tolerance", solver.lle_tolerance);
  solver.enable_lle_control = bool_or(json, "enable_lle_control", solver.enable_lle_control);
  solver.fixed_step = number_or(json, "fixed_step", solver.fixed_step);
  solver.enable_jacobian_reuse =
      bool_or(json, "enable_jacobian_reuse", solver.enable_jacobian_reuse);
  solver.max_init_iterations = size_or("max_init_iterations", solver.max_init_iterations);
  solver.init_tolerance = number_or(json, "init_tolerance", solver.init_tolerance);
  return solver;
}

JsonValue event_to_json(const ExcitationEvent& event) {
  JsonValue json = JsonValue::make_object();
  json.set("kind", event_kind_id(event.kind));
  json.set("time", event.time);
  switch (event.kind) {
    case ExcitationEvent::Kind::kFrequencyStep:
      json.set("frequency_hz", event.frequency_hz);
      break;
    case ExcitationEvent::Kind::kFrequencyRamp:
      json.set("duration", event.duration);
      json.set("frequency_hz", event.frequency_hz);
      break;
    case ExcitationEvent::Kind::kAmplitudeStep:
      json.set("amplitude", event.amplitude);
      break;
    case ExcitationEvent::Kind::kRandomWalk: {
      const RandomWalkParams& walk = event.walk;
      json.set("duration", event.duration);
      json.set("step_interval", walk.step_interval);
      json.set("frequency_sigma", walk.frequency_sigma);
      json.set("amplitude_sigma", walk.amplitude_sigma);
      json.set("seed", seed_to_json(walk.seed));
      json.set("min_frequency_hz", walk.min_frequency_hz);
      json.set("max_frequency_hz", walk.max_frequency_hz);
      json.set("min_amplitude", walk.min_amplitude);
      break;
    }
  }
  return json;
}

ExcitationEvent event_from_json(const JsonValue& json) {
  ExcitationEvent event;
  event.kind = event_kind_from(json.at("kind").as_string());
  event.time = json.at("time").as_number();
  switch (event.kind) {
    case ExcitationEvent::Kind::kFrequencyStep:
      check_keys(json, {"kind", "time", "frequency_hz"}, "frequency_step event");
      event.frequency_hz = json.at("frequency_hz").as_number();
      break;
    case ExcitationEvent::Kind::kFrequencyRamp:
      check_keys(json, {"kind", "time", "duration", "frequency_hz"}, "frequency_ramp event");
      event.duration = json.at("duration").as_number();
      event.frequency_hz = json.at("frequency_hz").as_number();
      break;
    case ExcitationEvent::Kind::kAmplitudeStep:
      check_keys(json, {"kind", "time", "amplitude"}, "amplitude_step event");
      event.amplitude = json.at("amplitude").as_number();
      break;
    case ExcitationEvent::Kind::kRandomWalk: {
      check_keys(json,
                 {"kind", "time", "duration", "step_interval", "frequency_sigma",
                  "amplitude_sigma", "seed", "min_frequency_hz", "max_frequency_hz",
                  "min_amplitude"},
                 "random_walk event");
      RandomWalkParams walk;
      event.duration = json.at("duration").as_number();
      walk.step_interval = number_or(json, "step_interval", walk.step_interval);
      walk.frequency_sigma = number_or(json, "frequency_sigma", walk.frequency_sigma);
      walk.amplitude_sigma = number_or(json, "amplitude_sigma", walk.amplitude_sigma);
      if (const JsonValue* seed = json.find("seed")) {
        walk.seed = seed_from_json(*seed);
      }
      walk.min_frequency_hz = number_or(json, "min_frequency_hz", walk.min_frequency_hz);
      walk.max_frequency_hz = number_or(json, "max_frequency_hz", walk.max_frequency_hz);
      walk.min_amplitude = number_or(json, "min_amplitude", walk.min_amplitude);
      event.walk = walk;
      break;
    }
  }
  return event;
}

}  // namespace

JsonValue to_json(const ProbeSpec& probe) {
  JsonValue json = JsonValue::make_object();
  json.set("label", probe.label);
  json.set("kind", experiments::probe_kind_id(probe.kind));
  if (!probe.target.empty()) {
    json.set("target", probe.target);
  }
  if (probe.window_start != 0.0) {
    json.set("window_start", probe.window_start);
  }
  if (probe.window_end > 0.0) {
    json.set("window_end", probe.window_end);
  }
  if (probe.threshold) {
    json.set("threshold", *probe.threshold);
  }
  if (!probe.record) {
    json.set("record", false);
  }
  return json;
}

ProbeSpec probe_from_json(const JsonValue& json) {
  check_keys(json,
             {"label", "kind", "target", "window_start", "window_end", "threshold",
              "record"},
             "probe");
  ProbeSpec probe;
  probe.label = json.at("label").as_string();
  probe.kind = experiments::probe_kind_from(json.at("kind").as_string());
  if (const JsonValue* target = json.find("target")) {
    probe.target = target->as_string();
  }
  probe.window_start = number_or(json, "window_start", probe.window_start);
  probe.window_end = number_or(json, "window_end", probe.window_end);
  if (const JsonValue* threshold = json.find("threshold")) {
    probe.threshold = threshold->as_number();
  }
  probe.record = bool_or(json, "record", probe.record);
  probe.validate();
  return probe;
}

JsonValue to_json(const ExcitationSchedule& schedule) {
  JsonValue json = JsonValue::make_object();
  json.set("initial_frequency_hz", schedule.initial_frequency_hz);
  if (schedule.initial_amplitude) {
    json.set("initial_amplitude", *schedule.initial_amplitude);
  }
  JsonValue events = JsonValue::make_array();
  for (const ExcitationEvent& event : schedule.events) {
    events.push_back(event_to_json(event));
  }
  json.set("events", std::move(events));
  return json;
}

ExcitationSchedule schedule_from_json(const JsonValue& json) {
  check_keys(json, {"initial_frequency_hz", "initial_amplitude", "events"}, "excitation");
  ExcitationSchedule schedule;
  schedule.initial_frequency_hz =
      number_or(json, "initial_frequency_hz", schedule.initial_frequency_hz);
  if (const JsonValue* amplitude = json.find("initial_amplitude")) {
    schedule.initial_amplitude = amplitude->as_number();
  }
  if (const JsonValue* events = json.find("events")) {
    for (const JsonValue& event : events->as_array()) {
      schedule.events.push_back(event_from_json(event));
    }
  }
  return schedule;
}

JsonValue to_json(const ExperimentSpec& spec) {
  JsonValue json = JsonValue::make_object();
  json.set("type", "experiment");
  json.set("name", spec.name);
  json.set("duration", spec.duration);
  json.set("pre_tuned_hz", spec.pre_tuned_hz);
  json.set("with_mcu", spec.with_mcu);
  json.set("trace_interval", spec.trace_interval);
  json.set("power_bin_width", spec.power_bin_width);
  json.set("engine", experiments::engine_kind_id(spec.engine));
  if (!(spec.solver == core::SolverConfig{})) {
    json.set("solver", solver_to_json(spec.solver));
  }
  json.set("excitation", to_json(spec.excitation));
  if (!spec.overrides.empty()) {
    JsonValue overrides = JsonValue::make_array();
    for (const ParamOverride& item : spec.overrides) {
      JsonValue entry = JsonValue::make_object();
      entry.set("param", item.path);
      entry.set("value", item.value);
      overrides.push_back(std::move(entry));
    }
    json.set("overrides", std::move(overrides));
  }
  if (!spec.probes.empty()) {
    JsonValue probes = JsonValue::make_array();
    for (const ProbeSpec& probe : spec.probes) {
      probes.push_back(to_json(probe));
    }
    json.set("probes", std::move(probes));
  }
  return json;
}

ExperimentSpec experiment_from_json(const JsonValue& json) {
  check_keys(json,
             {"type", "name", "duration", "pre_tuned_hz", "with_mcu", "trace_interval",
              "power_bin_width", "engine", "solver", "excitation", "overrides", "probes"},
             "experiment spec");
  ExperimentSpec spec;
  if (const JsonValue* name = json.find("name")) {
    spec.name = name->as_string();
  }
  spec.duration = number_or(json, "duration", spec.duration);
  spec.pre_tuned_hz = number_or(json, "pre_tuned_hz", spec.pre_tuned_hz);
  spec.with_mcu = bool_or(json, "with_mcu", spec.with_mcu);
  spec.trace_interval = number_or(json, "trace_interval", spec.trace_interval);
  spec.power_bin_width = number_or(json, "power_bin_width", spec.power_bin_width);
  if (const JsonValue* engine = json.find("engine")) {
    spec.engine = experiments::parse_engine_kind(engine->as_string());
  }
  if (const JsonValue* solver = json.find("solver")) {
    spec.solver = solver_from_json(*solver);
  }
  if (const JsonValue* excitation = json.find("excitation")) {
    spec.excitation = schedule_from_json(*excitation);
  }
  if (const JsonValue* overrides = json.find("overrides")) {
    for (const JsonValue& entry : overrides->as_array()) {
      check_keys(entry, {"param", "value"}, "override");
      spec.overrides.push_back(
          ParamOverride{entry.at("param").as_string(), entry.at("value").as_number()});
    }
  }
  if (const JsonValue* probes = json.find("probes")) {
    for (const JsonValue& entry : probes->as_array()) {
      spec.probes.push_back(probe_from_json(entry));
    }
  }
  spec.validate();
  return spec;
}

JsonValue to_json(const SweepSpec& sweep) {
  JsonValue json = JsonValue::make_object();
  json.set("type", "sweep");
  JsonValue base = to_json(sweep.base);
  auto& base_members = base.as_object();
  for (auto it = base_members.begin(); it != base_members.end(); ++it) {
    if (it->first == "type") {  // redundant inside a sweep document
      base_members.erase(it);
      break;
    }
  }
  json.set("base", std::move(base));
  json.set("mode", sweep.mode == SweepSpec::Mode::kGrid ? "grid" : "zip");
  json.set("threads", static_cast<double>(sweep.threads));
  if (sweep.batch_kernel != experiments::BatchKernel::kJobs) {  // default omitted
    json.set("batch_kernel", experiments::batch_kernel_id(sweep.batch_kernel));
  }
  JsonValue axes = JsonValue::make_array();
  for (const SweepAxis& axis : sweep.axes) {
    JsonValue entry = JsonValue::make_object();
    if (axis.is_engine_axis()) {
      JsonValue engines = JsonValue::make_array();
      for (const experiments::EngineKind kind : axis.engines) {
        engines.push_back(experiments::engine_kind_id(kind));
      }
      entry.set("engines", std::move(engines));
    } else {
      entry.set("param", axis.param);
      JsonValue values = JsonValue::make_array();
      for (const double value : axis.values) {
        values.push_back(value);
      }
      entry.set("values", std::move(values));
    }
    axes.push_back(std::move(entry));
  }
  json.set("axes", std::move(axes));
  return json;
}

SweepSpec sweep_from_json(const JsonValue& json) {
  check_keys(json, {"type", "base", "mode", "threads", "batch_kernel", "axes"}, "sweep spec");
  SweepSpec sweep;
  sweep.base = experiment_from_json(json.at("base"));
  if (const JsonValue* mode = json.find("mode")) {
    const std::string& word = mode->as_string();
    if (word == "grid") {
      sweep.mode = SweepSpec::Mode::kGrid;
    } else if (word == "zip") {
      sweep.mode = SweepSpec::Mode::kZip;
    } else {
      throw ModelError("sweep mode '" + word + "' is not grid | zip");
    }
  }
  const double threads = number_or(json, "threads", 0.0);
  if (threads < 0.0 || threads != std::floor(threads)) {
    throw ModelError("sweep threads must be a non-negative integer");
  }
  sweep.threads = static_cast<std::size_t>(threads);
  if (const JsonValue* kernel = json.find("batch_kernel")) {
    sweep.batch_kernel = experiments::parse_batch_kernel(kernel->as_string());
  }
  for (const JsonValue& entry : json.at("axes").as_array()) {
    check_keys(entry, {"param", "values", "engines"}, "sweep axis");
    SweepAxis axis;
    if (const JsonValue* engines = entry.find("engines")) {
      for (const JsonValue& kind : engines->as_array()) {
        axis.engines.push_back(experiments::parse_engine_kind(kind.as_string()));
      }
    }
    if (const JsonValue* param = entry.find("param")) {
      axis.param = param->as_string();
    }
    if (const JsonValue* values = entry.find("values")) {
      for (const JsonValue& value : values->as_array()) {
        axis.values.push_back(value.as_number());
      }
    }
    sweep.axes.push_back(std::move(axis));
  }
  sweep.validate();
  return sweep;
}

JsonValue to_json(const OptimiseSpec& spec) {
  JsonValue json = JsonValue::make_object();
  json.set("type", "optimise");
  json.set("name", spec.name);
  JsonValue base = to_json(spec.base);
  auto& base_members = base.as_object();
  for (auto it = base_members.begin(); it != base_members.end(); ++it) {
    if (it->first == "type") {  // redundant inside an optimise document
      base_members.erase(it);
      break;
    }
  }
  json.set("base", std::move(base));
  if (spec.variables.empty()) {
    // Single-variable alias: the original schema, byte-identical for
    // existing specs.
    json.set("variable", spec.variable);
    json.set("lower", spec.lower);
    json.set("upper", spec.upper);
  } else {
    JsonValue variables = JsonValue::make_array();
    for (const OptimiseVariable& axis : spec.variables) {
      JsonValue entry = JsonValue::make_object();
      entry.set("path", axis.path);
      entry.set("lower", axis.lower);
      entry.set("upper", axis.upper);
      if (axis.x_tolerance) {
        entry.set("x_tolerance", *axis.x_tolerance);
      }
      variables.push_back(std::move(entry));
    }
    json.set("variables", std::move(variables));
  }
  json.set("objective", spec.objective);
  json.set("statistic", spec.statistic);
  json.set("maximise", spec.maximise);
  json.set("max_evaluations", static_cast<double>(spec.max_evaluations));
  json.set("x_tolerance", spec.x_tolerance);
  return json;
}

OptimiseSpec optimise_from_json(const JsonValue& json) {
  // The allowed keys are the schema itself (optimise_spec_keys) plus the
  // document discriminator.
  const auto allowed = experiments::optimise_spec_keys();
  for (const auto& [key, value] : json.as_object()) {
    if (key != "type" &&
        std::find(allowed.begin(), allowed.end(), key) == allowed.end()) {
      throw ModelError("optimise spec: unknown key '" + key + "'");
    }
  }
  OptimiseSpec spec;
  if (const JsonValue* name = json.find("name")) {
    spec.name = name->as_string();
  }
  spec.base = experiment_from_json(json.at("base"));
  if (const JsonValue* variables = json.find("variables")) {
    for (const char* alias : {"variable", "lower", "upper"}) {
      if (json.contains(alias)) {
        throw ModelError(std::string("optimise spec: '") + alias +
                         "' cannot be combined with the 'variables' array");
      }
    }
    const auto variable_keys = experiments::optimise_variable_keys();
    for (const JsonValue& entry : variables->as_array()) {
      for (const auto& [key, value] : entry.as_object()) {
        if (std::find(variable_keys.begin(), variable_keys.end(), key) ==
            variable_keys.end()) {
          throw ModelError("optimise variable: unknown key '" + key + "'");
        }
      }
      OptimiseVariable axis;
      axis.path = entry.at("path").as_string();
      axis.lower = entry.at("lower").as_number();
      axis.upper = entry.at("upper").as_number();
      if (const JsonValue* tolerance = entry.find("x_tolerance")) {
        axis.x_tolerance = tolerance->as_number();
      }
      spec.variables.push_back(std::move(axis));
    }
    if (spec.variables.empty()) {
      throw ModelError("optimise spec: 'variables' must not be empty");
    }
  } else {
    spec.variable = json.at("variable").as_string();
    spec.lower = json.at("lower").as_number();
    spec.upper = json.at("upper").as_number();
  }
  spec.objective = json.at("objective").as_string();
  if (const JsonValue* statistic = json.find("statistic")) {
    spec.statistic = statistic->as_string();
  }
  spec.maximise = bool_or(json, "maximise", spec.maximise);
  const double budget = number_or(json, "max_evaluations",
                                  static_cast<double>(spec.max_evaluations));
  if (budget < 0.0 || budget != std::floor(budget)) {
    throw ModelError("optimise max_evaluations must be a non-negative integer");
  }
  spec.max_evaluations = static_cast<std::size_t>(budget);
  spec.x_tolerance = number_or(json, "x_tolerance", spec.x_tolerance);
  spec.validate();
  return spec;
}

JsonValue to_json(const EnsembleSpec& spec) {
  JsonValue json = JsonValue::make_object();
  json.set("type", "ensemble");
  JsonValue base = to_json(spec.base);
  auto& base_members = base.as_object();
  for (auto it = base_members.begin(); it != base_members.end(); ++it) {
    if (it->first == "type") {  // redundant inside an ensemble document
      base_members.erase(it);
      break;
    }
  }
  json.set("base", std::move(base));
  if (!spec.seeds.empty()) {
    JsonValue seeds = JsonValue::make_array();
    for (const std::uint64_t seed : spec.seeds) {
      seeds.push_back(static_cast<double>(seed));
    }
    json.set("seeds", std::move(seeds));
  } else {
    json.set("num_seeds", static_cast<double>(spec.num_seeds));
  }
  json.set("threads", static_cast<double>(spec.threads));
  if (spec.batch_kernel != experiments::BatchKernel::kJobs) {
    json.set("batch_kernel", experiments::batch_kernel_id(spec.batch_kernel));
  }
  return json;
}

EnsembleSpec ensemble_from_json(const JsonValue& json) {
  check_keys(json,
             {"type", "base", "seeds", "num_seeds", "threads", "batch_kernel"},
             "ensemble spec");
  EnsembleSpec spec;
  spec.base = experiment_from_json(json.at("base"));
  if (const JsonValue* seeds = json.find("seeds")) {
    for (const JsonValue& seed : seeds->as_array()) {
      const double value = seed.as_number();
      if (!(value >= 0.0) || value != std::floor(value) || value > 9.007199254740992e15) {
        throw ModelError("ensemble seeds must be non-negative integers");
      }
      spec.seeds.push_back(static_cast<std::uint64_t>(value));
    }
  }
  const double count = number_or(json, "num_seeds", 0.0);
  if (count < 0.0 || count != std::floor(count)) {
    throw ModelError("ensemble num_seeds must be a non-negative integer");
  }
  spec.num_seeds = static_cast<std::size_t>(count);
  const double threads = number_or(json, "threads", 0.0);
  if (threads < 0.0 || threads != std::floor(threads)) {
    throw ModelError("ensemble threads must be a non-negative integer");
  }
  spec.threads = static_cast<std::size_t>(threads);
  if (const JsonValue* kernel = json.find("batch_kernel")) {
    spec.batch_kernel = experiments::parse_batch_kernel(kernel->as_string());
  }
  spec.validate();
  return spec;
}

JsonValue to_json(const AutotuneSpec& spec) {
  JsonValue json = JsonValue::make_object();
  json.set("type", "autotune");
  json.set("name", spec.name);
  JsonValue base = to_json(spec.base);
  auto& base_members = base.as_object();
  for (auto it = base_members.begin(); it != base_members.end(); ++it) {
    if (it->first == "type") {  // redundant inside an autotune document
      base_members.erase(it);
      break;
    }
  }
  json.set("base", std::move(base));
  JsonValue knobs = JsonValue::make_array();
  for (const AutotuneKnob& knob : spec.knobs) {
    JsonValue entry = JsonValue::make_object();
    entry.set("param", knob.path);
    JsonValue values = JsonValue::make_array();
    for (const double value : knob.values) {
      values.push_back(value);
    }
    entry.set("values", std::move(values));
    knobs.push_back(std::move(entry));
  }
  json.set("knobs", std::move(knobs));
  if (!spec.kernels.empty()) {
    JsonValue kernels = JsonValue::make_array();
    for (const experiments::BatchKernel kernel : spec.kernels) {
      kernels.push_back(experiments::batch_kernel_id(kernel));
    }
    json.set("kernels", std::move(kernels));
  }
  json.set("error_budget", spec.error_budget);
  if (spec.oracle_step > 0.0) {
    json.set("oracle_step", spec.oracle_step);
  }
  json.set("max_evaluations", static_cast<double>(spec.max_evaluations));
  return json;
}

AutotuneSpec autotune_from_json(const JsonValue& json) {
  check_keys(json,
             {"type", "name", "base", "knobs", "kernels", "error_budget", "oracle_step",
              "max_evaluations"},
             "autotune spec");
  AutotuneSpec spec;
  if (const JsonValue* name = json.find("name")) {
    spec.name = name->as_string();
  }
  spec.base = experiment_from_json(json.at("base"));
  for (const JsonValue& entry : json.at("knobs").as_array()) {
    check_keys(entry, {"param", "values"}, "autotune knob");
    AutotuneKnob knob;
    knob.path = entry.at("param").as_string();
    for (const JsonValue& value : entry.at("values").as_array()) {
      knob.values.push_back(value.as_number());
    }
    spec.knobs.push_back(std::move(knob));
  }
  if (const JsonValue* kernels = json.find("kernels")) {
    for (const JsonValue& kernel : kernels->as_array()) {
      spec.kernels.push_back(experiments::parse_batch_kernel(kernel.as_string()));
    }
  }
  spec.error_budget = number_or(json, "error_budget", spec.error_budget);
  spec.oracle_step = number_or(json, "oracle_step", spec.oracle_step);
  const double budget =
      number_or(json, "max_evaluations", static_cast<double>(spec.max_evaluations));
  if (budget < 0.0 || budget != std::floor(budget)) {
    throw ModelError("autotune max_evaluations must be a non-negative integer");
  }
  spec.max_evaluations = static_cast<std::size_t>(budget);
  spec.validate();
  return spec;
}

AnySpec spec_from_json(const JsonValue& json) {
  const std::string& type = json.at("type").as_string();
  if (type == "experiment") {
    return AnySpec(experiment_from_json(json));
  }
  if (type == "sweep") {
    return AnySpec(sweep_from_json(json));
  }
  if (type == "optimise") {
    return AnySpec(optimise_from_json(json));
  }
  if (type == "ensemble") {
    return AnySpec(ensemble_from_json(json));
  }
  if (type == "autotune") {
    return AnySpec(autotune_from_json(json));
  }
  throw ModelError("spec type '" + type +
                   "' is not experiment | sweep | optimise | ensemble | autotune");
}

AnySpec load_spec_file(const std::string& path) {
  return spec_from_json(JsonValue::parse(read_file(path)));
}

JsonValue to_json(const ScenarioResult& result) {
  JsonValue json = JsonValue::make_object();
  json.set("scenario", result.scenario);
  json.set("engine", result.engine);
  json.set("sim_seconds", result.sim_seconds);
  json.set("cpu_seconds", result.cpu_seconds);
  json.set("shared_diode_table", result.shared_diode_table);

  JsonValue stats = JsonValue::make_object();
  stats.set("steps", result.stats.steps);
  stats.set("jacobian_builds", result.stats.jacobian_builds);
  stats.set("jacobian_reuses", result.stats.jacobian_reuses);
  stats.set("algebraic_solves", result.stats.algebraic_solves);
  stats.set("newton_iterations", result.stats.newton_iterations);
  stats.set("lu_factorisations", result.stats.lu_factorisations);
  stats.set("stability_recomputes", result.stats.stability_recomputes);
  stats.set("history_resets", result.stats.history_resets);
  stats.set("step_rejections", result.stats.step_rejections);
  stats.set("min_step", result.stats.min_step);
  stats.set("max_step", result.stats.max_step);
  json.set("stats", std::move(stats));

  // Lockstep batches record their kernel and batch-wide sharing counters;
  // plain per-job batches omit the block so their documents stay
  // byte-identical to the pre-lockstep output.
  if (result.batch_kernel != experiments::BatchKernel::kJobs) {
    JsonValue batch = JsonValue::make_object();
    batch.set("kernel", experiments::batch_kernel_id(result.batch_kernel));
    batch.set("lockstep_groups", result.lockstep_groups);
    batch.set("shared_factorisations", result.shared_factorisations);
    json.set("batch", std::move(batch));
  }

  // Measured quantities are null-encoded when non-finite: a pathological
  // run (diverged probe expression, empty reduction) must still produce a
  // parseable result document instead of crashing the writer after the
  // simulation already ran.
  json.set("final_vc", JsonValue::finite_or_null(result.final_vc));
  json.set("final_resonance_hz", JsonValue::finite_or_null(result.final_resonance_hz));
  json.set("rms_power_before", JsonValue::finite_or_null(result.rms_power_before));
  json.set("rms_power_after", JsonValue::finite_or_null(result.rms_power_after));

  if (!result.probes.empty()) {
    JsonValue probes = JsonValue::make_array();
    for (const ProbeResult& probe : result.probes) {
      JsonValue entry = JsonValue::make_object();
      entry.set("label", probe.label);
      entry.set("samples", static_cast<double>(probe.samples));
      entry.set("covered_time", JsonValue::finite_or_null(probe.covered_time));
      entry.set("final", JsonValue::finite_or_null(probe.final_value));
      entry.set("min", JsonValue::finite_or_null(probe.minimum));
      entry.set("max", JsonValue::finite_or_null(probe.maximum));
      entry.set("mean", JsonValue::finite_or_null(probe.mean));
      entry.set("rms", JsonValue::finite_or_null(probe.rms));
      if (probe.duty_cycle) {
        entry.set("duty_cycle", JsonValue::finite_or_null(*probe.duty_cycle));
      }
      if (probe.crossings) {
        entry.set("crossings", static_cast<double>(*probe.crossings));
      }
      probes.push_back(std::move(entry));
    }
    json.set("probes", std::move(probes));
  }

  JsonValue events = JsonValue::make_array();
  for (const harvester::McuEvent& event : result.mcu_events) {
    JsonValue entry = JsonValue::make_object();
    const char* type = "?";
    switch (event.type) {
      case harvester::McuEvent::Type::kWakeup:
        type = "wakeup";
        break;
      case harvester::McuEvent::Type::kEnergyLow:
        type = "energy_low";
        break;
      case harvester::McuEvent::Type::kFrequencyMatched:
        type = "frequency_matched";
        break;
      case harvester::McuEvent::Type::kTuningStarted:
        type = "tuning_started";
        break;
      case harvester::McuEvent::Type::kTuningCompleted:
        type = "tuning_completed";
        break;
      case harvester::McuEvent::Type::kTuningAborted:
        type = "tuning_aborted";
        break;
    }
    entry.set("time", event.time);
    entry.set("type", type);
    entry.set("value", JsonValue::finite_or_null(event.value));
    events.push_back(std::move(entry));
  }
  json.set("mcu_events", std::move(events));

  JsonValue power = JsonValue::make_object();
  JsonValue time = JsonValue::make_array();
  JsonValue mean = JsonValue::make_array();
  JsonValue rms = JsonValue::make_array();
  for (std::size_t i = 0; i < result.power_time.size(); ++i) {
    time.push_back(result.power_time[i]);
    mean.push_back(JsonValue::finite_or_null(result.power_mean[i]));
    rms.push_back(JsonValue::finite_or_null(result.power_rms[i]));
  }
  power.set("time", std::move(time));
  power.set("mean", std::move(mean));
  power.set("rms", std::move(rms));
  json.set("power_bins", std::move(power));

  json.set("trace_points", static_cast<double>(result.time.size()));
  return json;
}

JsonValue to_json(const OptimiseResult& result) {
  // Two shapes: the 1-D golden-section document (unchanged — existing
  // goldens stay byte-identical) and the multi-variable coordinate-descent
  // document ("variables" + vector "x" + sweep/axis-tagged evaluations).
  const bool multi = !result.variables.empty();
  JsonValue json = JsonValue::make_object();
  json.set("optimise", result.name);
  if (multi) {
    JsonValue variables = JsonValue::make_array();
    for (const std::string& path : result.variables) {
      variables.push_back(path);
    }
    json.set("variables", std::move(variables));
  } else {
    json.set("variable", result.variable);
  }
  json.set("statistic", result.statistic);
  json.set("maximise", result.maximise);

  JsonValue best = JsonValue::make_object();
  if (multi) {
    JsonValue x = JsonValue::make_array();
    for (const double value : result.best_nd.x) {
      x.push_back(value);
    }
    best.set("x", std::move(x));
    best.set("objective", JsonValue::finite_or_null(result.best_nd.value));
    best.set("evaluations", static_cast<double>(result.best_nd.evaluations));
    best.set("sweeps", static_cast<double>(result.best_nd.sweeps));
    JsonValue converged = JsonValue::make_array();
    for (const bool axis_converged : result.best_nd.axis_converged) {
      converged.push_back(axis_converged);
    }
    best.set("axis_converged", std::move(converged));
  } else {
    best.set("x", result.best.x);
    best.set("objective", JsonValue::finite_or_null(result.best.value));
    best.set("evaluations", static_cast<double>(result.best.evaluations));
  }
  json.set("best", std::move(best));

  JsonValue evaluations = JsonValue::make_array();
  for (const OptimiseEvaluation& evaluation : result.evaluations) {
    JsonValue entry = JsonValue::make_object();
    if (multi) {
      JsonValue xs = JsonValue::make_array();
      for (const double value : evaluation.xs) {
        xs.push_back(value);
      }
      entry.set("x", std::move(xs));
      entry.set("sweep", static_cast<double>(evaluation.sweep));
      entry.set("axis", static_cast<double>(evaluation.axis));
    } else {
      entry.set("x", evaluation.x);
    }
    entry.set("objective", JsonValue::finite_or_null(evaluation.objective));
    evaluations.push_back(std::move(entry));
  }
  json.set("evaluations", std::move(evaluations));
  json.set("best_run", to_json(result.best_run));
  return json;
}

namespace {

JsonValue to_json(const EnsembleStat& stat) {
  JsonValue json = JsonValue::make_object();
  json.set("mean", JsonValue::finite_or_null(stat.mean));
  json.set("stderr", JsonValue::finite_or_null(stat.stderr_mean));
  json.set("min", JsonValue::finite_or_null(stat.minimum));
  json.set("max", JsonValue::finite_or_null(stat.maximum));
  return json;
}

}  // namespace

JsonValue to_json(const EnsembleResult& result) {
  JsonValue json = JsonValue::make_object();
  json.set("ensemble", result.name);
  json.set("engine", result.engine);
  json.set("replicas", static_cast<double>(result.seeds.size()));
  JsonValue seeds = JsonValue::make_array();
  for (const std::uint64_t seed : result.seeds) {
    seeds.push_back(static_cast<double>(seed));
  }
  json.set("seeds", std::move(seeds));
  json.set("cpu_seconds", result.cpu_seconds);
  json.set("final_vc", to_json(result.final_vc));
  json.set("final_resonance_hz", to_json(result.final_resonance_hz));
  json.set("rms_power_before", to_json(result.rms_power_before));
  json.set("rms_power_after", to_json(result.rms_power_after));
  JsonValue probes = JsonValue::make_array();
  for (const EnsembleProbeStats& probe : result.probes) {
    JsonValue entry = JsonValue::make_object();
    entry.set("label", probe.label);
    entry.set("final", to_json(probe.final_value));
    entry.set("min", to_json(probe.minimum));
    entry.set("max", to_json(probe.maximum));
    entry.set("mean", to_json(probe.mean));
    entry.set("rms", to_json(probe.rms));
    probes.push_back(std::move(entry));
  }
  json.set("probes", std::move(probes));
  return json;
}

namespace {

JsonValue metrics_to_json(const ErrorMetrics& metrics) {
  JsonValue json = JsonValue::make_object();
  json.set("vc_max_rel_error", JsonValue::finite_or_null(metrics.vc_max_rel_error));
  json.set("vc_rms_rel_error", JsonValue::finite_or_null(metrics.vc_rms_rel_error));
  json.set("final_vc_rel_error", JsonValue::finite_or_null(metrics.final_vc_rel_error));
  json.set("energy_rel_error", JsonValue::finite_or_null(metrics.energy_rel_error));
  json.set("resonance_rel_error", JsonValue::finite_or_null(metrics.resonance_rel_error));
  return json;
}

ErrorMetrics metrics_from_json(const JsonValue& json, const char* where) {
  check_keys(json,
             {"vc_max_rel_error", "vc_rms_rel_error", "final_vc_rel_error",
              "energy_rel_error", "resonance_rel_error"},
             where);
  ErrorMetrics metrics;
  metrics.vc_max_rel_error = number_or(json, "vc_max_rel_error", 0.0);
  metrics.vc_rms_rel_error = number_or(json, "vc_rms_rel_error", 0.0);
  metrics.final_vc_rel_error = number_or(json, "final_vc_rel_error", 0.0);
  metrics.energy_rel_error = number_or(json, "energy_rel_error", 0.0);
  metrics.resonance_rel_error = number_or(json, "resonance_rel_error", 0.0);
  return metrics;
}

std::uint64_t count_from(const JsonValue& json, std::string_view key, const char* where) {
  const double value = number_or(json, key, 0.0);
  if (value < 0.0 || value != std::floor(value)) {
    throw ModelError(std::string(where) + ": '" + std::string(key) +
                     "' must be a non-negative integer");
  }
  return static_cast<std::uint64_t>(value);
}

}  // namespace

JsonValue to_json(const AccuracyReport& report) {
  JsonValue json = JsonValue::make_object();
  json.set("accuracy", report.name);
  json.set("engine", report.engine);
  JsonValue oracle = JsonValue::make_object();
  oracle.set("fixed_step", report.oracle_step);
  oracle.set("steps", report.oracle_steps);
  oracle.set("cpu_seconds", report.oracle_cpu_seconds);
  json.set("oracle", std::move(oracle));
  JsonValue kernels = JsonValue::make_array();
  for (const KernelAccuracy& row : report.kernels) {
    JsonValue entry = JsonValue::make_object();
    entry.set("kernel", row.kernel);
    entry.set("cpu_seconds", row.cpu_seconds);
    entry.set("steps", row.steps);
    entry.set("bounds", metrics_to_json(row.bounds));
    JsonValue jobs = JsonValue::make_array();
    for (const JobAccuracy& job : row.jobs) {
      JsonValue job_entry = JsonValue::make_object();
      job_entry.set("job", job.job);
      job_entry.set("errors", metrics_to_json(job.errors));
      if (!job.probes.empty()) {
        JsonValue probes = JsonValue::make_array();
        for (const ProbeAccuracy& probe : job.probes) {
          JsonValue probe_entry = JsonValue::make_object();
          probe_entry.set("label", probe.label);
          probe_entry.set("max_rel_error", JsonValue::finite_or_null(probe.max_rel_error));
          probes.push_back(std::move(probe_entry));
        }
        job_entry.set("probes", std::move(probes));
      }
      jobs.push_back(std::move(job_entry));
    }
    entry.set("jobs", std::move(jobs));
    kernels.push_back(std::move(entry));
  }
  json.set("kernels", std::move(kernels));
  return json;
}

AccuracyReport accuracy_report_from_json(const JsonValue& json) {
  check_keys(json, {"accuracy", "engine", "oracle", "kernels"}, "accuracy report");
  AccuracyReport report;
  report.name = json.at("accuracy").as_string();
  report.engine = json.at("engine").as_string();
  const JsonValue& oracle = json.at("oracle");
  check_keys(oracle, {"fixed_step", "steps", "cpu_seconds"}, "accuracy oracle");
  report.oracle_step = number_or(oracle, "fixed_step", 0.0);
  report.oracle_steps = count_from(oracle, "steps", "accuracy oracle");
  report.oracle_cpu_seconds = number_or(oracle, "cpu_seconds", 0.0);
  for (const JsonValue& entry : json.at("kernels").as_array()) {
    check_keys(entry, {"kernel", "cpu_seconds", "steps", "bounds", "jobs"},
               "accuracy kernel");
    KernelAccuracy row;
    row.kernel = entry.at("kernel").as_string();
    row.cpu_seconds = number_or(entry, "cpu_seconds", 0.0);
    row.steps = count_from(entry, "steps", "accuracy kernel");
    row.bounds = metrics_from_json(entry.at("bounds"), "accuracy bounds");
    for (const JsonValue& job_entry : entry.at("jobs").as_array()) {
      check_keys(job_entry, {"job", "errors", "probes"}, "accuracy job");
      JobAccuracy job;
      job.job = job_entry.at("job").as_string();
      job.errors = metrics_from_json(job_entry.at("errors"), "accuracy errors");
      if (const JsonValue* probes = job_entry.find("probes")) {
        for (const JsonValue& probe_entry : probes->as_array()) {
          check_keys(probe_entry, {"label", "max_rel_error"}, "accuracy probe");
          ProbeAccuracy probe;
          probe.label = probe_entry.at("label").as_string();
          probe.max_rel_error = number_or(probe_entry, "max_rel_error", 0.0);
          job.probes.push_back(std::move(probe));
        }
      }
      row.jobs.push_back(std::move(job));
    }
    report.kernels.push_back(std::move(row));
  }
  return report;
}

JsonValue to_json(const AutotuneResult& result) {
  JsonValue json = JsonValue::make_object();
  json.set("autotune", result.name);
  json.set("error_budget", result.error_budget);
  JsonValue oracle = JsonValue::make_object();
  oracle.set("fixed_step", result.oracle_step);
  oracle.set("steps", result.oracle_steps);
  json.set("oracle", std::move(oracle));
  JsonValue paths = JsonValue::make_array();
  for (const std::string& path : result.paths) {
    paths.push_back(path);
  }
  json.set("paths", std::move(paths));
  JsonValue baseline = JsonValue::make_object();
  baseline.set("cost", result.baseline_cost);
  baseline.set("error", JsonValue::finite_or_null(result.baseline_error));
  json.set("baseline", std::move(baseline));
  JsonValue chosen = JsonValue::make_object();
  JsonValue values = JsonValue::make_array();
  for (const double value : result.chosen_values) {
    values.push_back(value);
  }
  chosen.set("values", std::move(values));
  chosen.set("kernel", result.chosen_kernel);
  chosen.set("cost", result.chosen_cost);
  chosen.set("error", JsonValue::finite_or_null(result.chosen_error));
  json.set("chosen", std::move(chosen));
  json.set("cost_ratio", JsonValue::finite_or_null(result.cost_ratio));
  json.set("feasible", result.feasible);
  json.set("evaluations", result.evaluations);
  json.set("sweeps", result.sweeps);
  JsonValue log = JsonValue::make_array();
  for (const AutotuneEvaluation& evaluation : result.log) {
    JsonValue entry = JsonValue::make_object();
    JsonValue xs = JsonValue::make_array();
    for (const double value : evaluation.values) {
      xs.push_back(value);
    }
    entry.set("values", std::move(xs));
    entry.set("kernel", evaluation.kernel);
    entry.set("cost", evaluation.cost);
    entry.set("error", JsonValue::finite_or_null(evaluation.error));
    entry.set("feasible", evaluation.feasible);
    log.push_back(std::move(entry));
  }
  json.set("log", std::move(log));
  return json;
}

AutotuneResult autotune_result_from_json(const JsonValue& json) {
  check_keys(json,
             {"autotune", "error_budget", "oracle", "paths", "baseline", "chosen",
              "cost_ratio", "feasible", "evaluations", "sweeps", "log"},
             "autotune result");
  AutotuneResult result;
  result.name = json.at("autotune").as_string();
  result.error_budget = number_or(json, "error_budget", 0.0);
  const JsonValue& oracle = json.at("oracle");
  check_keys(oracle, {"fixed_step", "steps"}, "autotune oracle");
  result.oracle_step = number_or(oracle, "fixed_step", 0.0);
  result.oracle_steps = count_from(oracle, "steps", "autotune oracle");
  for (const JsonValue& path : json.at("paths").as_array()) {
    result.paths.push_back(path.as_string());
  }
  const JsonValue& baseline = json.at("baseline");
  check_keys(baseline, {"cost", "error"}, "autotune baseline");
  result.baseline_cost = number_or(baseline, "cost", 0.0);
  result.baseline_error = number_or(baseline, "error", 0.0);
  const JsonValue& chosen = json.at("chosen");
  check_keys(chosen, {"values", "kernel", "cost", "error"}, "autotune chosen");
  for (const JsonValue& value : chosen.at("values").as_array()) {
    result.chosen_values.push_back(value.as_number());
  }
  result.chosen_kernel = chosen.at("kernel").as_string();
  result.chosen_cost = number_or(chosen, "cost", 0.0);
  result.chosen_error = number_or(chosen, "error", 0.0);
  result.cost_ratio = number_or(json, "cost_ratio", 0.0);
  result.feasible = bool_or(json, "feasible", false);
  result.evaluations = count_from(json, "evaluations", "autotune result");
  result.sweeps = count_from(json, "sweeps", "autotune result");
  for (const JsonValue& entry : json.at("log").as_array()) {
    check_keys(entry, {"values", "kernel", "cost", "error", "feasible"}, "autotune log");
    AutotuneEvaluation evaluation;
    for (const JsonValue& value : entry.at("values").as_array()) {
      evaluation.values.push_back(value.as_number());
    }
    evaluation.kernel = entry.at("kernel").as_string();
    evaluation.cost = number_or(entry, "cost", 0.0);
    evaluation.error = number_or(entry, "error", 0.0);
    evaluation.feasible = bool_or(entry, "feasible", false);
    result.log.push_back(std::move(evaluation));
  }
  return result;
}

void write_trace_csv(std::ostream& os, const ScenarioResult& result) {
  // Recorded probe columns ride next to the built-in Vc trace; all columns
  // come from the same decimated recorder, so they are time-aligned.
  std::vector<const ProbeResult*> recorded;
  for (const ProbeResult& probe : result.probes) {
    if (probe.recorded) {
      if (probe.trace.size() != result.time.size()) {
        throw ModelError("trace CSV: probe column '" + probe.label +
                         "' is not aligned with the time base");
      }
      recorded.push_back(&probe);
    }
  }
  os << "time,Vc";
  for (const ProbeResult* probe : recorded) {
    os << ',' << probe->label;
  }
  os << '\n';
  char buffer[64];
  auto write_number = [&](double value, char trailer) {
    const auto [ptr, ec] = std::to_chars(buffer, buffer + sizeof(buffer), value);
    if (ec != std::errc{}) {
      throw ModelError("trace CSV: number formatting failed");
    }
    *ptr = trailer;
    os.write(buffer, ptr - buffer + 1);
  };
  for (std::size_t i = 0; i < result.time.size(); ++i) {
    write_number(result.time[i], ',');
    write_number(result.vc[i], recorded.empty() ? '\n' : ',');
    for (std::size_t p = 0; p < recorded.size(); ++p) {
      write_number(recorded[p]->trace[i], p + 1 == recorded.size() ? '\n' : ',');
    }
  }
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw ModelError("cannot open '" + path + "' for reading");
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (!in.good() && !in.eof()) {
    throw ModelError("failed reading '" + path + "'");
  }
  return std::move(buffer).str();
}

void write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    throw ModelError("cannot open '" + path + "' for writing");
  }
  out << content;
  if (!out.good()) {
    throw ModelError("failed writing '" + path + "'");
  }
}

std::string safe_file_stem(const std::string& name) {
  std::string stem;
  stem.reserve(name.size());
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '-' || c == '_' || c == '=';
    stem.push_back(ok ? c : '_');
  }
  return stem;
}

std::string file_stem(const std::string& dir, const std::string& name) {
  return (std::filesystem::path(dir) / safe_file_stem(name)).string();
}

void write_result_files(const std::string& dir, const experiments::ScenarioResult& result) {
  std::filesystem::create_directories(dir);
  const std::string stem = file_stem(dir, result.scenario);
  write_file(stem + ".result.json", to_json(result).dump(2) + "\n");
  std::ostringstream csv;
  write_trace_csv(csv, result);
  write_file(stem + ".trace.csv", std::move(csv).str());
}

}  // namespace ehsim::io
