#include "io/spec_json.hpp"

#include <charconv>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <span>
#include <sstream>
#include <type_traits>

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

// ---- field rows -------------------------------------------------------------
//
// Every spec struct is one list of rows, each binding a JSON key to a member.
// to_json, the *_from_json parsers (defaults, required keys, the strict
// unknown-key check), the sweep/optimise/autotune paths and the `ehsim
// params` listings all walk these lists, so a new spec field is one row.
// Row order is the emission order of the canonical document.

/// Row flags: the emit rule (unflagged rows are always written; optional
/// members only when set) plus the parse and path attributes.
enum Rule : unsigned {
  kAlways = 0,
  kUnlessDefault = 1u << 0,  ///< omitted while equal to the default-constructed value
  kIfPositive = 1u << 1,     ///< omitted while <= 0
  kRequired = 1u << 2,       ///< parsing fails when the key is missing
  kPath = 1u << 3,           ///< addressable as "<block>.<key>" (find_spec_field)
  /// The scalar form of an either/or pair (optimise's variable/lower/upper
  /// vs variables, ensemble's num_seeds vs seeds, a sweep axis's
  /// param/values vs engines): written only while the array form is empty.
  kAlias = 1u << 4,
};

/// A row whose value is structural — a nested block, an array or an enum —
/// and is written and read by plain code. write returns nullopt to omit it.
template <class S>
struct Custom {
  std::optional<JsonValue> (*write)(const S&);
  void (*read)(S&, const JsonValue&);
};

template <class S>
struct Field {
  const char* key;
  std::variant<double S::*, bool S::*, std::string S::*, std::optional<double> S::*,
               std::size_t S::*, std::vector<double> S::*, Custom<S>>
      member;
  unsigned rules = kAlways;
};

template <class S>
using Fields = std::span<const Field<S>>;

template <class S>
struct Table {
  const char* where;  ///< the struct's name in error messages
  Fields<S> fields;
  bool document = false;  ///< a spec flavour: the "type" discriminator is accepted
};

constexpr const char* kTypeKey = "type";

/// The bounded reader of every integer field: a non-integral value or one
/// outside [0, 2^64) is rejected by name instead of overflowing the cast.
std::uint64_t read_count(const JsonValue& json, std::string_view key, const std::string& where) {
  const double value = json.as_number();
  if (!(value >= 0.0 && value < 0x1p64) || value != std::floor(value)) {
    throw ModelError(where + ": '" + std::string(key) + "' must be an integer in [0, 2^64)");
  }
  return static_cast<std::uint64_t>(value);
}

// One typed reader and writer per row kind (integers: read_count above).
void read_value(double& target, const JsonValue& json) { target = json.as_number(); }
void read_value(std::optional<double>& target, const JsonValue& json) { target = json.as_number(); }
void read_value(bool& target, const JsonValue& json) { target = json.as_bool(); }
void read_value(std::string& target, const JsonValue& json) { target = json.as_string(); }
void read_value(std::vector<double>& target, const JsonValue& json) {
  for (const JsonValue& item : json.as_array()) {
    target.push_back(item.as_number());
  }
}

template <class T>
JsonValue to_value(const T& value) {
  return JsonValue(value);
}
JsonValue to_value(const std::optional<double>& value) { return *value; }
JsonValue to_value(const std::vector<double>& values) {
  JsonValue array = JsonValue::make_array();
  for (const double value : values) {
    array.push_back(value);
  }
  return array;
}

/// The emit rule: is \p value left out of the document?
template <class T>
bool omitted(const T& value, const T& fallback, unsigned rules) {
  return ((rules & kUnlessDefault) != 0 && value == fallback) ||
         ((rules & kIfPositive) != 0 && !(value > T{}));
}
bool omitted(const std::optional<double>& value, const std::optional<double>&, unsigned) {
  return !value;
}

template <class S>
const S& defaults() {
  static const S instance{};
  return instance;
}

/// Append the rows of \p fields, skipping those flagged with any \p skip bit.
template <class S>
void write_rows(JsonValue& json, const S& s, Fields<S> fields, unsigned skip = 0) {
  for (const Field<S>& field : fields) {
    if ((field.rules & skip) != 0) {
      continue;
    }
    std::optional<JsonValue> value = std::visit(
        overloaded{[&s](const Custom<S>& custom) { return custom.write(s); },
                   [&s, &field](auto member) -> std::optional<JsonValue> {
                     if (omitted(s.*member, defaults<S>().*member, field.rules)) {
                       return std::nullopt;
                     }
                     return to_value(s.*member);
                   }},
        field.member);
    if (value) {
      json.set(field.key, std::move(*value));
    }
  }
}

template <class S>
void read_rows(S& s, const JsonValue& json, Fields<S> fields, const std::string& where) {
  for (const Field<S>& field : fields) {
    const JsonValue* value = json.find(field.key);
    if (value == nullptr) {
      if ((field.rules & kRequired) != 0) {
        throw ModelError(where + ": missing key '" + field.key + "'");
      }
      continue;
    }
    std::visit(overloaded{[&](const Custom<S>& custom) { custom.read(s, *value); },
                          [&](std::size_t S::*member) {
                            s.*member = read_count(*value, field.key, where);
                          },
                          [&](auto member) -> void { read_value(s.*member, *value); }},
               field.member);
  }
}

template <class S>
bool has_key(Fields<S> fields, std::string_view key) {
  for (const Field<S>& field : fields) {
    if (key == field.key) {
      return true;
    }
  }
  return false;
}

/// Strict parsing: reject keys outside \p known so typos fail loudly.
template <class Known>
void reject_unknown(const JsonValue& json, const std::string& where, Known known) {
  for (const auto& [key, value] : json.as_object()) {
    if (!known(key)) {
      throw ModelError(where + ": unknown key '" + key + "'");
    }
  }
}

template <class S>
JsonValue to_object(const S& s, const Table<S>& table, unsigned skip = 0) {
  JsonValue json = JsonValue::make_object();
  write_rows(json, s, table.fields, skip);
  return json;
}

template <class S>
S from_object(const JsonValue& json, const Table<S>& table) {
  reject_unknown(json, table.where, [&table](const std::string& key) {
    return (table.document && key == kTypeKey) || has_key(table.fields, key);
  });
  S s{};
  read_rows(s, json, table.fields, table.where);
  return s;
}

/// Parse, then run the struct's own validation.
template <class S>
S validated(const JsonValue& json, const Table<S>& table) {
  S s = from_object(json, table);
  s.validate();
  return s;
}

/// A top-level spec document: the "type" discriminator, then the rows.
template <class S>
JsonValue document(const S& spec, const Table<S>& table, unsigned skip = 0) {
  JsonValue json = JsonValue::make_object();
  json.set(kTypeKey, spec_type_id(spec));
  write_rows(json, spec, table.fields, skip);
  return json;
}

template <class S>
JsonValue to_array(const std::vector<S>& items, const Table<S>& table) {
  JsonValue array = JsonValue::make_array();
  for (const S& item : items) {
    array.push_back(to_object(item, table));
  }
  return array;
}

template <class S>
std::vector<S> array_from(const JsonValue& json, const Table<S>& table) {
  std::vector<S> items;
  for (const JsonValue& entry : json.as_array()) {
    items.push_back(from_object(entry, table));
  }
  return items;
}

template <class E>
JsonValue id_array(const std::vector<E>& values, const char* (*id)(E)) {
  JsonValue array = JsonValue::make_array();
  for (const E value : values) {
    array.push_back(id(value));
  }
  return array;
}

template <class E>
std::vector<E> ids_from(const JsonValue& json, E (*parse)(std::string_view)) {
  std::vector<E> values;
  for (const JsonValue& id : json.as_array()) {
    values.push_back(parse(id.as_string()));
  }
  return values;
}

/// Omit a list row while the list is empty.
std::optional<JsonValue> unless_empty(JsonValue array) {
  if (array.as_array().empty()) {
    return std::nullopt;
  }
  return array;
}

// ---- solver, probes, excitation -------------------------------------------

constexpr const char* kSolverKey = "solver";

/// Only the fields that differ from the defaults are emitted, so specs and
/// goldens that predate the block round-trip byte-identically.
constexpr Field<core::SolverConfig> kSolverFields[] = {
    {"max_ab_order", &core::SolverConfig::max_ab_order, kUnlessDefault},
    {"h_min", &core::SolverConfig::h_min, kUnlessDefault},
    {"h_max", &core::SolverConfig::h_max, kUnlessDefault | kPath},
    {"h_initial", &core::SolverConfig::h_initial, kUnlessDefault | kPath},
    {"stability_safety", &core::SolverConfig::stability_safety, kUnlessDefault | kPath},
    {"enable_stability_cap", &core::SolverConfig::enable_stability_cap, kUnlessDefault},
    {"lle_tolerance", &core::SolverConfig::lle_tolerance, kUnlessDefault | kPath},
    {"enable_lle_control", &core::SolverConfig::enable_lle_control, kUnlessDefault},
    {"fixed_step", &core::SolverConfig::fixed_step, kUnlessDefault | kPath},
    {"enable_jacobian_reuse", &core::SolverConfig::enable_jacobian_reuse, kUnlessDefault},
    {"max_init_iterations", &core::SolverConfig::max_init_iterations, kUnlessDefault},
    {"init_tolerance", &core::SolverConfig::init_tolerance, kUnlessDefault | kPath},
};
constexpr Table<core::SolverConfig> kSolver{kSolverKey, kSolverFields};

constexpr const char* kKindKey = "kind";

constexpr Field<ProbeSpec> kProbeFields[] = {
    {"label", &ProbeSpec::label, kRequired},
    {kKindKey,
     Custom<ProbeSpec>{
         [](const ProbeSpec& p) -> std::optional<JsonValue> {
           return experiments::probe_kind_id(p.kind);
         },
         [](ProbeSpec& p, const JsonValue& json) {
           p.kind = experiments::probe_kind_from(json.as_string());
         }},
     kRequired},
    {"target", &ProbeSpec::target, kUnlessDefault},
    {"window_start", &ProbeSpec::window_start, kUnlessDefault},
    {"window_end", &ProbeSpec::window_end, kIfPositive},
    {"threshold", &ProbeSpec::threshold},
    {"record", &ProbeSpec::record, kUnlessDefault},
};
constexpr Table<ProbeSpec> kProbe{"probe", kProbeFields};

/// uint64 seeds may exceed the exactly-representable double range; such
/// seeds serialise as decimal strings, everything else as plain numbers.
JsonValue seed_to_json(std::uint64_t seed) {
  const auto as_double = static_cast<double>(seed);
  if (as_double < 0x1p64 && static_cast<std::uint64_t>(as_double) == seed) {
    return JsonValue(as_double);
  }
  return JsonValue(std::to_string(seed));
}

constexpr const char* kSeedKey = "seed";

std::uint64_t seed_from_json(const JsonValue& json) {
  if (json.is_number()) {
    return read_count(json, kSeedKey, "random_walk event");
  }
  const std::string& text = json.as_string();
  std::uint64_t seed = 0;
  const auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(), seed);
  if (ec != std::errc{} || ptr != text.data() + text.size()) {
    throw ModelError("random_walk seed string '" + text + "' is not a decimal uint64");
  }
  return seed;
}

constexpr Field<RandomWalkParams> kWalkFields[] = {
    {"step_interval", &RandomWalkParams::step_interval},
    {"frequency_sigma", &RandomWalkParams::frequency_sigma},
    {"amplitude_sigma", &RandomWalkParams::amplitude_sigma},
    {kSeedKey, Custom<RandomWalkParams>{
                   [](const RandomWalkParams& walk) -> std::optional<JsonValue> {
                     return seed_to_json(walk.seed);
                   },
                   [](RandomWalkParams& walk, const JsonValue& json) {
                     walk.seed = seed_from_json(json);
                   }}},
    {"min_frequency_hz", &RandomWalkParams::min_frequency_hz},
    {"max_frequency_hz", &RandomWalkParams::max_frequency_hz},
    {"min_amplitude", &RandomWalkParams::min_amplitude},
};

constexpr Fields<RandomWalkParams> kWalk = kWalkFields;

constexpr Field<ExcitationEvent> kEventTime{"time", &ExcitationEvent::time, kRequired | kPath};
constexpr Field<ExcitationEvent> kEventDuration{"duration", &ExcitationEvent::duration,
                                                kRequired | kPath};
constexpr Field<ExcitationEvent> kEventFrequency{"frequency_hz", &ExcitationEvent::frequency_hz,
                                                 kRequired | kPath};
constexpr Field<ExcitationEvent> kEventAmplitude{"amplitude", &ExcitationEvent::amplitude,
                                                 kRequired | kPath};
/// Every event row, in member order (the path listing).
constexpr Field<ExcitationEvent> kEventFields[] = {kEventTime, kEventDuration, kEventFrequency,
                                                  kEventAmplitude};
constexpr Field<ExcitationEvent> kStepFields[] = {kEventTime, kEventFrequency};
constexpr Field<ExcitationEvent> kRampFields[] = {kEventTime, kEventDuration, kEventFrequency};
constexpr Field<ExcitationEvent> kAmplitudeStepFields[] = {kEventTime, kEventAmplitude};
constexpr Field<ExcitationEvent> kWalkEventFields[] = {kEventTime, kEventDuration};

/// The per-kind key set of an event: the kind id, the kind's event rows and, for
/// random walks, the walk parameter rows. The parser, the writer and the
/// event paths all use this one table.
struct EventKind {
  ExcitationEvent::Kind kind;
  const char* id;
  Fields<ExcitationEvent> fields;
  bool walk = false;
};

constexpr EventKind kEventKinds[] = {
    {ExcitationEvent::Kind::kFrequencyStep, "frequency_step", kStepFields},
    {ExcitationEvent::Kind::kFrequencyRamp, "frequency_ramp", kRampFields},
    {ExcitationEvent::Kind::kAmplitudeStep, "amplitude_step", kAmplitudeStepFields},
    {ExcitationEvent::Kind::kRandomWalk, "random_walk", kWalkEventFields, true},
};

const EventKind& event_kind(ExcitationEvent::Kind kind) {
  for (const EventKind& candidate : kEventKinds) {
    if (candidate.kind == kind) {
      return candidate;
    }
  }
  throw ModelError("excitation event: invalid kind");
}

JsonValue event_to_json(const ExcitationEvent& event) {
  const EventKind& kind = event_kind(event.kind);
  JsonValue json = JsonValue::make_object();
  json.set(kKindKey, kind.id);
  write_rows(json, event, kind.fields);
  if (kind.walk) {
    write_rows(json, event.walk, kWalk);
  }
  return json;
}

ExcitationEvent event_from_json(const JsonValue& json) {
  const std::string& id = json.at(kKindKey).as_string();
  const EventKind* kind = nullptr;
  for (const EventKind& candidate : kEventKinds) {
    if (id == candidate.id) {
      kind = &candidate;
      break;
    }
  }
  if (kind == nullptr) {
    throw ModelError("excitation event: unknown kind '" + id +
                     "' (expected frequency_step | frequency_ramp | amplitude_step | "
                     "random_walk)");
  }
  const std::string where = id + " event";
  reject_unknown(json, where, [kind](const std::string& key) {
    return key == kKindKey || has_key(kind->fields, key) ||
           (kind->walk && has_key(kWalk, key));
  });
  ExcitationEvent event;
  event.kind = kind->kind;
  read_rows(event, json, kind->fields, where);
  if (kind->walk) {
    read_rows(event.walk, json, kWalk, where);
  }
  return event;
}

constexpr const char* kExcitationKey = "excitation";

constexpr Field<ExcitationSchedule> kExcitationFields[] = {
    {"initial_frequency_hz", &ExcitationSchedule::initial_frequency_hz, kPath},
    {"initial_amplitude", &ExcitationSchedule::initial_amplitude, kPath},
    {"events", Custom<ExcitationSchedule>{
                   [](const ExcitationSchedule& schedule) -> std::optional<JsonValue> {
                     JsonValue events = JsonValue::make_array();
                     for (const ExcitationEvent& event : schedule.events) {
                       events.push_back(event_to_json(event));
                     }
                     return events;
                   },
                   [](ExcitationSchedule& schedule, const JsonValue& json) {
                     for (const JsonValue& event : json.as_array()) {
                       schedule.events.push_back(event_from_json(event));
                     }
                   }}},
};
constexpr Table<ExcitationSchedule> kExcitation{kExcitationKey, kExcitationFields};

// ---- spec flavours -----------------------------------------------------------

constexpr Field<ParamOverride> kOverrideFields[] = {
    {"param", &ParamOverride::path, kRequired},
    {"value", &ParamOverride::value, kRequired},
};
constexpr Table<ParamOverride> kOverride{"override", kOverrideFields};

/// Rows shared by several spec flavours (same key, member and rule).
template <class S>
constexpr Field<S> kNameRow{"name", &S::name};
template <class S>
constexpr Field<S> kThreadsRow{"threads", &S::threads};
template <class S>
constexpr Field<S> kMaxEvaluationsRow{"max_evaluations", &S::max_evaluations};

constexpr const char* kSpecBlock = "spec";

constexpr Field<ExperimentSpec> kExperimentFields[] = {
    kNameRow<ExperimentSpec>,
    {"duration", &ExperimentSpec::duration, kPath},
    {"pre_tuned_hz", &ExperimentSpec::pre_tuned_hz, kPath},
    {"with_mcu", &ExperimentSpec::with_mcu},
    {"trace_interval", &ExperimentSpec::trace_interval, kPath},
    {"power_bin_width", &ExperimentSpec::power_bin_width, kPath},
    {"engine", Custom<ExperimentSpec>{
                   [](const ExperimentSpec& s) -> std::optional<JsonValue> {
                     return experiments::engine_kind_id(s.engine);
                   },
                   [](ExperimentSpec& s, const JsonValue& json) {
                     s.engine = experiments::parse_engine_kind(json.as_string());
                   }}},
    {kSolverKey, Custom<ExperimentSpec>{
                     [](const ExperimentSpec& s) -> std::optional<JsonValue> {
                       if (s.solver == core::SolverConfig{}) {
                         return std::nullopt;
                       }
                       return to_object(s.solver, kSolver);
                     },
                     [](ExperimentSpec& s, const JsonValue& json) {
                       s.solver = from_object(json, kSolver);
                     }}},
    {kExcitationKey, Custom<ExperimentSpec>{
                         [](const ExperimentSpec& s) -> std::optional<JsonValue> {
                           return to_object(s.excitation, kExcitation);
                         },
                         [](ExperimentSpec& s, const JsonValue& json) {
                           s.excitation = from_object(json, kExcitation);
                         }}},
    {"overrides", Custom<ExperimentSpec>{
                      [](const ExperimentSpec& s) {
                        return unless_empty(to_array(s.overrides, kOverride));
                      },
                      [](ExperimentSpec& s, const JsonValue& json) {
                        s.overrides = array_from(json, kOverride);
                      }}},
    {"probes", Custom<ExperimentSpec>{
                   [](const ExperimentSpec& s) {
                     return unless_empty(to_array(s.probes, kProbe));
                   },
                   [](ExperimentSpec& s, const JsonValue& json) {
                     for (const JsonValue& entry : json.as_array()) {
                       s.probes.push_back(validated(entry, kProbe));
                     }
                   }}},
};
constexpr Table<ExperimentSpec> kExperiment{"experiment spec", kExperimentFields, true};

/// The base experiment of a batch flavour, written without its "type".
template <class S>
constexpr Field<S> kBaseRow{"base",
                            Custom<S>{[](const S& s) -> std::optional<JsonValue> {
                                        return to_object(s.base, kExperiment);
                                      },
                                      [](S& s, const JsonValue& json) {
                                        s.base = experiment_from_json(json);
                                      }},
                            kRequired};

constexpr Field<SweepAxis> kAxisFields[] = {
    {"param", &SweepAxis::param, kAlias},
    {"values", &SweepAxis::values, kAlias},
    {"engines", Custom<SweepAxis>{
                    [](const SweepAxis& axis) {
                      return unless_empty(id_array(axis.engines, experiments::engine_kind_id));
                    },
                    [](SweepAxis& axis, const JsonValue& json) {
                      axis.engines = ids_from(json, experiments::parse_engine_kind);
                    }}},
};
constexpr Table<SweepAxis> kAxis{"sweep axis", kAxisFields};

constexpr Field<SweepSpec> kSweepFields[] = {
    kBaseRow<SweepSpec>,
    {"mode", Custom<SweepSpec>{
                 [](const SweepSpec& s) -> std::optional<JsonValue> {
                   return s.mode == SweepSpec::Mode::kGrid ? "grid" : "zip";
                 },
                 [](SweepSpec& s, const JsonValue& json) {
                   const std::string& word = json.as_string();
                   if (word == "grid") {
                     s.mode = SweepSpec::Mode::kGrid;
                   } else if (word == "zip") {
                     s.mode = SweepSpec::Mode::kZip;
                   } else {
                     throw ModelError("sweep mode '" + word + "' is not grid | zip");
                   }
                 }}},
    kThreadsRow<SweepSpec>,
    {"axes",
     Custom<SweepSpec>{[](const SweepSpec& s) -> std::optional<JsonValue> {
                         JsonValue axes = JsonValue::make_array();
                         for (const SweepAxis& axis : s.axes) {
                           axes.push_back(
                               to_object(axis, kAxis, axis.is_engine_axis() ? kAlias : 0u));
                         }
                         return axes;
                       },
                       [](SweepSpec& s, const JsonValue& json) {
                         s.axes = array_from(json, kAxis);
                       }},
     kRequired},
};
constexpr Table<SweepSpec> kSweep{"sweep spec", kSweepFields, true};

constexpr Field<OptimiseVariable> kVariableFields[] = {
    {"path", &OptimiseVariable::path, kRequired},
    {"lower", &OptimiseVariable::lower, kRequired},
    {"upper", &OptimiseVariable::upper, kRequired},
    {"x_tolerance", &OptimiseVariable::x_tolerance},
};
constexpr Table<OptimiseVariable> kVariable{"optimise variable", kVariableFields};

constexpr Field<OptimiseSpec> kOptimiseFields[] = {
    kNameRow<OptimiseSpec>,
    kBaseRow<OptimiseSpec>,
    {"variable", &OptimiseSpec::variable, kAlias},
    {"lower", &OptimiseSpec::lower, kAlias},
    {"upper", &OptimiseSpec::upper, kAlias},
    {"variables", Custom<OptimiseSpec>{
                      [](const OptimiseSpec& s) {
                        return unless_empty(to_array(s.variables, kVariable));
                      },
                      [](OptimiseSpec& s, const JsonValue& json) {
                        s.variables = array_from(json, kVariable);
                        if (s.variables.empty()) {
                          throw ModelError("optimise spec: 'variables' must not be empty");
                        }
                      }}},
    {"objective", &OptimiseSpec::objective, kRequired},
    {"statistic", &OptimiseSpec::statistic},
    {"maximise", &OptimiseSpec::maximise},
    kMaxEvaluationsRow<OptimiseSpec>,
    {"x_tolerance", &OptimiseSpec::x_tolerance},
};
constexpr Table<OptimiseSpec> kOptimise{"optimise spec", kOptimiseFields, true};

constexpr Field<EnsembleSpec> kEnsembleFields[] = {
    kBaseRow<EnsembleSpec>,
    {"seeds", Custom<EnsembleSpec>{
                  [](const EnsembleSpec& s) {
                    JsonValue seeds = JsonValue::make_array();
                    for (const std::uint64_t seed : s.seeds) {
                      seeds.push_back(static_cast<double>(seed));
                    }
                    return unless_empty(std::move(seeds));
                  },
                  [](EnsembleSpec& s, const JsonValue& json) {
                    for (const JsonValue& seed : json.as_array()) {
                      const double value = seed.as_number();
                      if (!(value >= 0.0) || value != std::floor(value) ||
                          value > 9.007199254740992e15) {
                        throw ModelError("ensemble seeds must be non-negative integers");
                      }
                      s.seeds.push_back(static_cast<std::uint64_t>(value));
                    }
                  }}},
    {"num_seeds", &EnsembleSpec::num_seeds, kAlias},
    kThreadsRow<EnsembleSpec>,
};
constexpr Table<EnsembleSpec> kEnsemble{"ensemble spec", kEnsembleFields, true};

constexpr Field<AutotuneKnob> kKnobFields[] = {
    {"param", &AutotuneKnob::path, kRequired},
    {"values", &AutotuneKnob::values, kRequired},
};
constexpr Table<AutotuneKnob> kKnob{"autotune knob", kKnobFields};

constexpr Field<AutotuneSpec> kAutotuneFields[] = {
    kNameRow<AutotuneSpec>,
    kBaseRow<AutotuneSpec>,
    {"knobs",
     Custom<AutotuneSpec>{
         [](const AutotuneSpec& s) -> std::optional<JsonValue> { return to_array(s.knobs, kKnob); },
         [](AutotuneSpec& s, const JsonValue& json) { s.knobs = array_from(json, kKnob); }},
     kRequired},
    {"error_budget", &AutotuneSpec::error_budget},
    {"oracle_step", &AutotuneSpec::oracle_step, kIfPositive},
    kMaxEvaluationsRow<AutotuneSpec>,
};
constexpr Table<AutotuneSpec> kAutotune{"autotune spec", kAutotuneFields, true};

// ---- spec-level paths ----------------------------------------------------------

/// The row of \p fields marked addressable under \p key, as a pointer into
/// \p s (addressable rows are plain or optional numbers).
template <class S>
std::optional<SpecField> addressable(S& s, Fields<S> fields, std::string_view key) {
  for (const Field<S>& field : fields) {
    if ((field.rules & kPath) != 0 && key == field.key) {
      if (const auto* member = std::get_if<double S::*>(&field.member)) {
        return &(s.**member);
      }
      return &(s.*std::get<std::optional<double> S::*>(field.member));
    }
  }
  return std::nullopt;
}

std::string event_block_prefix() { return std::string(kExcitationKey) + ".event["; }

/// "excitation.event[K]" -> K.
bool parse_event_block(std::string_view block, std::size_t& index) {
  const std::string prefix = event_block_prefix();
  if (!block.starts_with(prefix) || !block.ends_with(']')) {
    return false;
  }
  const char* first = block.data() + prefix.size();
  const char* last = block.data() + block.size() - 1;
  const auto [ptr, ec] = std::from_chars(first, last, index);
  return ec == std::errc{} && ptr == last;
}

template <class S>
std::vector<std::string> keys_of(Fields<S> fields) {
  std::vector<std::string> keys;
  for (const Field<S>& field : fields) {
    keys.emplace_back(field.key);
  }
  return keys;
}

}  // namespace

std::optional<SpecField> find_spec_field(ExperimentSpec& spec, const std::string& path) {
  const std::size_t dot = path.rfind('.');
  if (dot == std::string::npos) {
    return std::nullopt;
  }
  const std::string_view block(path.data(), dot);
  const std::string_view key = std::string_view(path).substr(dot + 1);
  if (block == kSpecBlock) {
    return addressable(spec, kExperiment.fields, key);
  }
  if (block == kSolverKey) {
    return addressable(spec.solver, kSolver.fields, key);
  }
  if (block == kExcitationKey) {
    return addressable(spec.excitation, kExcitation.fields, key);
  }
  std::size_t index = 0;
  if (!parse_event_block(block, index)) {
    return std::nullopt;
  }
  if (index >= spec.excitation.events.size()) {
    throw ModelError("sweep path '" + path + "': spec '" + spec.name + "' has only " +
                     std::to_string(spec.excitation.events.size()) + " excitation events");
  }
  ExcitationEvent& event = spec.excitation.events[index];
  const EventKind& kind = event_kind(event.kind);
  if (std::optional<SpecField> field = addressable(event, kind.fields, key)) {
    return field;
  }
  std::string keys;
  for (const std::string& name : keys_of(kind.fields)) {
    keys += (keys.empty() ? "" : " | ") + name;
  }
  throw ModelError("sweep path '" + path + "': " + kind.id + " events have no field '" +
                   std::string(key) + "' (" + keys + ")");
}

std::vector<std::string> spec_field_paths() {
  std::vector<std::string> paths;
  const auto add = [&paths](std::string_view block, const auto& fields) {
    for (const auto& field : fields) {
      if ((field.rules & kPath) != 0) {
        paths.push_back(std::string(block) + "." + field.key);
      }
    }
  };
  add(kSpecBlock, kExperiment.fields);
  add(kExcitationKey, kExcitation.fields);
  std::string events;
  for (const std::string& key : keys_of(Fields<ExcitationEvent>(kEventFields))) {
    events += (events.empty() ? "" : ",") + key;
  }
  paths.push_back(event_block_prefix() + "K].{" + events + "}");
  add(kSolverKey, kSolver.fields);
  return paths;
}

std::vector<std::string> probe_keys() { return keys_of(kProbe.fields); }
std::vector<std::string> optimise_keys() { return keys_of(kOptimise.fields); }
std::vector<std::string> optimise_variable_keys() { return keys_of(kVariable.fields); }

// ---- spec <-> JSON -------------------------------------------------------------

JsonValue to_json(const ExperimentSpec& spec) { return document(spec, kExperiment); }

ExperimentSpec experiment_from_json(const JsonValue& json) { return validated(json, kExperiment); }

JsonValue to_json(const SweepSpec& sweep) { return document(sweep, kSweep); }

SweepSpec sweep_from_json(const JsonValue& json) { return validated(json, kSweep); }

JsonValue to_json(const OptimiseSpec& spec) {
  return document(spec, kOptimise, spec.variables.empty() ? 0u : kAlias);
}

OptimiseSpec optimise_from_json(const JsonValue& json) {
  OptimiseSpec spec = from_object(json, kOptimise);
  // The single-variable alias is required without the variables array and
  // refused beside it.
  const bool array_form = !spec.variables.empty();
  for (const Field<OptimiseSpec>& field : kOptimiseFields) {
    if ((field.rules & kAlias) != 0 && json.contains(field.key) == array_form) {
      throw ModelError(array_form ? std::string("optimise spec: '") + field.key +
                                        "' cannot be combined with the 'variables' array"
                                  : std::string("optimise spec: missing key '") + field.key +
                                        "'");
    }
  }
  spec.validate();
  return spec;
}

JsonValue to_json(const EnsembleSpec& spec) {
  return document(spec, kEnsemble, spec.seeds.empty() ? 0u : kAlias);
}

EnsembleSpec ensemble_from_json(const JsonValue& json) { return validated(json, kEnsemble); }

JsonValue to_json(const AutotuneSpec& spec) { return document(spec, kAutotune); }

AutotuneSpec autotune_from_json(const JsonValue& json) { return validated(json, kAutotune); }

AnySpec spec_from_json(const JsonValue& json) {
  const std::string& type = json.at(kTypeKey).as_string();
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

  JsonValue stats = JsonValue::make_object();
  stats.set("steps", result.stats.steps);
  stats.set("jacobian_builds", result.stats.jacobian_builds);
  stats.set("jacobian_reuses", result.stats.jacobian_reuses);
  stats.set("algebraic_solves", result.stats.algebraic_solves);
  stats.set("newton_iterations", result.stats.newton_iterations);
  stats.set("lu_factorisations", result.stats.lu_factorisations);
  stats.set("stability_recomputes", result.stats.stability_recomputes);
  stats.set("stability_reuses", result.stats.stability_reuses);
  stats.set("history_resets", result.stats.history_resets);
  stats.set("step_rejections", result.stats.step_rejections);
  stats.set("min_step", result.stats.min_step);
  stats.set("max_step", result.stats.max_step);
  json.set("stats", std::move(stats));

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
  json.set("cpu_seconds", report.cpu_seconds);
  json.set("steps", report.steps);
  json.set("bounds", metrics_to_json(report.bounds));
  JsonValue jobs = JsonValue::make_array();
  for (const JobAccuracy& job : report.jobs) {
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
  json.set("jobs", std::move(jobs));
  return json;
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
    entry.set("cost", evaluation.cost);
    entry.set("error", JsonValue::finite_or_null(evaluation.error));
    entry.set("feasible", evaluation.feasible);
    log.push_back(std::move(entry));
  }
  json.set("log", std::move(log));
  return json;
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
