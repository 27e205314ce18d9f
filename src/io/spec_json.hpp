/// \file spec_json.hpp
/// \brief JSON bindings for the declarative experiment layer.
///
/// Scenarios are data: every spec flavour round-trips through JSON
/// losslessly (spec == from_json(to_json(spec))), which is what the `ehsim`
/// CLI, the serve daemon and the checked-in examples/specs/*.json files ride
/// on. Each spec struct's schema is one list of field rows in spec_json.cpp:
/// the writer, the parser (defaults, required keys, strict rejection of
/// unknown keys so typos fail loudly), the spec-level sweep paths and the
/// `ehsim params` listings are all derived from it. Integer fields must be
/// integers in [0, 2^64). The schema is documented with worked examples in
/// docs/spec_format.md.
#pragma once

#include <iosfwd>
#include <optional>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "experiments/accuracy.hpp"
#include "experiments/autotune.hpp"
#include "experiments/ensemble.hpp"
#include "experiments/optimise_spec.hpp"
#include "experiments/scenarios.hpp"
#include "experiments/sweep.hpp"
#include "io/json.hpp"

namespace ehsim::io {

// ---- spec <-> JSON --------------------------------------------------------

[[nodiscard]] JsonValue to_json(const experiments::ExcitationSchedule& schedule);
[[nodiscard]] experiments::ExcitationSchedule schedule_from_json(const JsonValue& json);

[[nodiscard]] JsonValue to_json(const experiments::ProbeSpec& probe);
[[nodiscard]] experiments::ProbeSpec probe_from_json(const JsonValue& json);

[[nodiscard]] JsonValue to_json(const experiments::ExperimentSpec& spec);
[[nodiscard]] experiments::ExperimentSpec experiment_from_json(const JsonValue& json);

[[nodiscard]] JsonValue to_json(const experiments::SweepSpec& sweep);
[[nodiscard]] experiments::SweepSpec sweep_from_json(const JsonValue& json);

[[nodiscard]] JsonValue to_json(const experiments::OptimiseSpec& spec);
[[nodiscard]] experiments::OptimiseSpec optimise_from_json(const JsonValue& json);

[[nodiscard]] JsonValue to_json(const experiments::EnsembleSpec& spec);
[[nodiscard]] experiments::EnsembleSpec ensemble_from_json(const JsonValue& json);

[[nodiscard]] JsonValue to_json(const experiments::AutotuneSpec& spec);
[[nodiscard]] experiments::AutotuneSpec autotune_from_json(const JsonValue& json);

// ---- the tagged spec union ------------------------------------------------

/// Stable top-level "type" id of each spec flavour; the overload set keeps
/// AnySpec::type_id() and generic visitors in lock-step with the parser.
[[nodiscard]] constexpr const char* spec_type_id(const experiments::ExperimentSpec&) {
  return "experiment";
}
[[nodiscard]] constexpr const char* spec_type_id(const experiments::SweepSpec&) {
  return "sweep";
}
[[nodiscard]] constexpr const char* spec_type_id(const experiments::OptimiseSpec&) {
  return "optimise";
}
[[nodiscard]] constexpr const char* spec_type_id(const experiments::EnsembleSpec&) {
  return "ensemble";
}
[[nodiscard]] constexpr const char* spec_type_id(const experiments::AutotuneSpec&) {
  return "autotune";
}

/// Lambda-overload visitor for AnySpec::dispatch:
///   spec.dispatch(overloaded{[](const ExperimentSpec& e) {...}, ...});
template <class... Ts>
struct overloaded : Ts... {
  using Ts::operator()...;
};
template <class... Ts>
overloaded(Ts...) -> overloaded<Ts...>;

/// A parsed spec document: exactly one flavour per the top-level "type"
/// ("experiment" | "sweep" | "optimise" | "ensemble" | "autotune").
/// Consumers branch with a single dispatch(visitor) — adding a new spec
/// flavour means extending the variant, spec_type_id and spec_from_json,
/// and the compiler then flags every visitor that doesn't handle it.
/// Default-constructed state is an empty ExperimentSpec (the variant is
/// never empty).
class AnySpec {
 public:
  using Variant = std::variant<experiments::ExperimentSpec, experiments::SweepSpec,
                               experiments::OptimiseSpec, experiments::EnsembleSpec,
                               experiments::AutotuneSpec>;

  AnySpec() = default;
  explicit AnySpec(Variant value) : value_(std::move(value)) {}

  template <typename Visitor>
  decltype(auto) dispatch(Visitor&& visitor) {
    return std::visit(std::forward<Visitor>(visitor), value_);
  }
  template <typename Visitor>
  decltype(auto) dispatch(Visitor&& visitor) const {
    return std::visit(std::forward<Visitor>(visitor), value_);
  }

  /// The held flavour's "type" id ("experiment" | "sweep" | ...).
  [[nodiscard]] const char* type_id() const {
    return dispatch([](const auto& spec) { return spec_type_id(spec); });
  }

  /// The held spec if it is a T, else nullptr (std::get_if semantics).
  template <typename T>
  [[nodiscard]] T* get_if() noexcept {
    return std::get_if<T>(&value_);
  }
  template <typename T>
  [[nodiscard]] const T* get_if() const noexcept {
    return std::get_if<T>(&value_);
  }

 private:
  Variant value_{};
};

[[nodiscard]] AnySpec spec_from_json(const JsonValue& json);
[[nodiscard]] AnySpec load_spec_file(const std::string& path);

// ---- spec-level paths and key listings -------------------------------------

/// A spec-level number that a sweep axis, optimise variable or autotune knob
/// addresses.
using SpecField = std::variant<double*, std::optional<double>*>;

/// The field \p path addresses in \p spec: "<block>.<key>" of a row marked
/// addressable, with block "spec", "excitation", "excitation.event[K]" or
/// "solver". nullopt when \p path is not spec-level (device parameters
/// resolve through the param registry). Throws ModelError for an event index
/// past the schedule or an event key that the event's kind does not use.
[[nodiscard]] std::optional<SpecField> find_spec_field(experiments::ExperimentSpec& spec,
                                                       const std::string& path);

/// Every spec-level path, the event keys in "excitation.event[K].{...}" form.
[[nodiscard]] std::vector<std::string> spec_field_paths();

/// JSON keys of a probe entry, an optimise spec (besides "type") and an
/// optimise `variables` entry, in schema order.
[[nodiscard]] std::vector<std::string> probe_keys();
[[nodiscard]] std::vector<std::string> optimise_keys();
[[nodiscard]] std::vector<std::string> optimise_variable_keys();

// ---- results --------------------------------------------------------------

/// Full result document: run summary, solver statistics, MCU events,
/// per-probe statistics and the binned power waveform. The dense traces go
/// to CSV (write_trace_csv), not JSON.
[[nodiscard]] JsonValue to_json(const experiments::ScenarioResult& result);

/// Optimise run document: the evaluation log, the optimum and the full
/// best-run result (cpu fields excluded from golden compares via --ignore).
[[nodiscard]] JsonValue to_json(const experiments::OptimiseResult& result);

/// Ensemble document: replica seeds plus the per-probe and built-in
/// mean/stderr/min/max reductions. The per-replica runs are written as
/// ordinary result/trace files, not embedded here.
[[nodiscard]] JsonValue to_json(const experiments::EnsembleResult& result);

/// Accuracy report document: oracle run summary plus the fast path's error
/// bounds and per-job measurements.
[[nodiscard]] JsonValue to_json(const experiments::AccuracyReport& report);

/// Autotune document: the deterministic search record (no wall-clock
/// fields — same spec, byte-identical JSON). The chosen configuration's
/// best run is written separately via write_result_files.
[[nodiscard]] JsonValue to_json(const experiments::AutotuneResult& result);

/// "time,Vc[,probe...]" CSV: the decimated supercapacitor trace plus one
/// column per recorded probe, all at full (to_chars) precision.
void write_trace_csv(std::ostream& os, const experiments::ScenarioResult& result);

// ---- small file helpers (CLI, tests) --------------------------------------

[[nodiscard]] std::string read_file(const std::string& path);
void write_file(const std::string& path, const std::string& content);

/// Flatten a job name ("base/param=value" sweep separators and all) into a
/// shell-safe file stem — the naming convention of every result file the CLI
/// and the serve daemon write.
[[nodiscard]] std::string safe_file_stem(const std::string& name);

/// <dir>/<safe_file_stem(name)>: the path, without extension, of every file
/// written for \p name.
[[nodiscard]] std::string file_stem(const std::string& dir, const std::string& name);

/// Write <dir>/<stem>.result.json (pretty-printed, trailing newline) and
/// <dir>/<stem>.trace.csv for one result, creating \p dir as needed. The
/// serve determinism contract compares exactly these files.
void write_result_files(const std::string& dir, const experiments::ScenarioResult& result);

}  // namespace ehsim::io
