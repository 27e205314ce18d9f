/// \file param_registry.hpp
/// \brief Dotted-path access to the numeric device parameters.
///
/// The declarative spec layer addresses HarvesterParams fields by stable
/// string paths ("generator.proof_mass", "supercap.initial_voltage", ...),
/// so parameter overrides and sweep axes are data instead of C++ — the JSON
/// specs and the `ehsim` CLI both resolve through this registry. Integer
/// fields (multiplier.stages, multiplier.table_segments) are set by rounding
/// their double value.
#pragma once

#include <compare>
#include <string>
#include <vector>

#include "harvester/params.hpp"

namespace ehsim::experiments {

/// One sparse parameter override: `path` = `value`.
struct ParamOverride {
  std::string path;
  double value = 0.0;

  [[nodiscard]] auto operator<=>(const ParamOverride&) const = default;
};

/// Every addressable path, sorted (CLI discoverability, docs).
[[nodiscard]] std::vector<std::string> param_paths();

/// Read a parameter by path; throws ModelError naming the bad path.
[[nodiscard]] double get_param(const harvester::HarvesterParams& params,
                               const std::string& path);

/// True when \p path addresses an integer-backed field (multiplier.stages,
/// multiplier.table_segments) that set_param writes by rounding. Continuous
/// optimisers must reject such paths: a fractional candidate would be
/// silently rounded, making the objective a step function of the variable.
/// Throws ModelError for unknown paths.
[[nodiscard]] bool is_integer_param(const std::string& path);

/// Write a parameter by path; throws ModelError naming the bad path.
void set_param(harvester::HarvesterParams& params, const std::string& path, double value);

/// Apply overrides in order (later overrides win on the same path).
void apply_overrides(harvester::HarvesterParams& params,
                     const std::vector<ParamOverride>& overrides);

}  // namespace ehsim::experiments
