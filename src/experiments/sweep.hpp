/// \file sweep.hpp
/// \brief Declarative parameter sweeps over experiment specs.
///
/// A SweepSpec is a base ExperimentSpec plus axes: numeric device/spec
/// parameters (by dotted path) and/or engine kinds. Grid mode takes the
/// cartesian product of the axes; zip mode walks them in lock-step (all
/// axes the same length). Expansion yields plain ExperimentSpecs — one per
/// job, uniquely named — which run_sweep fans out through
/// run_scenario_batch with deterministic job-ordered results.
#pragma once

#include <string>
#include <vector>

#include "experiments/scenarios.hpp"

namespace ehsim::experiments {

struct SweepAxis {
  /// Dotted parameter path: a device parameter of the param registry
  /// ("generator.proof_mass", ...) or a spec-level field such as
  /// spec.duration or excitation.event[K].frequency_hz (io::spec_field_paths
  /// lists them). Empty when this is an engine axis.
  std::string param;
  std::vector<double> values;
  /// Non-empty: this axis sweeps the engine kind instead of a parameter.
  std::vector<EngineKind> engines;

  [[nodiscard]] bool is_engine_axis() const noexcept { return !engines.empty(); }
  [[nodiscard]] std::size_t size() const noexcept {
    return is_engine_axis() ? engines.size() : values.size();
  }

  [[nodiscard]] bool operator==(const SweepAxis&) const = default;
};

struct SweepSpec {
  enum class Mode { kGrid, kZip };

  ExperimentSpec base{};
  Mode mode = Mode::kGrid;
  std::vector<SweepAxis> axes{};
  /// Worker threads for run_sweep (0: hardware concurrency).
  std::size_t threads = 0;
  /// Batch execution kernel for the expanded jobs (see
  /// BatchOptions::batch_kernel). The default runs independent jobs; the
  /// lockstep kernels require the proposed engine on every job.
  BatchKernel batch_kernel = BatchKernel::kJobs;

  /// Throws ModelError on empty/inconsistent axes or unknown paths.
  void validate() const;

  /// Total job count after expansion.
  [[nodiscard]] std::size_t job_count() const;

  /// Expand into one uniquely-named ExperimentSpec per job, in row-major
  /// axis order (last axis fastest) for grid mode, element order for zip.
  [[nodiscard]] std::vector<ExperimentSpec> expand() const;

  [[nodiscard]] bool operator==(const SweepSpec&) const = default;
};

/// Set a sweepable numeric value on a spec: spec-level paths (rows marked
/// addressable in io/spec_json.cpp, see io::spec_field_paths) are written
/// directly, device-parameter paths append an override (validated against
/// the registry). Throws ModelError for unknown paths.
void set_spec_value(ExperimentSpec& spec, const std::string& path, double value);

/// The value \p path has in \p spec: the spec-level field, or the device
/// parameter with the spec's overrides applied. Throws ModelError for
/// unknown paths and unset optional fields.
[[nodiscard]] double get_spec_value(const ExperimentSpec& spec, const std::string& path);

/// Shortest round-trip text of \p value (std::to_chars) for job names
/// ("name/path=value"): distinct values always yield distinct names, and job
/// names double as output file stems, so a collision would silently
/// overwrite another job's results.
[[nodiscard]] std::string value_text(double value);

/// Expand and execute a sweep through run_scenario_batch. \p threads
/// overrides spec.threads when non-zero; the batch kernel follows
/// SweepSpec::batch_kernel.
[[nodiscard]] std::vector<ScenarioResult> run_sweep(const SweepSpec& sweep,
                                                    std::size_t threads = 0,
                                                    BatchStats* stats = nullptr);

/// Sweep execution with explicit batch options (threads = 0 in \p options
/// falls back to spec.threads; the batch kernel in \p options wins over the
/// spec).
[[nodiscard]] std::vector<ScenarioResult> run_sweep(const SweepSpec& sweep,
                                                    const BatchOptions& options,
                                                    BatchStats* stats = nullptr);

/// run_sweep with per-job checkpoint files and resume (see CheckpointOptions
/// in scenarios.hpp). Returns std::nullopt only when the abort_after test
/// hook stopped the sweep.
[[nodiscard]] std::optional<std::vector<ScenarioResult>> run_sweep_checkpointed(
    const SweepSpec& sweep, const BatchOptions& options,
    const CheckpointOptions& checkpointing, BatchStats* stats = nullptr);

}  // namespace ehsim::experiments
