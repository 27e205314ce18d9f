#include "experiments/sweep.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>

#include "common/error.hpp"

namespace ehsim::experiments {

namespace {

/// Parse "excitation.event[K].field" into (K, field); empty field on
/// mismatch.
bool parse_event_path(const std::string& path, std::size_t& index, std::string& field) {
  constexpr std::string_view prefix = "excitation.event[";
  if (path.compare(0, prefix.size(), prefix) != 0) {
    return false;
  }
  const std::size_t close = path.find(']', prefix.size());
  if (close == std::string::npos || close + 1 >= path.size() || path[close + 1] != '.') {
    return false;
  }
  const char* first = path.data() + prefix.size();
  const char* last = path.data() + close;
  const auto [ptr, ec] = std::from_chars(first, last, index);
  if (ec != std::errc{} || ptr != last) {
    return false;
  }
  field = path.substr(close + 2);
  return true;
}

/// Value text for job names (sweep-name/path=value): std::to_chars shortest
/// round-trip form, so distinct axis values always yield distinct names
/// (job names double as output file stems — a collision would silently
/// overwrite another job's results).
std::string value_text(double value) {
  char buffer[32];
  const auto [ptr, ec] = std::to_chars(buffer, buffer + sizeof(buffer), value);
  if (ec != std::errc{}) {
    throw ModelError("sweep: axis value formatting failed");
  }
  return std::string(buffer, ptr);
}

}  // namespace

void set_spec_value(ExperimentSpec& spec, const std::string& path, double value) {
  if (path == "spec.duration") {
    spec.duration = value;
  } else if (path == "spec.pre_tuned_hz") {
    spec.pre_tuned_hz = value;
  } else if (path == "spec.trace_interval") {
    spec.trace_interval = value;
  } else if (path == "spec.power_bin_width") {
    spec.power_bin_width = value;
  } else if (path == "excitation.initial_frequency_hz") {
    spec.excitation.initial_frequency_hz = value;
  } else if (path == "excitation.initial_amplitude") {
    spec.excitation.initial_amplitude = value;
  } else if (path == "solver.h_max") {
    spec.solver.h_max = value;
  } else if (path == "solver.h_initial") {
    spec.solver.h_initial = value;
  } else if (path == "solver.stability_safety") {
    spec.solver.stability_safety = value;
  } else if (path == "solver.lle_tolerance") {
    spec.solver.lle_tolerance = value;
  } else if (path == "solver.init_tolerance") {
    spec.solver.init_tolerance = value;
  } else if (path == "solver.fixed_step") {
    spec.solver.fixed_step = value;
  } else {
    std::size_t index = 0;
    std::string field;
    if (parse_event_path(path, index, field)) {
      if (index >= spec.excitation.events.size()) {
        throw ModelError("sweep path '" + path + "': spec '" + spec.name + "' has only " +
                         std::to_string(spec.excitation.events.size()) +
                         " excitation events");
      }
      ExcitationEvent& event = spec.excitation.events[index];
      if (field == "time") {
        event.time = value;
      } else if (field == "duration") {
        event.duration = value;
      } else if (field == "frequency_hz") {
        event.frequency_hz = value;
      } else if (field == "amplitude") {
        event.amplitude = value;
      } else {
        throw ModelError("sweep path '" + path +
                         "': unknown event field (time | duration | frequency_hz | amplitude)");
      }
      return;
    }
    // Device parameter: validate the path eagerly so a bad sweep fails
    // before any job runs, then record it as an override.
    harvester::HarvesterParams scratch;
    set_param(scratch, path, value);
    spec.overrides.push_back(ParamOverride{path, value});
  }
}

std::vector<std::string> spec_field_paths() {
  // Keep in lock-step with set_spec_value above.
  return {"spec.duration",
          "spec.pre_tuned_hz",
          "spec.trace_interval",
          "spec.power_bin_width",
          "excitation.initial_frequency_hz",
          "excitation.initial_amplitude",
          "excitation.event[K].{time,duration,frequency_hz,amplitude}",
          "solver.h_max",
          "solver.h_initial",
          "solver.stability_safety",
          "solver.lle_tolerance",
          "solver.init_tolerance",
          "solver.fixed_step"};
}

void SweepSpec::validate() const {
  base.validate();
  if (axes.empty()) {
    throw ModelError("SweepSpec '" + base.name + "': need at least one axis");
  }
  for (std::size_t i = 0; i < axes.size(); ++i) {
    const SweepAxis& axis = axes[i];
    if (axis.is_engine_axis() && (!axis.values.empty() || !axis.param.empty())) {
      throw ModelError("SweepSpec '" + base.name + "': axis " + std::to_string(i) +
                       " mixes engine kinds with a parameter axis");
    }
    if (!axis.is_engine_axis() && axis.param.empty()) {
      throw ModelError("SweepSpec '" + base.name + "': axis " + std::to_string(i) +
                       " has neither a parameter path nor engine kinds");
    }
    if (axis.size() == 0) {
      throw ModelError("SweepSpec '" + base.name + "': axis " + std::to_string(i) +
                       " is empty");
    }
    if (!axis.is_engine_axis()) {
      // Validate the path once up front (throws on unknown paths).
      ExperimentSpec scratch = base;
      set_spec_value(scratch, axis.param, axis.values.front());
    }
    if (mode == Mode::kZip && axis.size() != axes.front().size()) {
      throw ModelError("SweepSpec '" + base.name +
                       "': zip mode requires equally sized axes (axis " + std::to_string(i) +
                       " has " + std::to_string(axis.size()) + ", axis 0 has " +
                       std::to_string(axes.front().size()) + ")");
    }
  }
}

std::size_t SweepSpec::job_count() const {
  validate();
  if (mode == Mode::kZip) {
    return axes.front().size();
  }
  std::size_t count = 1;
  for (const SweepAxis& axis : axes) {
    count *= axis.size();
  }
  return count;
}

std::vector<ExperimentSpec> SweepSpec::expand() const {
  validate();
  const std::size_t jobs = job_count();
  std::vector<ExperimentSpec> specs;
  specs.reserve(jobs);
  for (std::size_t job = 0; job < jobs; ++job) {
    ExperimentSpec spec = base;
    std::string suffix;
    // Row-major decomposition of the job index over the axes (zip: every
    // axis uses the job index directly).
    std::size_t remainder = job;
    for (std::size_t a = axes.size(); a-- > 0;) {
      const SweepAxis& axis = axes[a];
      std::size_t pick;
      if (mode == Mode::kZip) {
        pick = job;
      } else {
        pick = remainder % axis.size();
        remainder /= axis.size();
      }
      std::string part;
      if (axis.is_engine_axis()) {
        spec.engine = axis.engines[pick];
        part = std::string("engine=") + engine_kind_id(spec.engine);
      } else {
        set_spec_value(spec, axis.param, axis.values[pick]);
        part = axis.param + "=" + value_text(axis.values[pick]);
      }
      suffix = suffix.empty() ? part : part + "/" + suffix;
    }
    spec.name = base.name + "/" + suffix;
    specs.push_back(std::move(spec));
  }
  return specs;
}

std::vector<ScenarioResult> run_sweep(const SweepSpec& sweep, std::size_t threads,
                                      BatchStats* stats) {
  BatchOptions options;
  options.threads = threads;
  options.batch_kernel = sweep.batch_kernel;
  return run_sweep(sweep, options, stats);
}

namespace {

/// Shared expansion of run_sweep / run_sweep_checkpointed: one uniquely
/// named job per sweep point, batch options resolved against the spec.
std::vector<ScenarioJob> expand_jobs(const SweepSpec& sweep, const BatchOptions& options,
                                     BatchOptions& batch) {
  std::vector<ExperimentSpec> specs = sweep.expand();
  std::vector<ScenarioJob> jobs;
  jobs.reserve(specs.size());
  for (ExperimentSpec& spec : specs) {
    jobs.push_back(ScenarioJob{std::move(spec), std::nullopt});
  }
  batch = options;
  if (batch.threads == 0) {
    batch.threads = sweep.threads;
  }
  return jobs;
}

}  // namespace

std::vector<ScenarioResult> run_sweep(const SweepSpec& sweep, const BatchOptions& options,
                                      BatchStats* stats) {
  BatchOptions batch;
  const std::vector<ScenarioJob> jobs = expand_jobs(sweep, options, batch);
  return run_scenario_batch(jobs, batch, stats);
}

std::optional<std::vector<ScenarioResult>> run_sweep_checkpointed(
    const SweepSpec& sweep, const BatchOptions& options, const CheckpointOptions& checkpointing,
    BatchStats* stats) {
  BatchOptions batch;
  const std::vector<ScenarioJob> jobs = expand_jobs(sweep, options, batch);
  return run_scenario_batch_checkpointed(jobs, batch, checkpointing, stats);
}

}  // namespace ehsim::experiments
