#include "experiments/accuracy.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>

#include "common/error.hpp"
#include "experiments/metrics.hpp"

namespace ehsim::experiments {

namespace {

/// Binned generator energy integral: sum of per-bin mean power times the
/// bin width. Both sides of a comparison use the same bin geometry (the
/// spec's), so the quadrature error cancels and the difference is the
/// engines' disagreement.
double binned_energy(const ScenarioResult& result, double bin_width) {
  double energy = 0.0;
  for (const double mean_power : result.power_mean) {
    energy += mean_power * bin_width;
  }
  return energy;
}

double rel_error(double oracle, double fast, double scale_floor) {
  return std::abs(fast - oracle) / std::max(scale_floor, std::abs(oracle));
}

/// The kernels an engine supports (AccuracyOptions::kernels empty).
std::vector<BatchKernel> default_kernels(EngineKind engine) {
  if (engine == EngineKind::kProposed) {
    return {BatchKernel::kJobs, BatchKernel::kLockstep};
  }
  return {BatchKernel::kJobs};
}

AccuracyReport run_accuracy_jobs(std::string name, std::vector<ExperimentSpec> specs,
                                 const AccuracyOptions& options) {
  if (specs.empty()) {
    throw ModelError("run_accuracy '" + name + "': no jobs to measure");
  }
  const EngineKind engine = specs.front().engine;
  for (const ExperimentSpec& spec : specs) {
    spec.validate();
    if (spec.engine == EngineKind::kReference) {
      throw ModelError("run_accuracy '" + name +
                       "': the reference oracle cannot judge itself — pick a fast engine");
    }
    if (spec.engine != engine) {
      throw ModelError("run_accuracy '" + name +
                       "': jobs mix engine kinds — measure one engine per report");
    }
  }
  std::vector<BatchKernel> kernels =
      options.kernels.empty() ? default_kernels(engine) : options.kernels;
  for (const BatchKernel kernel : kernels) {
    if (kernel != BatchKernel::kJobs && engine != EngineKind::kProposed) {
      throw ModelError("run_accuracy '" + name + "': batch kernel '" +
                       batch_kernel_id(kernel) + "' requires the proposed engine");
    }
  }

  AccuracyReport report;
  report.name = std::move(name);
  report.engine = engine_kind_id(engine);

  // One oracle run per job, serial. The oracle spec is the job with the
  // engine swapped and (optionally) the step overridden; everything the
  // trajectory depends on — excitation, overrides, probes, trace grid —
  // is identical, so the traces are directly comparable.
  std::vector<ScenarioResult> oracle_runs;
  oracle_runs.reserve(specs.size());
  double oracle_step_used = 0.0;
  for (const ExperimentSpec& spec : specs) {
    ExperimentSpec oracle = spec;
    oracle.engine = EngineKind::kReference;
    // Never inherit the job's own fixed_step (an autotune knob may be
    // walking it): <= 0 falls through to the ReferenceConfig default.
    oracle.solver.fixed_step = options.oracle_step > 0.0 ? options.oracle_step : 0.0;
    ScenarioResult run = run_experiment(oracle);
    oracle_step_used = run.stats.max_step;
    report.oracle_steps += run.stats.steps;
    report.oracle_cpu_seconds += run.cpu_seconds;
    oracle_runs.push_back(std::move(run));
  }
  report.oracle_step = oracle_step_used;

  std::vector<ScenarioJob> jobs;
  jobs.reserve(specs.size());
  for (const ExperimentSpec& spec : specs) {
    jobs.push_back(ScenarioJob{spec, std::nullopt});
  }

  for (const BatchKernel kernel : kernels) {
    BatchOptions batch;
    batch.threads = options.threads == 0 ? 1 : options.threads;
    batch.batch_kernel = kernel;
    const std::vector<ScenarioResult> runs = run_scenario_batch(jobs, batch);

    KernelAccuracy row;
    row.kernel = batch_kernel_id(kernel);
    for (std::size_t j = 0; j < runs.size(); ++j) {
      const ScenarioResult& fast = runs[j];
      const ScenarioResult& oracle = oracle_runs[j];
      row.cpu_seconds += fast.cpu_seconds;
      row.steps += fast.stats.steps;

      JobAccuracy job;
      job.job = specs[j].name;
      job.errors = measure_errors(oracle, fast, specs[j].power_bin_width);
      for (std::size_t p = 0; p < fast.probes.size() && p < oracle.probes.size(); ++p) {
        const ProbeResult& pf = fast.probes[p];
        const ProbeResult& po = oracle.probes[p];
        ProbeAccuracy acc;
        acc.label = pf.label;
        acc.max_rel_error =
            std::max({rel_error(po.final_value, pf.final_value, 1e-9),
                      rel_error(po.minimum, pf.minimum, 1e-9),
                      rel_error(po.maximum, pf.maximum, 1e-9),
                      rel_error(po.mean, pf.mean, 1e-9),
                      rel_error(po.rms, pf.rms, 1e-9)});
        job.probes.push_back(std::move(acc));
      }

      row.bounds.vc_max_rel_error =
          std::max(row.bounds.vc_max_rel_error, job.errors.vc_max_rel_error);
      row.bounds.vc_rms_rel_error =
          std::max(row.bounds.vc_rms_rel_error, job.errors.vc_rms_rel_error);
      row.bounds.final_vc_rel_error =
          std::max(row.bounds.final_vc_rel_error, job.errors.final_vc_rel_error);
      row.bounds.energy_rel_error =
          std::max(row.bounds.energy_rel_error, job.errors.energy_rel_error);
      row.bounds.resonance_rel_error =
          std::max(row.bounds.resonance_rel_error, job.errors.resonance_rel_error);
      row.jobs.push_back(std::move(job));
    }
    report.kernels.push_back(std::move(row));
  }
  return report;
}

}  // namespace

double ErrorMetrics::combined() const {
  return std::max({vc_max_rel_error, final_vc_rel_error, energy_rel_error});
}

ErrorMetrics measure_errors(const ScenarioResult& oracle, const ScenarioResult& fast,
                            double power_bin_width) {
  ErrorMetrics metrics;

  // Vc trace: oracle resampled onto the fast grid (both decimate on the
  // same trace_interval, so this is usually an exact time match), scaled
  // by the oracle's peak magnitude — one scale for the whole trace, so
  // zero crossings cannot inflate the relative error.
  if (!fast.time.empty() && !oracle.time.empty()) {
    const std::vector<double> oracle_on_grid =
        resample(oracle.time, oracle.vc, fast.time);
    double scale = 0.0;
    for (const double v : oracle_on_grid) {
      scale = std::max(scale, std::abs(v));
    }
    scale = std::max(scale, 1e-12);
    double max_abs = 0.0;
    double sum_sq = 0.0;
    for (std::size_t i = 0; i < fast.vc.size(); ++i) {
      const double err = fast.vc[i] - oracle_on_grid[i];
      max_abs = std::max(max_abs, std::abs(err));
      sum_sq += err * err;
    }
    metrics.vc_max_rel_error = max_abs / scale;
    metrics.vc_rms_rel_error =
        std::sqrt(sum_sq / static_cast<double>(fast.vc.size())) / scale;
  }

  // Final Vc uses the PR-6 bench convention max(1, |oracle|) so a nearly
  // discharged capacitor does not divide by a micro-volt.
  metrics.final_vc_rel_error =
      std::abs(fast.final_vc - oracle.final_vc) / std::max(1.0, std::abs(oracle.final_vc));

  const double oracle_energy = binned_energy(oracle, power_bin_width);
  const double fast_energy = binned_energy(fast, power_bin_width);
  metrics.energy_rel_error = rel_error(oracle_energy, fast_energy, 1e-12);

  metrics.resonance_rel_error =
      rel_error(oracle.final_resonance_hz, fast.final_resonance_hz, 1e-9);
  return metrics;
}

AccuracyReport run_accuracy(const ExperimentSpec& spec, const AccuracyOptions& options) {
  return run_accuracy_jobs(spec.name, {spec}, options);
}

AccuracyReport run_accuracy(const SweepSpec& sweep, const AccuracyOptions& options) {
  for (const SweepAxis& axis : sweep.axes) {
    if (axis.is_engine_axis()) {
      throw ModelError("run_accuracy '" + sweep.base.name +
                       "': engine axes are not measurable — one engine per report");
    }
  }
  return run_accuracy_jobs(sweep.base.name, sweep.expand(), options);
}

}  // namespace ehsim::experiments
