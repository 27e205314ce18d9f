#include "serve/execute.hpp"

#include <filesystem>

#include "common/error.hpp"
#include "experiments/sweep.hpp"

namespace ehsim::serve {
namespace {

/// Write <dir>/<stem>.<kind>.json: the document of the verbs that produce
/// one (ensemble, optimise, accuracy, autotune).
void write_document(const std::string& dir, const std::string& name, const char* kind,
                    const io::JsonValue& json) {
  std::filesystem::create_directories(dir);
  io::write_file(io::file_stem(dir, name) + "." + kind + ".json", json.dump(2) + "\n");
}

/// run, sweep and resume: one experiment (as a one-job batch) or a sweep,
/// optionally checkpointed.
void run_scenarios(RequestType verb, const io::AnySpec& spec, const ExecuteOptions& options,
                   ExecuteSink& sink) {
  experiments::BatchOptions batch;
  batch.checkpoint = options.checkpoint;
  if (verb == RequestType::kResume && !batch.checkpoint) {
    throw ModelError("'resume' needs checkpoint options naming the directory to resume from");
  }
  if (batch.checkpoint) {
    batch.checkpoint->resume = verb == RequestType::kResume;
    batch.checkpoint->on_checkpoint = [&sink](const std::string& path, const std::string& job,
                                              double sim_time) {
      sink.checkpoint(path, job, sim_time);
    };
  }

  std::vector<experiments::ScenarioResult> results;
  std::size_t jobs = 0;
  if (const auto* sweep = spec.get_if<experiments::SweepSpec>()) {
    sweep->validate();
    sink.started(sweep->base.name);
    jobs = sweep->job_count();
    sink.progress(jobs);
    batch.threads = options.threads;
    results = experiments::run_sweep(*sweep, batch);
  } else {
    const auto& experiment = *spec.get_if<experiments::ExperimentSpec>();
    sink.started(experiment.name);
    batch.threads = 1;  // one job — run inline, never spin up a pool
    results = experiments::run_scenario_batch({{experiment, std::nullopt}}, batch);
  }
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (!options.out_dir.empty()) {
      io::write_result_files(options.out_dir, results[i]);
    }
    sink.result(results[i], i, jobs);
  }
}

}  // namespace

void execute(RequestType verb, const io::AnySpec& spec, const ExecuteOptions& options,
             ExecuteSink& sink) {
  check_spec_flavour(verb, spec);
  const std::string& out = options.out_dir;
  switch (verb) {
    case RequestType::kRun:
    case RequestType::kSweep:
    case RequestType::kResume:
      run_scenarios(verb, spec, options, sink);
      break;
    case RequestType::kEnsemble: {
      const auto& ensemble = *spec.get_if<experiments::EnsembleSpec>();
      sink.started(ensemble.base.name);
      sink.progress(ensemble.replica_seeds().size());
      const experiments::EnsembleResult result =
          experiments::run_ensemble(ensemble, {.threads = options.threads});
      if (!out.empty()) {
        write_document(out, result.name, "ensemble", io::to_json(result));
        for (const experiments::ScenarioResult& run : result.runs) {
          io::write_result_files(out, run);
        }
      }
      sink.result(result);
      break;
    }
    case RequestType::kOptimise: {
      const auto& optimise = *spec.get_if<experiments::OptimiseSpec>();
      sink.started(optimise.name);
      const experiments::OptimiseResult result = experiments::run_optimise(optimise);
      if (!out.empty()) {
        write_document(out, result.name, "optimise", io::to_json(result));
        io::write_result_files(out, result.best_run);
      }
      sink.result(result);
      break;
    }
    case RequestType::kAccuracy: {
      experiments::AccuracyOptions accuracy;
      accuracy.oracle_step = options.oracle_step;
      if (options.threads > 0) {
        accuracy.threads = options.threads;
      }
      const auto* sweep = spec.get_if<experiments::SweepSpec>();
      const auto* experiment = spec.get_if<experiments::ExperimentSpec>();
      sink.started(sweep != nullptr ? sweep->base.name : experiment->name);
      const experiments::AccuracyReport report =
          sweep != nullptr ? experiments::run_accuracy(*sweep, accuracy)
                           : experiments::run_accuracy(*experiment, accuracy);
      if (!out.empty()) {
        write_document(out, report.name, "accuracy", io::to_json(report));
      }
      sink.result(report);
      break;
    }
    case RequestType::kAutotune: {
      const auto& autotune = *spec.get_if<experiments::AutotuneSpec>();
      sink.started(autotune.name);
      const experiments::AutotuneOutcome outcome = experiments::run_autotune(autotune);
      if (!out.empty()) {
        write_document(out, outcome.result.name, "autotune", io::to_json(outcome.result));
        io::write_result_files(out, outcome.best_run);
      }
      sink.result(outcome);
      break;
    }
    case RequestType::kCancel:
    case RequestType::kStats:
    case RequestType::kShutdown:
      break;  // check_spec_flavour already refused: no control type takes a spec
  }
}

}  // namespace ehsim::serve
