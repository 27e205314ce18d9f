/// \file execute.hpp
/// \brief The one executor of the job verbs, shared by `ehsim <verb>` and
/// `ehsim serve`.
///
/// Every job verb (run, sweep, resume, ensemble, optimise, accuracy,
/// autotune) does the same four things: check that the spec is a flavour
/// the verb accepts (expected_spec_types), resolve the batch and checkpoint
/// options, call its experiments entry point, and write the verb's files.
/// execute() is that sequence, written once. What differs between the CLI
/// and the daemon is only how progress and results are reported, which is
/// the ExecuteSink: the daemon's sink streams NDJSON events, the CLI's
/// prints the summary lines. Because both run this one path, a daemon
/// response is the one-shot document of the same spec and flags, modulo
/// cpu_seconds.
#pragma once

#include <cstddef>
#include <optional>
#include <string>

#include "experiments/accuracy.hpp"
#include "experiments/autotune.hpp"
#include "experiments/ensemble.hpp"
#include "experiments/optimise_spec.hpp"
#include "experiments/scenarios.hpp"
#include "io/spec_json.hpp"
#include "serve/protocol.hpp"

namespace ehsim::serve {

/// Where execute() reports a job verb's progress and results. Results
/// arrive after their files are written.
class ExecuteSink {
 public:
  virtual ~ExecuteSink() = default;

  /// The verb passed its checks and starts running the named spec.
  virtual void started(const std::string& /*name*/) {}
  /// A sweep or ensemble is about to run this many jobs.
  virtual void progress(std::size_t /*jobs*/) {}
  /// A checkpoint file was committed: (path, job name, simulated time).
  /// Called from pool worker threads when a sweep checkpoints.
  virtual void checkpoint(const std::string& /*path*/, const std::string& /*job*/,
                          double /*sim_time*/) {}

  /// One result of run/sweep/resume: job \p job of \p jobs, where \p jobs is
  /// 0 for a single experiment.
  virtual void result(const experiments::ScenarioResult& result, std::size_t job,
                      std::size_t jobs) = 0;
  virtual void result(const experiments::EnsembleResult& result) = 0;
  virtual void result(const experiments::OptimiseResult& result) = 0;
  virtual void result(const experiments::AccuracyReport& report) = 0;
  virtual void result(const experiments::AutotuneOutcome& outcome) = 0;
};

/// What a job verb runs with besides its spec.
struct ExecuteOptions {
  /// Worker threads for sweeps, ensembles and accuracy batches (0: the
  /// spec's own setting, then the hardware concurrency; accuracy runs one
  /// thread). Single experiments and the optimise/autotune searches are
  /// serial.
  std::size_t threads = 0;
  /// Non-empty: write the verb's files under this directory —
  /// <stem>.result.json + .trace.csv per run and <stem>.<verb>.json for
  /// ensemble/optimise/accuracy/autotune documents (stems: io::file_stem).
  std::string out_dir{};
  /// run/sweep: periodic checkpoints; resume: the files to resume from
  /// (required). execute() sets `resume` and routes `on_checkpoint` to the
  /// sink; the verbs without checkpoints ignore it.
  std::optional<experiments::CheckpointOptions> checkpoint{};
  /// accuracy: the oracle step (<= 0: the oracle's default).
  double oracle_step = 0.0;
};

/// Run job verb \p verb on \p spec and report to \p sink. Throws ProtocolError
/// when the spec is not a flavour the verb accepts, and ModelError (or a
/// SolverError) from the run itself. When the checkpoint options'
/// abort_after test hook stopped the run, the experiments::CheckpointAbort
/// passes through: its files are on disk for a later resume, and nothing is
/// reported.
void execute(RequestType verb, const io::AnySpec& spec, const ExecuteOptions& options,
             ExecuteSink& sink);

}  // namespace ehsim::serve
