/// \file scenarios.hpp
/// \brief Experiment execution and the paper's canned scenario specs.
///
/// Scenario 1 (Table II / Fig. 8): narrow tuning range — the ambient
/// frequency shifts by 1 Hz (70 -> 71 Hz) and the harvester retunes once.
/// Scenario 2 (Table II / Fig. 9): wide tuning range — a 14 Hz shift
/// (64 -> 78 Hz), the design's maximum tuning range.
/// The Table I experiment is the plain supercapacitor charging run (fixed
/// excitation, no control activity).
///
/// All three are ExperimentSpec values — declarative data (see
/// experiment_spec.hpp) that also round-trips through JSON and the `ehsim`
/// CLI. `run_experiment` executes a spec on any of the four engines over
/// the *same* device model and digital control process and returns traces,
/// control events and CPU statistics; `run_scenario_batch` fans a batch of
/// jobs over a thread pool, marching the prefixes they share once, with
/// results bit-identical to running each job alone.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "experiments/experiment_spec.hpp"
#include "harvester/harvester_system.hpp"
#include "sim/harvester_session.hpp"

namespace ehsim::experiments {

/// Scenario 1: 1 Hz retune, 300 s span.
[[nodiscard]] ExperimentSpec scenario1();
/// Scenario 2: 14 Hz retune (maximum range), 3300 s span (11x scenario 1,
/// the paper's proposed-technique CPU ratio between the two scenarios).
[[nodiscard]] ExperimentSpec scenario2();
/// Table I: supercapacitor charging from empty at fixed 70 Hz excitation,
/// no microcontroller activity.
[[nodiscard]] ExperimentSpec charging_scenario(double duration);

struct ScenarioResult {
  std::string scenario;
  std::string engine;
  double sim_seconds = 0.0;
  double cpu_seconds = 0.0;
  core::SolverStats stats;

  std::vector<double> time;  ///< decimated trace times
  std::vector<double> vc;    ///< supercapacitor voltage trace

  std::vector<double> power_time;  ///< power bin centres
  std::vector<double> power_mean;  ///< mean generator output power per bin [W]
  std::vector<double> power_rms;   ///< RMS power per bin [W]

  /// Per-probe statistics (and recorded columns) in spec order; empty when
  /// the spec declared no probes.
  std::vector<ProbeResult> probes;

  std::vector<harvester::McuEvent> mcu_events;
  double final_resonance_hz = 0.0;
  double final_vc = 0.0;
  /// Windowed average power (the convention behind the paper's "RMS power"
  /// figures): tuned at the initial / shifted frequency [W].
  double rms_power_before = 0.0;
  double rms_power_after = 0.0;
};

/// Run an experiment spec on its engine. When \p params_override is non-null
/// it is used instead of experiment_params(spec) (used by the synthetic-
/// measurement generator, which perturbs the plant).
[[nodiscard]] ScenarioResult run_experiment(const ExperimentSpec& spec,
                                            const harvester::HarvesterParams* params_override =
                                                nullptr);

/// A fully wired, initialised (but not yet run) experiment: the model,
/// excitation, probes/observers and the converged t=0 operating point of one
/// run_experiment call, stopped right before the transient. prepare_run /
/// finish_run split run_experiment in two so callers can separate model
/// assembly and initialisation from the transient (benchmarks time the two
/// halves apart); for any spec and params override,
/// `finish_run(spec, prepare_run(spec, params_override))` is bit-identical
/// to `run_experiment(spec, params_override)`. Move-only; a prepared run is
/// one-shot — finish_run consumes it.
class PreparedRun {
 public:
  PreparedRun() noexcept;
  PreparedRun(PreparedRun&&) noexcept;
  PreparedRun& operator=(PreparedRun&&) noexcept;
  PreparedRun(const PreparedRun&) = delete;
  PreparedRun& operator=(const PreparedRun&) = delete;
  ~PreparedRun();

  /// False for a default-constructed, moved-from or finished run.
  [[nodiscard]] bool valid() const noexcept;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
  friend PreparedRun prepare_run(const ExperimentSpec&, const harvester::HarvesterParams*);
  friend ScenarioResult finish_run(const ExperimentSpec&, PreparedRun&);
};

/// First half of run_experiment: build the session, install probes and the
/// power-bin observer, establish the t=0 operating point. Throws what
/// run_experiment would throw for the same spec.
[[nodiscard]] PreparedRun prepare_run(
    const ExperimentSpec& spec, const harvester::HarvesterParams* params_override = nullptr);

/// Second half of run_experiment: march the prepared session to
/// spec.duration and collect the ScenarioResult. \p spec must be the spec
/// the run was prepared with (the split exists to separate *when* the two
/// halves execute, not to mix specs). Consumes the run (valid() turns
/// false); throws ModelError on an invalid one.
[[nodiscard]] ScenarioResult finish_run(const ExperimentSpec& spec, PreparedRun& run);

/// Build (but do not run) the complete experiment session: harvester model,
/// excitation schedule, engine and the decimated Vc trace are wired exactly
/// as run_experiment does. Exposed so callers can add probes/observers or
/// drive the timeline themselves.
[[nodiscard]] sim::HarvesterSession make_experiment_session(
    const ExperimentSpec& spec,
    const harvester::HarvesterParams* params_override = nullptr);

/// One job of a scenario sweep.
struct ScenarioJob {
  ExperimentSpec spec;
  /// Overrides experiment_params(spec) when set (perturbed-plant runs).
  std::optional<harvester::HarvesterParams> params{};
};

/// Aggregate statistics of one run_scenario_batch call.
struct BatchStats {
  std::size_t jobs = 0;
  /// Prefix forks, both 0 in checkpointed batches (the names stay for the
  /// benchmarks that read them): leader snapshots taken, one per distinct
  /// fork time of a leader.
  std::uint64_t lockstep_groups = 0;
  /// Jobs restored from a leader's snapshot.
  std::uint64_t shared_factorisations = 0;
};

/// Retired batch-kernel ids, kept only because perfbench/src/stages.cpp
/// still names them: both values run the one forked path of
/// run_scenario_batch. ROADMAP's benchmark carry-over deletes them with the
/// next benchmark change.
enum class BatchKernel { kJobs, kLockstep };

// ---- Checkpoint / restart -------------------------------------------------

/// Periodic mid-run checkpointing of a batch's jobs. Checkpoints are cut at
/// absolute simulated times k * `every` (k = 1, 2, ...), so the boundary
/// schedule — and therefore the trajectory, which lands exactly on each
/// boundary — is a pure function of the options, never of when a process
/// died. A killed run resumed from its last checkpoint file with the same
/// cadence is bit-identical (modulo cpu_seconds) to an uninterrupted run
/// *with the same checkpoint options*; a resume at another cadence is
/// refused. Runs without checkpointing stay byte-identical to the
/// pre-checkpoint behaviour. Document format: docs/checkpoint_format.md.
struct CheckpointOptions {
  /// Simulated seconds between checkpoints; <= 0 writes none (useful to
  /// resume a run and finish it without further checkpoints — note this
  /// stops cutting the chunk boundaries and so changes the tail trajectory
  /// relative to a run that kept checkpointing).
  double every = 0.0;
  /// Directory of the per-job checkpoint files,
  /// `<dir>/<safe_file_stem(job name)>.ckpt.json` (created as needed).
  std::string dir;
  /// Restore any job whose checkpoint file already exists in `dir` before
  /// running (missing files start the job from t = 0). The embedded spec is
  /// compared against the job's spec and a mismatch throws — a checkpoint
  /// never silently continues a different experiment — and so does a file
  /// that is not a boundary of `every` (when `every` > 0).
  bool resume = false;
  /// Test hook (the resume goldens' deterministic "kill"): once a job has
  /// written this many checkpoint files it throws CheckpointAbort, leaving
  /// the files on disk. The batch drains first, so every job stops at its
  /// own count. < 0: never.
  int abort_after = -1;
  /// Invoked after each checkpoint file write (the serve daemon's NDJSON
  /// `checkpoint` events): (path, job name, simulated time). May be empty.
  /// Called from the batch's worker threads.
  std::function<void(const std::string& path, const std::string& job, double sim_time)>
      on_checkpoint;
};

/// What a job throws once CheckpointOptions::abort_after stopped it. Not a
/// ModelError: nothing is wrong with the run, and its files resume it.
class CheckpointAbort : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// The checkpoint file of one job under \p options.dir (the stem is
/// io::safe_file_stem(job_name), so sweep job names with '/' separators
/// flatten to one file each).
[[nodiscard]] std::string checkpoint_file_path(const CheckpointOptions& options,
                                               const std::string& job_name);

/// Execution options of one run_scenario_batch call.
struct BatchOptions {
  /// Worker count: 0 picks the hardware concurrency, 1 runs serially.
  std::size_t threads = 0;
  /// Ignored; see BatchKernel.
  BatchKernel batch_kernel = BatchKernel::kJobs;
  /// Set: every job writes periodic checkpoint files (and resumes from
  /// them) and marches on its own; checkpointed jobs never fork.
  std::optional<CheckpointOptions> checkpoint{};
};

/// Execute a batch of scenario jobs across a fixed thread pool, in job
/// order. Jobs that share a prefix march it once: a job forks from the
/// first earlier leader that runs the proposed engine, has equal device
/// parameters, and has a spec that differs only in name and in excitation
/// events from some time d > 0 on. The leader stops at its last accepted
/// point before d; a snapshot of it is restored into each follower, and
/// every job continues on its own. Every other job runs on its own.
/// Results equal a run_experiment of each job bit for bit, at any thread
/// count, except cpu_seconds: a forked job's counts its march from the
/// fork, and the shared prefix counts once, in its leader's. With
/// options.checkpoint set no job forks, and the batch throws
/// CheckpointAbort when its abort_after hook stopped any job. threads = 0
/// uses the hardware concurrency. An empty job vector returns immediately
/// without spinning up the pool.
[[nodiscard]] std::vector<ScenarioResult> run_scenario_batch(
    const std::vector<ScenarioJob>& jobs, const BatchOptions& options = {},
    BatchStats* stats = nullptr);

}  // namespace ehsim::experiments
