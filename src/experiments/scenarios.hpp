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
/// control events and CPU statistics; `run_scenario_batch` fans independent
/// jobs over a thread pool with deterministic, bit-identical-to-serial
/// results.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "experiments/experiment_spec.hpp"
#include "experiments/warm_start.hpp"
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

/// How run_scenario_batch executes the jobs of a batch.
enum class BatchKernel {
  /// Independent jobs over the thread pool (the default; bit-identical to a
  /// serial run of the same jobs).
  kJobs,
  /// Lockstep SoA march (sim/lockstep_batch.hpp): every job advances on one
  /// global clock and jobs with coinciding linearisation signatures share
  /// one Jacobian assembly + LU factorisation per step. Requires
  /// EngineKind::kProposed on every job. Batches of identical jobs (and the
  /// identical prefix of sweep points that differ only in later excitation
  /// events) reproduce the per-job trajectories bit for bit; once members
  /// diverge, shared linearisations keep results within the documented
  /// io::compare tolerances of the per-job reference. The march is serial —
  /// BatchOptions::threads is ignored, and results are identical for any
  /// requested thread count.
  kLockstep,
};

/// Stable identifier ("jobs" | "lockstep") — the JSON / CLI vocabulary.
[[nodiscard]] const char* batch_kernel_id(BatchKernel kernel);
/// Inverse of batch_kernel_id; throws ModelError on unknown ids.
[[nodiscard]] BatchKernel parse_batch_kernel(std::string_view id);

/// How a job's initial operating point was established.
enum class WarmStartOutcome {
  kCold,      ///< consistency iterations started from zero (the default)
  kSeeded,    ///< started from a cached operating point (warm-start hit)
  kRejected,  ///< a seed was offered but rejected/failed — cold fallback
};

struct ScenarioResult {
  std::string scenario;
  std::string engine;
  double sim_seconds = 0.0;
  double cpu_seconds = 0.0;
  core::SolverStats stats;
  /// This job's PWL diode table came out of the process-wide shared-table
  /// cache (see pwl/table_cache.hpp) instead of being built privately.
  bool shared_diode_table = false;
  WarmStartOutcome warm_start = WarmStartOutcome::kCold;
  /// Converged t=0 terminal vector, captured right after initialisation —
  /// the operating point later warm starts reuse (not serialised).
  std::vector<double> initial_terminals;
  /// Batch kernel that produced this result, plus the batch-wide lockstep
  /// work-sharing counters mirrored onto every result of the batch (see
  /// sim/lockstep_batch.hpp). Serialised as an optional "batch" block only
  /// when the lockstep kernel ran, so kJobs results are byte-identical to the
  /// pre-lockstep output.
  BatchKernel batch_kernel = BatchKernel::kJobs;
  std::uint64_t lockstep_groups = 0;
  std::uint64_t shared_factorisations = 0;

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

/// Per-run execution options beyond the spec itself.
struct RunOptions {
  /// Used instead of experiment_params(spec) when non-null (perturbed-plant
  /// runs of the synthetic-measurement generator).
  const harvester::HarvesterParams* params_override = nullptr;
  /// Non-empty: seed the engine's initial consistency iterations from this
  /// previously converged terminal vector. The seeded solve converges to the
  /// engine's own init tolerance; if the engine rejects the seed or the
  /// seeded solve fails to converge, the run falls back to a cold start and
  /// the result reports WarmStartOutcome::kRejected.
  std::span<const double> initial_terminals{};
};

/// Run an experiment spec on its engine. When \p params_override is non-null
/// it is used instead of experiment_params(spec) (used by the synthetic-
/// measurement generator, which perturbs the plant).
[[nodiscard]] ScenarioResult run_experiment(const ExperimentSpec& spec,
                                            const harvester::HarvesterParams* params_override =
                                                nullptr);

/// Run an experiment spec with explicit execution options (warm starts).
[[nodiscard]] ScenarioResult run_experiment(const ExperimentSpec& spec,
                                            const RunOptions& options);

/// A fully wired, initialised (but not yet run) experiment: the model,
/// excitation, probes/observers and the converged t=0 operating point of one
/// run_experiment call, stopped right before the transient. prepare_run /
/// finish_run split run_experiment in two so long-lived callers (the serve
/// session pool) can keep assembled-and-initialised models warm across
/// requests; for any spec and options,
/// `finish_run(spec, prepare_run(spec, options))` is bit-identical to
/// `run_experiment(spec, options)`. Move-only; a prepared run is one-shot —
/// finish_run consumes it.
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
  /// How the t=0 operating point was established. kRejected means a seed was
  /// offered but failed — prepare_run already restarted cold, so the run is
  /// usable either way.
  [[nodiscard]] WarmStartOutcome warm_start() const;
  /// Converged t=0 terminal vector (the seed later warm starts reuse).
  [[nodiscard]] const std::vector<double>& initial_terminals() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
  friend PreparedRun prepare_run(const ExperimentSpec&, const RunOptions&);
  friend ScenarioResult finish_run(const ExperimentSpec&, PreparedRun&);
};

/// First half of run_experiment: build the session, install probes and the
/// power-bin observer, establish the t=0 operating point (seeded when
/// RunOptions::initial_terminals is non-empty, with the same
/// rejected-seed-restarts-cold fallback as run_experiment). Throws what
/// run_experiment would throw for the same spec.
[[nodiscard]] PreparedRun prepare_run(const ExperimentSpec& spec,
                                      const RunOptions& options = {});

/// Second half of run_experiment: march the prepared session to
/// spec.duration and collect the ScenarioResult. \p spec must be the spec
/// the run was prepared with (the split exists to separate *when* the two
/// halves execute, not to mix specs). Consumes the run (valid() turns
/// false); throws ModelError on an invalid one.
[[nodiscard]] ScenarioResult finish_run(const ExperimentSpec& spec, PreparedRun& run);

/// Build a session for \p spec, establish the t=0 operating point and return
/// the converged terminal vector — the warm-start seed producer (no
/// transient is run). \p init_iterations, when non-null, receives the
/// consistency iterations the cold solve spent.
[[nodiscard]] std::vector<double> compute_initial_operating_point(
    const ExperimentSpec& spec, const harvester::HarvesterParams* params_override = nullptr,
    std::uint64_t* init_iterations = nullptr);

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
  /// Jobs whose immutable PWL diode table was shared from the process-wide
  /// cache rather than rebuilt (ROADMAP hot-path item: identical model
  /// structure across a sweep pays for one table build).
  std::size_t shared_table_hits = 0;
  /// Jobs whose initial operating point was seeded from the warm-start
  /// cache (0 with BatchOptions::warm_start off).
  std::size_t warm_start_hits = 0;
  /// Jobs where a seed was offered but rejected or failed to converge (the
  /// job fell back to a cold start — correctness unaffected).
  std::size_t warm_start_rejects = 0;
  /// Total consistency iterations spent establishing operating points
  /// across the batch, *including* the warm-start seed producers — the
  /// honest cost warm starts are measured against.
  std::uint64_t init_iterations = 0;
  /// Lockstep work-sharing counters (all 0 under BatchKernel::kJobs); exact
  /// semantics in sim/lockstep_batch.hpp (LockstepCounters).
  std::uint64_t lockstep_groups = 0;
  std::uint64_t shared_factorisations = 0;
};

/// Execution options of one run_scenario_batch call.
struct BatchOptions {
  /// Worker count: 0 picks the hardware concurrency, 1 runs serially.
  std::size_t threads = 0;
  /// Opt-in cross-job operating-point warm starts (see warm_start.hpp).
  /// Before the fan-out, one cold "producer" init runs serially per distinct
  /// structural signature; every job is then seeded from its signature's
  /// producer. Seeds are assigned by signature — never by scheduling — so
  /// parallel warm-started batches stay deterministic and job-order
  /// reproducible; jobs with exactly equal parameter vectors are even
  /// bit-identical to their cold runs. Default off: results are byte-
  /// identical to the pre-warm-start behaviour.
  bool warm_start = false;
  /// Relative parameter quantum of the warm-start signature (<= 0: exact
  /// parameter equality required to share a seed).
  double warm_start_quantum = kWarmStartQuantum;
  /// Batch execution kernel. The lockstep kernel requires every job to run
  /// EngineKind::kProposed (ModelError otherwise) and marches serially; the
  /// shared march wall-clock is attributed evenly across the jobs'
  /// ScenarioResult::cpu_seconds. Warm starts compose: the seed phase runs
  /// before the march exactly as under kJobs.
  BatchKernel batch_kernel = BatchKernel::kJobs;
  /// Cross-batch operating-point cache (the serve daemon's cross-request
  /// store). When non-null and warm_start is on, seeds are looked up in this
  /// caller-owned cache instead of a per-call one: entries persist across
  /// calls, so even singleton-signature jobs get seeded when an earlier
  /// batch already converged their signature. After the batch, every job
  /// that converged *cold* stores its operating point back (first store per
  /// signature wins, in job order — scheduling-independent), and rejected
  /// seeds are replaced by the cold fallback's point. Only cold-converged
  /// points are ever stored, so with warm_start_quantum <= 0 (exact
  /// signatures) a seeded job is bit-identical to its cold run and the cache
  /// can never serve a tolerance-converged point under an exact key.
  /// Ignored when warm_start is false. Not synchronised — one batch at a
  /// time per cache.
  OperatingPointCache* warm_cache = nullptr;
};

// ---- Checkpoint / restart -------------------------------------------------

/// Periodic mid-run checkpointing of experiments and batches. Checkpoints
/// are cut at absolute simulated times k * `every` (k = 1, 2, ...), so the
/// boundary schedule — and therefore the trajectory, which lands exactly on
/// each boundary — is a pure function of the options, never of when a
/// process died. A killed run resumed from its last checkpoint file is
/// bit-identical (modulo cpu_seconds) to an uninterrupted run *with the same
/// checkpoint options*; runs without checkpointing stay byte-identical to
/// the pre-checkpoint behaviour. Document format: docs/checkpoint_format.md.
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
  /// never silently continues a different experiment.
  bool resume = false;
  /// Test hook (the resume goldens' deterministic "kill"): stop after this
  /// many checkpoint writes per job — the run returns std::nullopt instead
  /// of a result, leaving the files on disk. < 0: never.
  int abort_after = -1;
  /// Invoked after each checkpoint file write (the serve daemon's NDJSON
  /// `checkpoint` events): (path, job name, simulated time). May be empty.
  /// Called from worker threads under BatchKernel::kJobs.
  std::function<void(const std::string& path, const std::string& job, double sim_time)>
      on_checkpoint;
};

/// The checkpoint file of one job under \p options.dir (the stem is
/// io::safe_file_stem(job_name), so sweep job names with '/' separators
/// flatten to one file each).
[[nodiscard]] std::string checkpoint_file_path(const CheckpointOptions& options,
                                               const std::string& job_name);

/// run_experiment with periodic checkpoints (and optional resume). Returns
/// std::nullopt only when CheckpointOptions::abort_after stopped the run.
[[nodiscard]] std::optional<ScenarioResult> run_experiment_checkpointed(
    const ExperimentSpec& spec, const RunOptions& options,
    const CheckpointOptions& checkpointing);

/// run_scenario_batch with per-job checkpoint files. Under kJobs every job
/// checkpoints at its own absolute boundaries on the worker threads; under
/// the lockstep kernel the batch marches in global chunks of `every`
/// simulated seconds with a fresh lockstep march per chunk (work-sharing
/// caches reset at each boundary — part of the deterministic-chunking
/// contract) and all jobs checkpoint together at each boundary, with the
/// accumulated work-sharing counters carried in each file. Returns
/// std::nullopt when abort_after stopped any job.
[[nodiscard]] std::optional<std::vector<ScenarioResult>> run_scenario_batch_checkpointed(
    const std::vector<ScenarioJob>& jobs, const BatchOptions& options,
    const CheckpointOptions& checkpointing, BatchStats* stats = nullptr);

/// Execute a sweep of independent scenario jobs across a fixed thread pool.
/// Results come back in job order; because every job owns its model and
/// engine, the parallel traces are bit-identical to a serial run (threads
/// = 1) of the same jobs. threads = 0 uses the hardware concurrency. An
/// empty job vector returns immediately without spinning up the pool.
[[nodiscard]] std::vector<ScenarioResult> run_scenario_batch(
    const std::vector<ScenarioJob>& jobs, std::size_t threads = 0,
    BatchStats* stats = nullptr);

/// Batch execution with explicit options (warm starts, thread count).
[[nodiscard]] std::vector<ScenarioResult> run_scenario_batch(
    const std::vector<ScenarioJob>& jobs, const BatchOptions& options,
    BatchStats* stats = nullptr);

}  // namespace ehsim::experiments
