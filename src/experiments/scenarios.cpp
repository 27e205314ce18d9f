#include "experiments/scenarios.hpp"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <limits>
#include <map>
#include <optional>
#include <utility>

#include "common/error.hpp"
#include "core/linearised_solver.hpp"
#include "core/trace.hpp"
#include "experiments/metrics.hpp"
#include "io/spec_json.hpp"
#include "io/state_json.hpp"
#include "sim/batch_runner.hpp"
#include "sim/checkpoint.hpp"

namespace ehsim::experiments {

ExperimentSpec scenario1() {
  ExperimentSpec spec;
  spec.name = "scenario1-1hz";
  spec.duration = 300.0;
  spec.pre_tuned_hz = 70.0;
  spec.excitation.initial_frequency_hz = 70.0;
  spec.excitation.step_frequency(60.0, 71.0);
  return spec;
}

ExperimentSpec scenario2() {
  ExperimentSpec spec;
  spec.name = "scenario2-14hz";
  spec.duration = 3300.0;
  spec.pre_tuned_hz = 64.2;  // relaxed actuator: lowest achievable resonance
  spec.excitation.initial_frequency_hz = 64.2;
  spec.excitation.step_frequency(60.0, 78.0);
  spec.trace_interval = 0.25;
  spec.power_bin_width = 2.0;
  return spec;
}

ExperimentSpec charging_scenario(double duration) {
  ExperimentSpec spec;
  spec.name = "supercap-charging";
  spec.duration = duration;
  spec.pre_tuned_hz = 70.0;
  spec.excitation.initial_frequency_hz = 70.0;
  spec.with_mcu = false;
  // Table I charges the storage from empty.
  spec.overrides.push_back(ParamOverride{"supercap.initial_voltage", 0.0});
  return spec;
}

sim::HarvesterSession make_experiment_session(const ExperimentSpec& spec,
                                              const harvester::HarvesterParams* params_override) {
  const harvester::HarvesterParams params =
      params_override != nullptr ? *params_override : experiment_params(spec);

  sim::HarvesterSession::Options options;
  options.mode = device_mode_for(spec.engine);
  options.with_mcu = spec.with_mcu;
  options.engine_factory = [kind = spec.engine,
                            solver = spec.solver](core::SystemAssembler& system) {
    return make_engine(kind, system, solver);
  };
  sim::HarvesterSession session(params, options);
  spec.excitation.apply(session.system().vibration());
  session.enable_trace(spec.trace_interval).probe_net("Vc");
  return session;
}

namespace {

/// A session wired and initialised for run_experiment, stopped right before
/// the transient. Every execution path drives it through Session::run_until.
/// The session and the power accumulator live on the heap so the observer
/// installed into the session survives moves of the struct.
struct PreparedExperiment {
  std::unique_ptr<sim::HarvesterSession> session;
  std::unique_ptr<BinnedAccumulator> power_bins;
  std::size_t bins = 0;
};

PreparedExperiment prepare_experiment(const ExperimentSpec& spec,
                                      const harvester::HarvesterParams* params_override) {
  PreparedExperiment prep;
  prep.session = std::make_unique<sim::HarvesterSession>(
      make_experiment_session(spec, params_override));
  sim::HarvesterSession& run = *prep.session;

  prep.bins = static_cast<std::size_t>(std::ceil(spec.duration / spec.power_bin_width)) + 1;
  prep.power_bins =
      std::make_unique<BinnedAccumulator>(0.0, spec.power_bin_width, prep.bins);
  BinnedAccumulator* power_bins = prep.power_bins.get();
  const std::size_t vm = run.system().vm_index();
  const std::size_t im = run.system().im_index();
  run.add_observer(
      [power_bins, vm, im](double t, std::span<const double>, std::span<const double> y) {
        power_bins->add(t, y[vm] * y[im]);
      });
  // The power accumulator is workload state the Session cannot see — ride
  // the checkpoint as a named section next to the model's own.
  run.session().register_checkpoint_section(
      "power_bins", [power_bins] { return power_bins->checkpoint_state(); },
      [power_bins](const io::JsonValue& state) { power_bins->restore_checkpoint_state(state); });
  install_probes(run, spec.probes, spec.duration);
  run.initialise(0.0);
  return prep;
}

/// Assemble the ScenarioResult of a prepared session whose transient has
/// completed.
ScenarioResult collect_experiment(const ExperimentSpec& spec, PreparedExperiment& prep) {
  sim::HarvesterSession& run = *prep.session;
  BinnedAccumulator& power_bins = *prep.power_bins;

  ScenarioResult result;
  result.scenario = spec.name;
  result.engine = run.engine().engine_name();
  result.sim_seconds = spec.duration;
  result.cpu_seconds = run.cpu_seconds();
  result.stats = run.stats();
  const core::TraceRecorder& trace = run.session().trace();
  result.time = trace.times();
  result.vc = trace.column("Vc");
  result.final_vc = result.vc.empty() ? 0.0 : result.vc.back();
  result.final_resonance_hz = run.system().generator().resonant_frequency(spec.duration);
  result.probes = collect_probe_results(run, spec.probes);
  if (run.system().mcu() != nullptr) {
    result.mcu_events = run.system().mcu()->events();
  }

  result.power_time.reserve(prep.bins);
  result.power_mean.reserve(prep.bins);
  result.power_rms.reserve(prep.bins);
  for (std::size_t i = 0; i < prep.bins; ++i) {
    if (power_bins.bin_center(i) > spec.duration) {
      break;
    }
    result.power_time.push_back(power_bins.bin_center(i));
    result.power_mean.push_back(power_bins.bin_mean(i));
    result.power_rms.push_back(power_bins.bin_rms(i));
  }

  // Windowed RMS power: "tuned before" ends at the first excitation event;
  // "tuned after" starts once the last tuning burst completed (falls back to
  // the final fifth of the run when there was no tuning).
  // The paper's "RMS power" figures (118/117/116 uW) are time-averaged
  // powers (the RMS-voltage x RMS-current convention), i.e. the mean of the
  // instantaneous p(t) = Vm*Im over the window.
  const double before_end = spec.excitation.first_event_time().value_or(spec.duration);
  result.rms_power_before = power_bins.mean_over(std::max(0.0, before_end - 30.0),
                                                 before_end - spec.power_bin_width);
  double after_start = spec.duration * 0.8;
  for (const auto& event : result.mcu_events) {
    if (event.type == harvester::McuEvent::Type::kTuningCompleted) {
      after_start = event.time + 5.0;
    }
  }
  result.rms_power_after =
      power_bins.mean_over(std::min(after_start, spec.duration - spec.power_bin_width),
                           spec.duration);
  return result;
}

// ---------------------------------------------------------------------------
// Checkpoint / restart plumbing
// ---------------------------------------------------------------------------

/// Workload-layer metadata embedded in every job checkpoint: the spec it was
/// cut from (verified at resume — a checkpoint never silently continues a
/// different experiment) and the boundary coordinates.
io::JsonValue checkpoint_meta(const ExperimentSpec& spec, double sim_time, std::uint64_t index) {
  io::JsonValue meta = io::JsonValue::make_object();
  meta.set("spec", io::to_json(spec));
  meta.set("sim_time", io::real_to_json(sim_time));
  meta.set("checkpoint_index", io::u64_to_json(index));
  // Position in the expanded excitation stream (random-walk updates
  // included) — resume re-expands the schedule from its seed and verifies
  // the cursor, so a restored run provably resumes the drift mid-walk.
  meta.set("drift_cursor", io::u64_to_json(spec.excitation.expansion_cursor(sim_time)));
  return meta;
}

/// Parsed checkpoint_meta (the embedded spec already verified).
struct CheckpointMetaInfo {
  double sim_time = 0.0;
  std::uint64_t index = 0;
};

CheckpointMetaInfo parse_checkpoint_meta(const sim::Checkpoint& checkpoint,
                                         const ExperimentSpec& spec, const std::string& what) {
  const io::JsonValue& meta = checkpoint.meta;
  io::check_state_keys(meta, what,
                       {"spec", "sim_time", "checkpoint_index", "drift_cursor", "batch"});
  // Older writers emitted "batch": null for every job; a non-null value
  // came from the retired lockstep march, whose state no run reproduces.
  const io::JsonValue* batch = meta.find("batch");
  if (batch != nullptr && !batch->is_null()) {
    throw ModelError(what + ".batch: written by the retired lockstep march, whose "
                     "bounded-error state cannot be resumed — rerun the job from t = 0");
  }
  const ExperimentSpec saved = io::experiment_from_json(io::require_key(meta, what, "spec"));
  if (!(saved == spec)) {
    throw ModelError(what + ": embedded spec does not match job '" + spec.name +
                     "' — refusing to resume a different experiment");
  }
  CheckpointMetaInfo info;
  info.sim_time =
      io::real_from_json(io::require_key(meta, what, "sim_time"), what + ".sim_time");
  info.index = io::u64_from_json(io::require_key(meta, what, "checkpoint_index"),
                                 what + ".checkpoint_index");
  const std::uint64_t drift_cursor = io::u64_from_json(
      io::require_key(meta, what, "drift_cursor"), what + ".drift_cursor");
  const std::uint64_t expected_cursor =
      static_cast<std::uint64_t>(spec.excitation.expansion_cursor(info.sim_time));
  if (drift_cursor != expected_cursor) {
    throw ModelError(what + ": excitation expansion cursor " + std::to_string(drift_cursor) +
                     " does not match the re-expanded schedule (" +
                     std::to_string(expected_cursor) +
                     ") — the drift stream would diverge from the checkpointed run");
  }
  return info;
}

/// March a prepared job to spec.duration: the one loop every job's own
/// march takes, plain, checkpointed or resumed. When resuming, it first
/// restores the job's file, which must be a boundary of the requested
/// cadence. Without a cadence it runs to the end in one go; with one it
/// marches in chunks to k * every and commits a checkpoint at each boundary
/// (written beside the file, then renamed over it, so a kill mid-write
/// leaves the previous boundary's file intact). Throws CheckpointAbort once
/// the abort_after hook's count of files is written.
void march(const ExperimentSpec& spec, PreparedExperiment& prep,
           const std::optional<CheckpointOptions>& checkpointing) {
  const double every = checkpointing ? checkpointing->every : 0.0;
  const std::string path = checkpointing ? checkpoint_file_path(*checkpointing, spec.name) : "";
  double t = 0.0;
  std::uint64_t index = 0;
  if (checkpointing && checkpointing->resume && std::filesystem::exists(path)) {
    const std::string what = "checkpoint '" + path + "'";
    const sim::Checkpoint checkpoint = sim::Checkpoint::read_file(path);
    const CheckpointMetaInfo info = parse_checkpoint_meta(checkpoint, spec, what);
    // An uninterrupted run at this cadence cuts boundary k at exactly
    // k * every; a file cut elsewhere would resume onto other boundaries.
    if (every > 0.0 && info.sim_time < spec.duration &&
        static_cast<double>(info.index) * every != info.sim_time) {
      throw ModelError(what + " was cut at t = " + io::JsonValue(info.sim_time).dump() +
                       " (checkpoint " + std::to_string(info.index) +
                       "), which is not a boundary of the requested checkpoint cadence " +
                       io::JsonValue(every).dump() +
                       " s — resume with the cadence it was written at, or with none");
    }
    prep.session->restore_checkpoint(checkpoint);
    t = info.sim_time;
    index = info.index;
  }
  int written = 0;
  while (t < spec.duration) {
    const double target =
        every > 0.0 ? std::min(spec.duration, static_cast<double>(index + 1) * every)
                    : spec.duration;
    prep.session->run_until(target);
    t = target;
    if (every > 0.0) {
      ++index;
      const std::string staged = path + ".next";
      prep.session->save_checkpoint(checkpoint_meta(spec, t, index)).write_file(staged);
      std::filesystem::rename(staged, path);
      if (checkpointing->on_checkpoint) {
        checkpointing->on_checkpoint(path, spec.name, t);
      }
      ++written;
      if (checkpointing->abort_after >= 0 && written >= checkpointing->abort_after) {
        throw CheckpointAbort("job '" + spec.name + "' stopped after " +
                              std::to_string(written) + " checkpoint(s)");
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Prefix forks
// ---------------------------------------------------------------------------

/// First time the excitation event lists of two fork-compatible specs stop
/// agreeing; +inf when they are identical. Before this time the two systems
/// receive bitwise-identical inputs.
double excitation_divergence(const ExcitationSchedule& a, const ExcitationSchedule& b) {
  const std::size_t common = std::min(a.events.size(), b.events.size());
  for (std::size_t k = 0; k < common; ++k) {
    if (!(a.events[k] == b.events[k])) {
      return std::min(a.events[k].time, b.events[k].time);
    }
  }
  if (a.events.size() > common) {
    return a.events[common].time;
  }
  if (b.events.size() > common) {
    return b.events[common].time;
  }
  return std::numeric_limits<double>::infinity();
}

/// A leader's state at one fork time: the session snapshot (taken without a
/// cut) and the solver linearisations the snapshot leaves out.
struct Fork {
  sim::Checkpoint checkpoint;
  core::LinearisedSolver::LinearisationTransplant linearisations;
};

/// The engine of a proposed-engine job (the only kind the plan forks).
core::LinearisedSolver& linearised_solver(PreparedExperiment& prep) {
  return dynamic_cast<core::LinearisedSolver&>(prep.session->engine());
}

/// The batch path of run_scenario_batch. A job forks from the first earlier
/// leader that runs the proposed engine, has the same device parameters,
/// and has a spec that differs only in name and in excitation events from
/// some time d > 0 on. Each leader marches once to the last accepted point
/// before each of its followers' fork times (no step is shortened or added
/// there), and a snapshot of it is restored into each follower when the
/// follower's tail starts. Leader legs, then every job's own continuation,
/// run as BatchRunner items, so results equal a run_experiment of each job
/// bit for bit at any thread count. Checkpointed jobs cut their own
/// boundaries and never fork. Fills the fork counters of \p stats.
std::vector<ScenarioResult> run_forked_batch(const std::vector<ScenarioJob>& jobs,
                                             const BatchOptions& options, BatchStats& stats) {
  const std::size_t n = jobs.size();

  // The plan, in one pass. Jobs fall into fork classes by masked spec (no
  // name, no events); the trace, power-bin and probe settings stay in it,
  // because a fork hands on the leader's observer state. Within its class a
  // job searches the roots, the jobs that forked from no one. Forkability is
  // an equivalence relation, so searching the roots alone finds every fork
  // and keeps leader sets flat.
  constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();
  std::vector<std::size_t> leader(n, kNone);
  std::vector<double> fork_time(n, 0.0);
  std::vector<std::vector<double>> fork_times(n);  // per leader
  std::map<ExperimentSpec, std::size_t> class_of;  // masked spec -> first job of the class
  std::vector<std::vector<std::size_t>> roots(n);  // per class, by its first job
  std::vector<harvester::HarvesterParams> params(n);
  for (std::size_t i = 0; i < n; ++i) {
    const ScenarioJob& job = jobs[i];
    if (job.spec.engine != EngineKind::kProposed || options.checkpoint) {
      continue;
    }
    params[i] = job.params ? *job.params : experiment_params(job.spec);
    ExperimentSpec masked = job.spec;
    masked.name.clear();
    masked.excitation.events.clear();
    const auto slot = class_of.try_emplace(masked, i).first;
    // A NaN orders like everything and equals nothing: such a job stays alone.
    const std::size_t first = slot->first == masked ? slot->second : i;
    for (const std::size_t r : roots[first]) {
      if (params[r] == params[i]) {
        const double d = excitation_divergence(jobs[r].spec.excitation, job.spec.excitation);
        if (d > 0.0) {
          leader[i] = r;
          fork_time[i] = d;
          fork_times[r].push_back(d);
          ++stats.shared_factorisations;
          break;
        }
      }
    }
    if (leader[i] == kNone) {
      roots[first].push_back(i);
    }
  }
  std::vector<std::size_t> leaders;
  for (std::size_t r = 0; r < n; ++r) {
    if (!fork_times[r].empty()) {
      leaders.push_back(r);
      std::sort(fork_times[r].begin(), fork_times[r].end());
      fork_times[r].erase(std::unique(fork_times[r].begin(), fork_times[r].end()),
                          fork_times[r].end());
      stats.lockstep_groups += fork_times[r].size();
    }
  }

  // Leader legs: march to each fork time in turn, snapshot, march on.
  sim::BatchRunner runner(options.threads);
  std::vector<PreparedExperiment> prepared(n);
  std::vector<std::vector<Fork>> forks(n);
  runner.for_each_index(leaders.size(), [&](std::size_t k) {
    const std::size_t r = leaders[k];
    const ScenarioJob& job = jobs[r];
    PreparedExperiment prep = prepare_experiment(job.spec, job.params ? &*job.params : nullptr);
    core::LinearisedSolver& solver = linearised_solver(prep);
    for (const double d : fork_times[r]) {
      solver.pause_before(d);
      prep.session->run_until(job.spec.duration);
      Fork fork{prep.session->session().snapshot(), solver.linearisation_transplant()};
      // The prefix is the leader's cost; a follower counts from its fork.
      fork.checkpoint.payload.set("cpu_seconds", io::real_to_json(0.0));
      forks[r].push_back(std::move(fork));
    }
    solver.pause_before(std::numeric_limits<double>::infinity());
    prepared[r] = std::move(prep);
  });

  // Every job's own continuation; a follower's session exists only while
  // its tail runs.
  std::vector<ScenarioResult> results(n);
  runner.for_each_index(n, [&](std::size_t i) {
    const ScenarioJob& job = jobs[i];
    PreparedExperiment prep = prepared[i].session
                                  ? std::move(prepared[i])
                                  : prepare_experiment(job.spec, job.params ? &*job.params
                                                                            : nullptr);
    if (leader[i] != kNone) {
      const std::vector<double>& times = fork_times[leader[i]];
      const Fork& fork = forks[leader[i]][static_cast<std::size_t>(
          std::lower_bound(times.begin(), times.end(), fork_time[i]) - times.begin())];
      prep.session->restore_checkpoint(fork.checkpoint);
      linearised_solver(prep).transplant(fork.linearisations);
    }
    march(job.spec, prep, options.checkpoint);
    results[i] = collect_experiment(job.spec, prep);
  });
  return results;
}

}  // namespace

struct PreparedRun::Impl {
  PreparedExperiment prep;
};

PreparedRun::PreparedRun() noexcept = default;
PreparedRun::PreparedRun(PreparedRun&&) noexcept = default;
PreparedRun& PreparedRun::operator=(PreparedRun&&) noexcept = default;
PreparedRun::~PreparedRun() = default;

bool PreparedRun::valid() const noexcept { return impl_ != nullptr; }

PreparedRun prepare_run(const ExperimentSpec& spec,
                        const harvester::HarvesterParams* params_override) {
  PreparedRun run;
  run.impl_ = std::make_unique<PreparedRun::Impl>();
  run.impl_->prep = prepare_experiment(spec, params_override);
  return run;
}

ScenarioResult finish_run(const ExperimentSpec& spec, PreparedRun& run) {
  if (!run.valid()) {
    throw ModelError("finish_run: run is not prepared (default-constructed, moved-from or "
                     "already finished)");
  }
  PreparedExperiment& prep = run.impl_->prep;
  march(spec, prep, std::nullopt);
  ScenarioResult result = collect_experiment(spec, prep);
  run.impl_.reset();  // the transient has consumed the session
  return result;
}

ScenarioResult run_experiment(const ExperimentSpec& spec,
                              const harvester::HarvesterParams* params_override) {
  PreparedRun run = prepare_run(spec, params_override);
  return finish_run(spec, run);
}

std::string checkpoint_file_path(const CheckpointOptions& options, const std::string& job_name) {
  return (std::filesystem::path(options.dir) / (io::safe_file_stem(job_name) + ".ckpt.json"))
      .string();
}

std::vector<ScenarioResult> run_scenario_batch(const std::vector<ScenarioJob>& jobs,
                                               const BatchOptions& options,
                                               BatchStats* stats) {
  if (options.checkpoint) {
    if (options.checkpoint->dir.empty()) {
      throw ModelError("checkpointing: a checkpoint directory is required");
    }
    std::filesystem::create_directories(options.checkpoint->dir);
  }
  BatchStats batch;
  std::vector<ScenarioResult> results;
  if (!jobs.empty()) {  // an empty batch never spins up a thread pool
    results = run_forked_batch(jobs, options, batch);
  }
  batch.jobs = results.size();
  if (stats != nullptr) {
    *stats = batch;
  }
  return results;
}

}  // namespace ehsim::experiments
