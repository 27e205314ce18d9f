#include "experiments/scenarios.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <limits>
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
#include "sim/lockstep_batch.hpp"

namespace ehsim::experiments {

const char* batch_kernel_id(BatchKernel kernel) {
  switch (kernel) {
    case BatchKernel::kJobs:
      return "jobs";
    case BatchKernel::kLockstep:
      return "lockstep";
  }
  return "?";
}

BatchKernel parse_batch_kernel(std::string_view id) {
  for (const BatchKernel kernel : {BatchKernel::kJobs, BatchKernel::kLockstep}) {
    if (id == batch_kernel_id(kernel)) {
      return kernel;
    }
  }
  throw ModelError("unknown batch kernel '" + std::string(id) +
                   "' (expected jobs | lockstep)");
}

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
/// the transient. run_experiment drives it through Session::run_until; the
/// lockstep batch kernels march a whole vector of these on one clock. The
/// session and the power accumulator live on the heap so the observer
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
/// completed. \p cpu_seconds is passed explicitly because the lockstep
/// kernels advance members outside Session::run_until (the shared march
/// wall-clock is attributed evenly across the batch).
ScenarioResult collect_experiment(const ExperimentSpec& spec, PreparedExperiment& prep,
                                  double cpu_seconds) {
  sim::HarvesterSession& run = *prep.session;
  BinnedAccumulator& power_bins = *prep.power_bins;

  ScenarioResult result;
  result.scenario = spec.name;
  result.engine = run.engine().engine_name();
  result.sim_seconds = spec.duration;
  result.cpu_seconds = cpu_seconds;
  result.stats = run.stats();
  result.shared_diode_table = run.system().multiplier().table_shared();
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
/// different experiment), the boundary coordinates and the batch counters
/// the result reports but the Session cannot serialise itself.
io::JsonValue checkpoint_meta(const ExperimentSpec& spec, double sim_time, std::uint64_t index,
                              const sim::LockstepCounters* counters, BatchKernel kernel) {
  io::JsonValue meta = io::JsonValue::make_object();
  meta.set("spec", io::to_json(spec));
  meta.set("sim_time", io::real_to_json(sim_time));
  meta.set("checkpoint_index", io::u64_to_json(index));
  // Position in the expanded excitation stream (random-walk updates
  // included) — resume re-expands the schedule from its seed and verifies
  // the cursor, so a restored run provably resumes the drift mid-walk.
  meta.set("drift_cursor", io::u64_to_json(spec.excitation.expansion_cursor(sim_time)));
  if (counters != nullptr) {
    io::JsonValue batch = io::JsonValue::make_object();
    batch.set("kernel", batch_kernel_id(kernel));
    batch.set("lockstep_groups", io::u64_to_json(counters->lockstep_groups));
    batch.set("shared_factorisations", io::u64_to_json(counters->shared_factorisations));
    meta.set("batch", std::move(batch));
  } else {
    meta.set("batch", io::JsonValue(nullptr));
  }
  return meta;
}

/// Parsed checkpoint_meta (the embedded spec already verified).
struct CheckpointMetaInfo {
  double sim_time = 0.0;
  std::uint64_t index = 0;
  bool has_batch = false;
  std::string kernel_id;
  sim::LockstepCounters counters{};
};

CheckpointMetaInfo parse_checkpoint_meta(const sim::Checkpoint& checkpoint,
                                         const ExperimentSpec& spec, const std::string& what) {
  const io::JsonValue& meta = checkpoint.meta;
  io::check_state_keys(meta, what,
                       {"spec", "sim_time", "checkpoint_index", "drift_cursor", "batch"});
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
  const io::JsonValue& batch = io::require_key(meta, what, "batch");
  if (!batch.is_null()) {
    const std::string batch_what = what + ".batch";
    io::check_state_keys(batch, batch_what,
                         {"kernel", "lockstep_groups", "shared_factorisations"});
    info.has_batch = true;
    info.kernel_id = io::require_key(batch, batch_what, "kernel").as_string();
    info.counters.lockstep_groups = io::u64_from_json(
        io::require_key(batch, batch_what, "lockstep_groups"), batch_what + ".lockstep_groups");
    info.counters.shared_factorisations =
        io::u64_from_json(io::require_key(batch, batch_what, "shared_factorisations"),
                          batch_what + ".shared_factorisations");
  }
  return info;
}

std::string staging_path(const std::string& path) { return path + ".next"; }

/// Serialise one job checkpoint into the staging file next to \p path. The
/// caller commits it with an (atomic) rename — immediately for independent
/// jobs, after the whole boundary is staged for a lockstep batch — so a kill
/// mid-write always leaves the previous boundary's file intact.
void write_staged_checkpoint(const ExperimentSpec& spec, PreparedExperiment& prep,
                             const std::string& path, double sim_time, std::uint64_t index,
                             const sim::LockstepCounters* counters, BatchKernel kernel) {
  const sim::Checkpoint checkpoint =
      prep.session->save_checkpoint(checkpoint_meta(spec, sim_time, index, counters, kernel));
  checkpoint.write_file(staging_path(path));
}

void verify_batch_kernel(const CheckpointMetaInfo& info, const std::string& kernel_id,
                         const std::string& what) {
  if (!info.has_batch || info.kernel_id != kernel_id) {
    throw ModelError(what + ": written by batch kernel '" +
                     (info.has_batch ? info.kernel_id : std::string("jobs")) +
                     "', not '" + kernel_id + "' — resume with the batch kernel that wrote it");
  }
}

void accumulate(sim::LockstepCounters& into, const sim::LockstepCounters& add) {
  into.lockstep_groups += add.lockstep_groups;
  into.shared_factorisations += add.shared_factorisations;
}

/// Restore a checkpointed lockstep batch. All jobs of a lockstep batch
/// checkpoint together at each global boundary through the stage-then-commit
/// protocol, so the files on disk span at most two adjacent boundaries; jobs
/// whose committed file is one boundary behind roll forward through their
/// staged file. Fills the per-job times, the committed boundary index and
/// the accumulated work-sharing counters; no-op (returns false) when no
/// checkpoint files exist at all.
bool resume_lockstep_jobs(const std::vector<ScenarioJob>& jobs,
                          std::vector<PreparedExperiment>& prepared,
                          const CheckpointOptions& checkpointing, BatchKernel kernel,
                          std::vector<double>& job_time, std::uint64_t& boundary_index,
                          sim::LockstepCounters& total) {
  const std::size_t n = jobs.size();
  struct Doc {
    sim::Checkpoint checkpoint;
    CheckpointMetaInfo info;
  };
  std::vector<std::optional<Doc>> committed(n);
  std::vector<std::optional<Doc>> staged(n);
  bool any = false;
  const std::string kernel_id = batch_kernel_id(kernel);
  for (std::size_t i = 0; i < n; ++i) {
    const std::string path = checkpoint_file_path(checkpointing, jobs[i].spec.name);
    if (std::filesystem::exists(path)) {
      const std::string what = "checkpoint '" + path + "'";
      Doc doc;
      doc.checkpoint = sim::Checkpoint::read_file(path);
      doc.info = parse_checkpoint_meta(doc.checkpoint, jobs[i].spec, what);
      verify_batch_kernel(doc.info, kernel_id, what);
      committed[i] = std::move(doc);
      any = true;
    }
    const std::string next = staging_path(path);
    if (std::filesystem::exists(next)) {
      std::optional<sim::Checkpoint> parsed;
      try {
        parsed = sim::Checkpoint::read_file(next);
      } catch (const ModelError&) {
        // A truncated staging file from a mid-write kill — ignore it; the
        // committed set is the boundary of record.
      }
      if (parsed) {
        const std::string what = "checkpoint '" + next + "'";
        Doc doc;
        doc.checkpoint = std::move(*parsed);
        doc.info = parse_checkpoint_meta(doc.checkpoint, jobs[i].spec, what);
        verify_batch_kernel(doc.info, kernel_id, what);
        staged[i] = std::move(doc);
        any = true;
      }
    }
  }
  if (!any) {
    return false;
  }
  std::uint64_t lo = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t hi = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (!committed[i]) {
      throw ModelError("lockstep resume: job '" + jobs[i].spec.name +
                       "' has no checkpoint file in '" + checkpointing.dir +
                       "' — a lockstep batch checkpoints all of its jobs together");
    }
    lo = std::min(lo, committed[i]->info.index);
    hi = std::max(hi, committed[i]->info.index);
  }
  if (hi - lo > 1) {
    throw ModelError("lockstep resume: committed checkpoints span non-adjacent boundaries " +
                     std::to_string(lo) + " and " + std::to_string(hi) +
                     " — the checkpoint set is torn");
  }
  for (std::size_t i = 0; i < n; ++i) {
    const Doc* pick = nullptr;
    if (committed[i]->info.index == hi) {
      pick = &*committed[i];
    } else if (staged[i] && staged[i]->info.index == hi) {
      pick = &*staged[i];
    }
    if (pick == nullptr) {
      throw ModelError("lockstep resume: job '" + jobs[i].spec.name +
                       "' has no state at boundary " + std::to_string(hi) +
                       " — the checkpoint set is torn");
    }
    prepared[i].session->restore_checkpoint(pick->checkpoint);
    job_time[i] = pick->info.sim_time;
    if (i == 0) {
      total = pick->info.counters;
    }
  }
  boundary_index = hi;
  return true;
}

/// Dynamics-relevant spec equality for clone detection: everything that
/// shapes the trajectory except the excitation event list. The name and the
/// trace / power-binning / probe settings are per-member observers and may
/// differ freely between clones.
bool clone_compatible_specs(const ExperimentSpec& a, const ExperimentSpec& b) {
  return a.duration == b.duration && a.pre_tuned_hz == b.pre_tuned_hz &&
         a.with_mcu == b.with_mcu && a.engine == b.engine && a.solver == b.solver &&
         a.overrides == b.overrides &&
         a.excitation.initial_frequency_hz == b.excitation.initial_frequency_hz &&
         a.excitation.initial_amplitude == b.excitation.initial_amplitude;
}

/// First time the excitation event lists of two clone-compatible specs stop
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

/// The lockstep execution path of run_scenario_batch: prepare every job
/// serially, derive the clone / sharing structure from the job list, march
/// the whole batch on one clock and collect results in job order. With \p checkpointing non-null the
/// march is cut into global chunks of `every` simulated seconds — a fresh
/// lockstep march per chunk, work-sharing caches reset at each boundary —
/// and every job checkpoints at every boundary; returns std::nullopt only
/// when the abort_after test hook stopped the batch.
std::optional<std::vector<ScenarioResult>> run_lockstep_batch(
    const std::vector<ScenarioJob>& jobs, const BatchOptions& options,
    sim::LockstepCounters* counters_out, const CheckpointOptions* checkpointing) {
  const std::string kernel_id = batch_kernel_id(options.batch_kernel);
  for (const ScenarioJob& job : jobs) {
    if (job.spec.engine != EngineKind::kProposed) {
      throw ModelError("batch_kernel '" + kernel_id + "': job '" + job.spec.name +
                       "' uses engine '" + engine_kind_id(job.spec.engine) +
                       "' — the lockstep kernels require the proposed linearised engine");
    }
  }

  const std::size_t n = jobs.size();
  std::vector<PreparedExperiment> prepared;
  prepared.reserve(n);
  std::vector<harvester::HarvesterParams> params;
  params.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const ScenarioJob& job = jobs[i];
    params.push_back(job.params ? *job.params : experiment_params(job.spec));
    prepared.push_back(prepare_experiment(job.spec, job.params ? &*job.params : nullptr));
  }

  // Checkpoint / resume bookkeeping. Every job's simulated time (restored
  // jobs sit at the last committed boundary, or at their own duration when
  // they finished before it), the committed boundary index and the
  // work-sharing counters accumulated across all chunks so far.
  std::vector<double> job_time(n, 0.0);
  std::uint64_t boundary_index = 0;
  sim::LockstepCounters total{};
  if (checkpointing != nullptr && checkpointing->resume) {
    resume_lockstep_jobs(jobs, prepared, *checkpointing, options.batch_kernel, job_time,
                         boundary_index, total);
  }

  // Equivalence classes of bitwise-identical device parameters — the
  // lockstep kernel only shares linearisations within a class.
  std::vector<std::size_t> param_class(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    param_class[i] = i;
    for (std::size_t j = 0; j < i; ++j) {
      if (param_class[j] == j && params[j] == params[i]) {
        param_class[i] = j;
        break;
      }
    }
  }

  // Clone relations and sharing horizons. Two jobs are clones up to time d
  // when their device parameters and dynamics-relevant spec fields agree and
  // their excitation event lists agree before d (every job starts cold, so
  // such jobs start from the same operating point). share_after is the
  // earliest time this member's trajectory is allowed to deviate from its
  // per-job reference: +inf while every same-class peer is a bitwise
  // duplicate, so such batches stay exact end to end.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<std::size_t> clone_leader(n, sim::LockstepMember::kNoLeader);
  std::vector<double> diverges_at(n, 0.0);
  std::vector<double> share_after(n, kInf);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (j == i || param_class[j] != param_class[i]) {
        continue;
      }
      double divergence = 0.0;
      if (clone_compatible_specs(jobs[i].spec, jobs[j].spec)) {
        divergence = excitation_divergence(jobs[i].spec.excitation, jobs[j].spec.excitation);
      }
      share_after[i] = std::min(share_after[i], divergence);
      if (j < i && divergence > 0.0 &&
          clone_leader[i] == sim::LockstepMember::kNoLeader) {
        clone_leader[i] = j;
        diverges_at[i] = divergence;
      }
    }
  }

  std::vector<sim::LockstepMember> members(n);
  for (std::size_t i = 0; i < n; ++i) {
    auto* solver = dynamic_cast<core::LinearisedSolver*>(&prepared[i].session->engine());
    if (solver == nullptr) {
      throw ModelError("batch_kernel '" + kernel_id + "': job '" + jobs[i].spec.name +
                       "' did not produce a LinearisedSolver engine");
    }
    members[i].solver = solver;
    members[i].kernel = prepared[i].session->session().kernel();
    members[i].t_end = jobs[i].spec.duration;
    members[i].param_class = param_class[i];
    members[i].share_after = share_after[i];
    members[i].clone_leader = clone_leader[i];
    members[i].diverges_at = diverges_at[i];
  }

  // March in chunks. Without checkpointing this is a single chunk over the
  // full horizon — exactly the one-batch behaviour. With a checkpoint period
  // every chunk ends on an absolute boundary k * every, with a fresh
  // LockstepBatch per chunk; writing the checkpoints empties every member's
  // linearisation cache there, which is what makes a resumed batch (whose
  // caches start empty) bit-identical to an uninterrupted checkpointed one.
  double horizon = 0.0;
  for (const ScenarioJob& job : jobs) {
    horizon = std::max(horizon, job.spec.duration);
  }
  const bool chunked = checkpointing != nullptr && checkpointing->every > 0.0;
  std::vector<double> march_cpu(n, 0.0);
  double t_reached = *std::max_element(job_time.begin(), job_time.end());
  int written = 0;
  while (t_reached < horizon) {
    const double target =
        chunked ? std::min(horizon, static_cast<double>(boundary_index + 1) *
                                        checkpointing->every)
                : horizon;
    std::vector<std::size_t> active;
    for (std::size_t i = 0; i < n; ++i) {
      if (job_time[i] < jobs[i].spec.duration) {
        active.push_back(i);
      }
    }
    if (!active.empty()) {
      std::vector<std::size_t> position(n, sim::LockstepMember::kNoLeader);
      for (std::size_t k = 0; k < active.size(); ++k) {
        position[active[k]] = k;
      }
      std::vector<sim::LockstepMember> chunk;
      chunk.reserve(active.size());
      for (const std::size_t i : active) {
        sim::LockstepMember member = members[i];
        member.t_end = std::min(jobs[i].spec.duration, target);
        if (member.clone_leader != sim::LockstepMember::kNoLeader) {
          // Clones share a duration (clone_compatible_specs), so an active
          // follower's leader is still active — the remap never dangles.
          member.clone_leader = position[member.clone_leader];
        }
        chunk.push_back(member);
      }
      sim::LockstepBatch batch(std::move(chunk));
      // lint:allow wall-clock -- march timing feeds only cpu_seconds
      const auto march_begin = std::chrono::steady_clock::now();
      batch.run();
      const double march_seconds =
          // lint:allow wall-clock
          std::chrono::duration<double>(std::chrono::steady_clock::now() - march_begin)
              .count();
      accumulate(total, batch.counters());
      for (const std::size_t i : active) {
        // The march wall-clock is shared work; attribute it evenly.
        march_cpu[i] += march_seconds / static_cast<double>(active.size());
        job_time[i] = std::min(jobs[i].spec.duration, target);
      }
    }
    t_reached = target;
    if (chunked) {
      ++boundary_index;
      // Stage every job's file, then commit with atomic renames: a kill can
      // leave at most two adjacent boundaries on disk, which
      // resume_lockstep_jobs reconciles.
      std::vector<std::string> paths(n);
      for (std::size_t i = 0; i < n; ++i) {
        paths[i] = checkpoint_file_path(*checkpointing, jobs[i].spec.name);
        write_staged_checkpoint(jobs[i].spec, prepared[i], paths[i], job_time[i],
                                boundary_index, &total, options.batch_kernel);
      }
      for (std::size_t i = 0; i < n; ++i) {
        std::filesystem::rename(staging_path(paths[i]), paths[i]);
      }
      if (checkpointing->on_checkpoint) {
        for (std::size_t i = 0; i < n; ++i) {
          checkpointing->on_checkpoint(paths[i], jobs[i].spec.name, job_time[i]);
        }
      }
      ++written;
      if (checkpointing->abort_after >= 0 && written >= checkpointing->abort_after) {
        return std::nullopt;
      }
    }
  }
  if (counters_out != nullptr) {
    *counters_out = total;
  }

  std::vector<ScenarioResult> results;
  results.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    ScenarioResult result = collect_experiment(jobs[i].spec, prepared[i], march_cpu[i]);
    result.batch_kernel = options.batch_kernel;
    result.lockstep_groups = total.lockstep_groups;
    result.shared_factorisations = total.shared_factorisations;
    results.push_back(std::move(result));
  }
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
  prep.session->run_until(spec.duration);
  ScenarioResult result = collect_experiment(spec, prep, prep.session->cpu_seconds());
  run.impl_.reset();  // the transient has consumed the session
  return result;
}

ScenarioResult run_experiment(const ExperimentSpec& spec,
                              const harvester::HarvesterParams* params_override) {
  PreparedRun run = prepare_run(spec, params_override);
  return finish_run(spec, run);
}

std::vector<ScenarioResult> run_scenario_batch(const std::vector<ScenarioJob>& jobs,
                                               std::size_t threads, BatchStats* stats) {
  BatchOptions options;
  options.threads = threads;
  return run_scenario_batch(jobs, options, stats);
}

namespace {

void fill_batch_stats(BatchStats* stats, const std::vector<ScenarioResult>& results,
                      const sim::LockstepCounters& counters) {
  if (stats == nullptr) {
    return;
  }
  stats->jobs = results.size();
  stats->shared_table_hits = static_cast<std::size_t>(
      std::count_if(results.begin(), results.end(),
                    [](const ScenarioResult& r) { return r.shared_diode_table; }));
  stats->lockstep_groups = counters.lockstep_groups;
  stats->shared_factorisations = counters.shared_factorisations;
}

}  // namespace

std::vector<ScenarioResult> run_scenario_batch(const std::vector<ScenarioJob>& jobs,
                                               const BatchOptions& options,
                                               BatchStats* stats) {
  if (jobs.empty()) {
    // Nothing to fan out — don't spin up (and tear down) a thread pool.
    if (stats != nullptr) {
      *stats = BatchStats{};
    }
    return {};
  }

  std::vector<ScenarioResult> results;
  sim::LockstepCounters lockstep_counters;
  if (options.batch_kernel == BatchKernel::kJobs) {
    sim::BatchRunner runner(options.threads);
    results = runner.map_items(jobs, [](const ScenarioJob& job, std::size_t) {
      return run_experiment(job.spec, job.params ? &*job.params : nullptr);
    });
  } else {
    results = *run_lockstep_batch(jobs, options, &lockstep_counters, nullptr);
  }
  fill_batch_stats(stats, results, lockstep_counters);
  return results;
}

std::string checkpoint_file_path(const CheckpointOptions& options, const std::string& job_name) {
  return (std::filesystem::path(options.dir) / (io::safe_file_stem(job_name) + ".ckpt.json"))
      .string();
}

std::optional<ScenarioResult> run_experiment_checkpointed(
    const ExperimentSpec& spec, const CheckpointOptions& checkpointing,
    const harvester::HarvesterParams* params_override) {
  if (checkpointing.dir.empty()) {
    throw ModelError("checkpointing: a checkpoint directory is required");
  }
  std::filesystem::create_directories(checkpointing.dir);
  PreparedExperiment prep = prepare_experiment(spec, params_override);
  const std::string path = checkpoint_file_path(checkpointing, spec.name);
  double t = 0.0;
  std::uint64_t index = 0;
  if (checkpointing.resume && std::filesystem::exists(path)) {
    const std::string what = "checkpoint '" + path + "'";
    const sim::Checkpoint checkpoint = sim::Checkpoint::read_file(path);
    const CheckpointMetaInfo info = parse_checkpoint_meta(checkpoint, spec, what);
    if (info.has_batch) {
      throw ModelError(what + ": written by batch kernel '" + info.kernel_id +
                       "' — resume it through the lockstep sweep that wrote it");
    }
    prep.session->restore_checkpoint(checkpoint);
    t = info.sim_time;
    index = info.index;
  }
  int written = 0;
  while (t < spec.duration) {
    const double target =
        checkpointing.every > 0.0
            ? std::min(spec.duration, static_cast<double>(index + 1) * checkpointing.every)
            : spec.duration;
    prep.session->run_until(target);
    t = target;
    if (checkpointing.every > 0.0) {
      ++index;
      write_staged_checkpoint(spec, prep, path, t, index, nullptr, BatchKernel::kJobs);
      std::filesystem::rename(staging_path(path), path);
      if (checkpointing.on_checkpoint) {
        checkpointing.on_checkpoint(path, spec.name, t);
      }
      ++written;
      if (checkpointing.abort_after >= 0 && written >= checkpointing.abort_after) {
        return std::nullopt;
      }
    }
  }
  return collect_experiment(spec, prep, prep.session->cpu_seconds());
}

std::optional<std::vector<ScenarioResult>> run_scenario_batch_checkpointed(
    const std::vector<ScenarioJob>& jobs, const BatchOptions& options,
    const CheckpointOptions& checkpointing, BatchStats* stats) {
  if (checkpointing.dir.empty()) {
    throw ModelError("checkpointing: a checkpoint directory is required");
  }
  std::filesystem::create_directories(checkpointing.dir);
  if (jobs.empty()) {
    if (stats != nullptr) {
      *stats = BatchStats{};
    }
    return std::vector<ScenarioResult>{};
  }

  std::vector<ScenarioResult> results;
  sim::LockstepCounters lockstep_counters;
  if (options.batch_kernel == BatchKernel::kJobs) {
    sim::BatchRunner runner(options.threads);
    std::vector<std::optional<ScenarioResult>> partial =
        runner.map_items(jobs, [&checkpointing](const ScenarioJob& job, std::size_t) {
          return run_experiment_checkpointed(job.spec, checkpointing,
                                             job.params ? &*job.params : nullptr);
        });
    results.reserve(partial.size());
    for (std::optional<ScenarioResult>& result : partial) {
      if (!result) {
        return std::nullopt;  // the abort_after test hook stopped this job
      }
      results.push_back(std::move(*result));
    }
  } else {
    std::optional<std::vector<ScenarioResult>> lockstep =
        run_lockstep_batch(jobs, options, &lockstep_counters, &checkpointing);
    if (!lockstep) {
      return std::nullopt;
    }
    results = std::move(*lockstep);
  }
  fill_batch_stats(stats, results, lockstep_counters);
  return results;
}

}  // namespace ehsim::experiments
