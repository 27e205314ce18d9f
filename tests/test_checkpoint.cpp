/// \file test_checkpoint.cpp
/// \brief Checkpoint/restart contract: a killed run resumed from its last
/// checkpoint file is bit-identical (modulo cpu_seconds) to an uninterrupted
/// run with the same checkpoint options — across both engine families, all
/// three batch kernels, mid-multistep-history boundaries, mid-PWL-segment
/// excitation and seeded random-walk drift.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "experiments/scenarios.hpp"
#include "experiments/sweep.hpp"
#include "io/json.hpp"
#include "io/spec_json.hpp"
#include "io/state_json.hpp"
#include "linalg/matrix.hpp"
#include "sim/checkpoint.hpp"

namespace {

using ehsim::ModelError;
using ehsim::experiments::BatchKernel;
using ehsim::experiments::BatchOptions;
using ehsim::experiments::CheckpointOptions;
using ehsim::experiments::EngineKind;
using ehsim::experiments::ExperimentSpec;
using ehsim::experiments::ProbeSpec;
using ehsim::experiments::RandomWalkParams;
using ehsim::experiments::ScenarioJob;
using ehsim::experiments::ScenarioResult;
using ehsim::experiments::SweepAxis;
using ehsim::experiments::SweepSpec;

/// Fresh scratch directory per test (removed on destruction).
struct ScratchDir {
  std::filesystem::path path;
  explicit ScratchDir(const std::string& name)
      : path(std::filesystem::temp_directory_path() / ("ehsim_ckpt_" + name)) {
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~ScratchDir() { std::filesystem::remove_all(path); }
  [[nodiscard]] std::string str() const { return path.string(); }
};

/// Miniature retune experiment: MCU on, a mid-run frequency step (PWL
/// segment change), a recorded probe and a threshold probe.
ExperimentSpec small_spec(EngineKind kind = EngineKind::kProposed) {
  ExperimentSpec spec;
  spec.name = "ckpt-test";
  spec.duration = 2.0;
  spec.pre_tuned_hz = 70.0;
  spec.with_mcu = true;
  spec.trace_interval = 0.02;
  spec.power_bin_width = 0.25;
  spec.engine = kind;
  spec.excitation.initial_frequency_hz = 70.0;
  spec.excitation.step_frequency(0.9, 71.0);
  ProbeSpec power;
  power.label = "Pgen";
  power.kind = ProbeSpec::Kind::kGeneratorPower;
  power.threshold = 1e-6;
  spec.probes.push_back(power);
  ProbeSpec state;
  state.label = "sleep_duty";
  state.kind = ProbeSpec::Kind::kMcuState;
  state.target = "sleep";
  state.record = false;
  spec.probes.push_back(state);
  return spec;
}

/// Bitwise equality of everything a result reports except the wall-clock
/// fields (cpu_seconds is execution cost, not simulation state).
void expect_identical(const ScenarioResult& a, const ScenarioResult& b) {
  EXPECT_EQ(a.scenario, b.scenario);
  EXPECT_EQ(a.engine, b.engine);
  EXPECT_EQ(a.sim_seconds, b.sim_seconds);
  EXPECT_EQ(a.stats.steps, b.stats.steps);
  EXPECT_EQ(a.stats.jacobian_builds, b.stats.jacobian_builds);
  EXPECT_EQ(a.stats.jacobian_reuses, b.stats.jacobian_reuses);
  EXPECT_EQ(a.stats.algebraic_solves, b.stats.algebraic_solves);
  EXPECT_EQ(a.stats.newton_iterations, b.stats.newton_iterations);
  EXPECT_EQ(a.stats.lu_factorisations, b.stats.lu_factorisations);
  EXPECT_EQ(a.stats.stability_recomputes, b.stats.stability_recomputes);
  EXPECT_EQ(a.stats.history_resets, b.stats.history_resets);
  EXPECT_EQ(a.stats.step_rejections, b.stats.step_rejections);
  EXPECT_EQ(a.stats.last_step, b.stats.last_step);
  EXPECT_EQ(a.stats.min_step, b.stats.min_step);
  EXPECT_EQ(a.batch_kernel, b.batch_kernel);
  EXPECT_EQ(a.lockstep_groups, b.lockstep_groups);
  EXPECT_EQ(a.shared_factorisations, b.shared_factorisations);
  EXPECT_EQ(a.time, b.time);
  EXPECT_EQ(a.vc, b.vc);
  EXPECT_EQ(a.power_time, b.power_time);
  EXPECT_EQ(a.power_mean, b.power_mean);
  EXPECT_EQ(a.power_rms, b.power_rms);
  ASSERT_EQ(a.probes.size(), b.probes.size());
  for (std::size_t i = 0; i < a.probes.size(); ++i) {
    EXPECT_EQ(a.probes[i].label, b.probes[i].label);
    EXPECT_EQ(a.probes[i].samples, b.probes[i].samples);
    EXPECT_EQ(a.probes[i].covered_time, b.probes[i].covered_time);
    EXPECT_EQ(a.probes[i].final_value, b.probes[i].final_value);
    EXPECT_EQ(a.probes[i].minimum, b.probes[i].minimum);
    EXPECT_EQ(a.probes[i].maximum, b.probes[i].maximum);
    EXPECT_EQ(a.probes[i].mean, b.probes[i].mean);
    EXPECT_EQ(a.probes[i].rms, b.probes[i].rms);
    EXPECT_EQ(a.probes[i].duty_cycle, b.probes[i].duty_cycle);
    EXPECT_EQ(a.probes[i].crossings, b.probes[i].crossings);
    EXPECT_EQ(a.probes[i].trace, b.probes[i].trace);
  }
  ASSERT_EQ(a.mcu_events.size(), b.mcu_events.size());
  for (std::size_t i = 0; i < a.mcu_events.size(); ++i) {
    EXPECT_EQ(a.mcu_events[i].time, b.mcu_events[i].time);
    EXPECT_EQ(a.mcu_events[i].type, b.mcu_events[i].type);
    EXPECT_EQ(a.mcu_events[i].value, b.mcu_events[i].value);
  }
  EXPECT_EQ(a.final_resonance_hz, b.final_resonance_hz);
  EXPECT_EQ(a.final_vc, b.final_vc);
  EXPECT_EQ(a.rms_power_before, b.rms_power_before);
  EXPECT_EQ(a.rms_power_after, b.rms_power_after);
}

/// Run the spec twice with identical checkpoint cadence: once straight
/// through, once killed after \p abort_after checkpoints and resumed from
/// the files left on disk. Both must agree bit for bit.
void check_kill_resume(const ExperimentSpec& spec, double every, int abort_after,
                       const std::string& tag) {
  ScratchDir full_dir(tag + "_full");
  ScratchDir kill_dir(tag + "_kill");
  CheckpointOptions full;
  full.every = every;
  full.dir = full_dir.str();
  const auto uninterrupted = run_experiment_checkpointed(spec, full);
  ASSERT_TRUE(uninterrupted.has_value());

  CheckpointOptions kill = full;
  kill.dir = kill_dir.str();
  kill.abort_after = abort_after;
  ASSERT_FALSE(run_experiment_checkpointed(spec, kill).has_value());

  CheckpointOptions resume;
  resume.every = every;
  resume.dir = kill_dir.str();
  resume.resume = true;
  const auto resumed = run_experiment_checkpointed(spec, resume);
  ASSERT_TRUE(resumed.has_value());
  expect_identical(*uninterrupted, *resumed);
}

TEST(Checkpoint, KillResumeBitIdenticalProposed) {
  // 0.37 s boundaries land mid-multistep-history and mid-PWL-sine-segment;
  // the retune burst is in flight across several of them.
  check_kill_resume(small_spec(EngineKind::kProposed), 0.37, 2, "proposed");
}

TEST(Checkpoint, KillResumeBitIdenticalBaselineNr) {
  check_kill_resume(small_spec(EngineKind::kPspice), 0.37, 2, "pspice");
}

TEST(Checkpoint, KillResumeBitIdenticalEventBoundary) {
  // Boundaries aligned with the excitation step (0.9) and MCU activity.
  ExperimentSpec spec = small_spec(EngineKind::kProposed);
  check_kill_resume(spec, 0.45, 1, "event_boundary");
}

TEST(Checkpoint, KillResumeAtExactParameterEventBoundary) {
  // The MCU watchdog wakes at exactly the checkpoint cut (period ==
  // checkpoint cadence), and the wake's load-mode switch bumps the supercap
  // epoch *at* the boundary — so the saved document carries a pending epoch
  // bump: the blocks already advanced past the epoch the engine last
  // consumed. Restore used to refuse this legitimate state ("model epoch
  // does not match"); the resumed engine must instead re-notice the
  // discontinuity on its next step, exactly like the uninterrupted run.
  // (This is the scenario1 ambient-shift failure — watchdog wake at t = 60
  // on an every = 30 cut — shrunk to unit-test size.)
  ExperimentSpec spec = small_spec(EngineKind::kProposed);
  spec.overrides.push_back(
      ehsim::experiments::ParamOverride{"mcu.watchdog_period", 0.5});
  {
    ScratchDir dir("pending_epoch_doc");
    CheckpointOptions options;
    options.every = 0.5;
    options.dir = dir.str();
    options.abort_after = 1;
    ASSERT_FALSE(run_experiment_checkpointed(spec, options).has_value());
    const ehsim::sim::Checkpoint checkpoint =
        ehsim::sim::Checkpoint::read_file(checkpoint_file_path(options, spec.name));
    const auto& payload = checkpoint.payload;
    const std::uint64_t engine_epoch =
        static_cast<std::uint64_t>(payload.at("engine").at("last_epoch").as_number());
    const auto& harvester = payload.at("sections").at("harvester");
    const std::uint64_t model_epoch =
        static_cast<std::uint64_t>(harvester.at("generator_epoch").as_number()) +
        static_cast<std::uint64_t>(harvester.at("multiplier_epoch").as_number()) +
        static_cast<std::uint64_t>(harvester.at("supercap_epoch").as_number());
    // The regression only stays armed while the cut actually straddles the
    // event: blocks ahead of the engine inside one committed document.
    EXPECT_GT(model_epoch, engine_epoch);
  }
  check_kill_resume(spec, 0.5, 1, "pending_epoch");
  ExperimentSpec nr_spec = small_spec(EngineKind::kPspice);
  nr_spec.overrides = spec.overrides;
  check_kill_resume(nr_spec, 0.5, 1, "pending_epoch_nr");
}

TEST(Checkpoint, KillResumeBitIdenticalRandomWalkDrift) {
  ExperimentSpec spec = small_spec(EngineKind::kProposed);
  spec.excitation = {};
  spec.excitation.initial_frequency_hz = 70.0;
  RandomWalkParams walk;
  walk.step_interval = 0.1;
  walk.frequency_sigma = 0.4;
  walk.amplitude_sigma = 0.02;
  walk.seed = 42;
  spec.excitation.random_walk(0.2, 1.5, walk);
  // Kill mid-walk: the resumed run must continue the same drift realisation
  // (the checkpoint's expansion cursor pins the RNG stream position).
  EXPECT_GT(spec.excitation.expansion_cursor(1.0), 2u);
  check_kill_resume(spec, 0.33, 2, "drift");
}

TEST(Checkpoint, ResumeRejectsDifferentSpec) {
  ScratchDir dir("spec_mismatch");
  ExperimentSpec spec = small_spec();
  CheckpointOptions options;
  options.every = 0.5;
  options.dir = dir.str();
  options.abort_after = 1;
  ASSERT_FALSE(run_experiment_checkpointed(spec, options).has_value());

  ExperimentSpec other = spec;
  other.excitation.events[0].frequency_hz = 72.0;  // same name, different physics
  CheckpointOptions resume;
  resume.dir = dir.str();
  resume.resume = true;
  EXPECT_THROW((void)run_experiment_checkpointed(other, resume), ModelError);
}

/// A checkpoint whose meta carries the operating-point key "warm_start" (as
/// older writers produced) is refused, naming the key, instead of resumed
/// with that field silently dropped.
TEST(Checkpoint, ResumeRefusesWarmStartEraCheckpoints) {
  ScratchDir dir("warm_era");
  const ExperimentSpec spec = small_spec();
  CheckpointOptions options;
  options.every = 0.5;
  options.dir = dir.str();
  options.abort_after = 1;
  ASSERT_FALSE(run_experiment_checkpointed(spec, options).has_value());

  // Turn the file into what older writers produced: the same document plus
  // the operating-point meta key.
  const std::string path = checkpoint_file_path(options, spec.name);
  ehsim::io::JsonValue document = ehsim::io::JsonValue::parse(ehsim::io::read_file(path));
  for (auto& [key, value] : document.as_object()) {
    if (key == "meta") {
      value.set("warm_start", "cold");
    }
  }
  ehsim::io::write_file(path, document.dump(2));

  CheckpointOptions resume;
  resume.every = 0.5;
  resume.dir = dir.str();
  resume.resume = true;
  try {
    (void)run_experiment_checkpointed(spec, resume);
    ADD_FAILURE() << "a checkpoint carrying warm_start was resumed";
  } catch (const ModelError& error) {
    EXPECT_NE(std::string(error.what()).find("warm_start"), std::string::npos)
        << error.what();
  }
}

/// The member \p key of JSON object \p object.
ehsim::io::JsonValue& member(ehsim::io::JsonValue& object, const std::string& key) {
  for (auto& [name, value] : object.as_object()) {
    if (name == key) {
      return value;
    }
  }
  throw ModelError("test: no member '" + key + "'");
}

/// A checkpoint whose LLE section does not fit the model is refused at
/// restore, naming the key: the drift scan indexes the restored matrices
/// and row scales by the model's shape.
TEST(Checkpoint, ResumeRefusesLleSectionsOfTheWrongShape) {
  using ehsim::io::JsonValue;
  const ExperimentSpec spec = small_spec();
  const std::vector<std::pair<std::string, JsonValue>> cases = {
      {"prev_jxx", ehsim::io::matrix_to_json(ehsim::linalg::Matrix(2, 2))},
      {"prev_jyx", ehsim::io::matrix_to_json(ehsim::linalg::Matrix(4, 10))},
      {"scale_xy", ehsim::io::reals_to_json(std::vector<double>(3, 1.0))},
      {"scale_yy", ehsim::io::reals_to_json(std::vector<double>(11, 1.0))},
  };
  for (const auto& [key, replacement] : cases) {
    ScratchDir dir("lle_shape_" + key);
    CheckpointOptions options;
    options.every = 0.5;
    options.dir = dir.str();
    options.abort_after = 1;
    ASSERT_FALSE(run_experiment_checkpointed(spec, options).has_value());

    const std::string path = checkpoint_file_path(options, spec.name);
    JsonValue document = JsonValue::parse(ehsim::io::read_file(path));
    JsonValue& lle = member(member(member(document, "payload"), "engine"), "lle");
    ASSERT_TRUE(member(lle, "has_previous").as_bool());
    lle.set(key, replacement);
    ehsim::io::write_file(path, document.dump(2));

    CheckpointOptions resume = options;
    resume.abort_after = -1;
    resume.resume = true;
    try {
      (void)run_experiment_checkpointed(spec, resume);
      ADD_FAILURE() << "a checkpoint with a malformed lle." << key << " was resumed";
    } catch (const ModelError& error) {
      EXPECT_NE(std::string(error.what()).find("checkpoint.lle." + key), std::string::npos)
          << error.what();
    }
  }
}

TEST(Checkpoint, ResumeWithoutFilesStartsFresh) {
  ScratchDir ref_dir("fresh_ref");
  ScratchDir dir("fresh");
  ExperimentSpec spec = small_spec();
  CheckpointOptions reference;
  reference.every = 0.5;
  reference.dir = ref_dir.str();
  const auto straight = run_experiment_checkpointed(spec, reference);
  CheckpointOptions resume;
  resume.every = 0.5;
  resume.dir = dir.str();
  resume.resume = true;  // nothing on disk: a plain start
  const auto fresh = run_experiment_checkpointed(spec, resume);
  ASSERT_TRUE(straight.has_value());
  ASSERT_TRUE(fresh.has_value());
  expect_identical(*straight, *fresh);
}

// ---- sweeps across both batch kernels --------------------------------------

SweepSpec small_sweep(BatchKernel kernel) {
  SweepSpec sweep;
  sweep.base = small_spec();
  sweep.base.name = "ckpt-sweep";
  sweep.base.probes.clear();  // keep the sweep lean
  sweep.threads = 2;
  sweep.batch_kernel = kernel;
  SweepAxis axis;
  axis.param = "excitation.event[0].frequency_hz";
  axis.values = {70.5, 71.0, 71.5};
  sweep.axes.push_back(axis);
  return sweep;
}

void check_sweep_kill_resume(BatchKernel kernel, const std::string& tag) {
  const SweepSpec sweep = small_sweep(kernel);
  BatchOptions options;
  options.threads = 2;
  options.batch_kernel = kernel;

  ScratchDir full_dir(tag + "_full");
  CheckpointOptions full;
  full.every = 0.6;
  full.dir = full_dir.str();
  const auto uninterrupted = run_sweep_checkpointed(sweep, options, full);
  ASSERT_TRUE(uninterrupted.has_value());

  ScratchDir kill_dir(tag + "_kill");
  CheckpointOptions kill = full;
  kill.dir = kill_dir.str();
  kill.abort_after = 1;
  ASSERT_FALSE(run_sweep_checkpointed(sweep, options, kill).has_value());

  CheckpointOptions resume;
  resume.every = 0.6;
  resume.dir = kill_dir.str();
  resume.resume = true;
  const auto resumed = run_sweep_checkpointed(sweep, options, resume);
  ASSERT_TRUE(resumed.has_value());
  ASSERT_EQ(uninterrupted->size(), resumed->size());
  for (std::size_t i = 0; i < uninterrupted->size(); ++i) {
    expect_identical((*uninterrupted)[i], (*resumed)[i]);
  }
}

TEST(Checkpoint, SweepKillResumeJobs) { check_sweep_kill_resume(BatchKernel::kJobs, "jobs"); }

TEST(Checkpoint, SweepKillResumeLockstep) {
  check_sweep_kill_resume(BatchKernel::kLockstep, "lockstep");
}

TEST(Checkpoint, LockstepCheckpointRefusesJobsResume) {
  const SweepSpec sweep = small_sweep(BatchKernel::kLockstep);
  BatchOptions lockstep;
  lockstep.threads = 1;
  lockstep.batch_kernel = BatchKernel::kLockstep;
  ScratchDir dir("kernel_mismatch");
  CheckpointOptions options;
  options.every = 0.6;
  options.dir = dir.str();
  options.abort_after = 1;
  ASSERT_FALSE(run_sweep_checkpointed(sweep, lockstep, options).has_value());

  BatchOptions jobs;
  jobs.threads = 1;
  jobs.batch_kernel = BatchKernel::kJobs;
  CheckpointOptions resume;
  resume.dir = dir.str();
  resume.resume = true;
  EXPECT_THROW((void)run_sweep_checkpointed(sweep, jobs, resume), ModelError);
}

// ---- document strictness --------------------------------------------------

TEST(Checkpoint, DocumentRejectsUnknownKeysAndWrongVersion) {
  using ehsim::io::JsonValue;
  using ehsim::sim::Checkpoint;
  Checkpoint checkpoint;
  checkpoint.payload = JsonValue::make_object();
  JsonValue doc = checkpoint.to_json();
  JsonValue extra = doc;
  extra.set("surprise", 1.0);
  EXPECT_THROW((void)Checkpoint::from_json(extra), ModelError);
  JsonValue wrong_version = doc;
  wrong_version.set("version", 999.0);
  EXPECT_THROW((void)Checkpoint::from_json(wrong_version), ModelError);
  JsonValue wrong_type = doc;
  wrong_type.set("type", "ehsim_result");
  EXPECT_THROW((void)Checkpoint::from_json(wrong_type), ModelError);
}

}  // namespace
