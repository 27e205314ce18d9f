/// \file test_lockstep_batch.cpp
/// \brief run_scenario_batch's prefix forks: exact, at any thread count.
///
/// The contract under test (experiments/scenarios.hpp, docs/spec_format.md):
///  * proposed-engine jobs whose specs differ only in name and in excitation
///    events from a time d on march their shared span once, in a leader that
///    stops at its last accepted point before d; the leader's snapshot and
///    linearisation cache are restored into each follower;
///  * every result equals a run_experiment of the same job on every
///    ScenarioResult field except cpu_seconds, at 1 and at 4 threads — the
///    leader's included, so the snapshot never perturbs the run it is taken
///    from;
///  * jobs that cannot fork (other device parameters, other solver or
///    observer settings, excitation differing from t = 0, another engine)
///    run on their own.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "core/linearisation_cache.hpp"
#include "core/linearised_solver.hpp"
#include "experiments/ensemble.hpp"
#include "experiments/scenarios.hpp"
#include "experiments/sweep.hpp"
#include "sim/harvester_session.hpp"

namespace {

using namespace ehsim::experiments;
using ehsim::core::LinearisedSolver;

/// The paper's Fig. 9 retune, cut to 0.5 s: scenario 2 with the MCU waking
/// every 0.15 s and the frequency step at 0.375 s, between two wake-ups.
ExperimentSpec fig9_spec(double target_hz) {
  ExperimentSpec spec = scenario2();
  spec.name = "fig9-" + std::to_string(target_hz);
  spec.duration = 0.5;
  spec.trace_interval = 0.05;
  spec.power_bin_width = 0.5;
  spec.excitation.events.front().time = 0.375;
  spec.excitation.events.front().frequency_hz = target_hz;
  spec.overrides.push_back(ParamOverride{"mcu.watchdog_period", 0.15});
  return spec;
}

std::vector<ScenarioJob> jobs_of(const std::vector<ExperimentSpec>& specs) {
  std::vector<ScenarioJob> jobs;
  for (const ExperimentSpec& spec : specs) {
    jobs.push_back(ScenarioJob{spec, std::nullopt});
  }
  return jobs;
}

/// Every field of a result except cpu_seconds (wall clock).
void expect_identical(const ScenarioResult& a, const ScenarioResult& b, const std::string& what) {
  SCOPED_TRACE(what);
  EXPECT_EQ(a.scenario, b.scenario);
  EXPECT_EQ(a.engine, b.engine);
  EXPECT_EQ(a.sim_seconds, b.sim_seconds);
  EXPECT_EQ(a.stats.steps, b.stats.steps);
  EXPECT_EQ(a.stats.init_iterations, b.stats.init_iterations);
  EXPECT_EQ(a.stats.jacobian_builds, b.stats.jacobian_builds);
  EXPECT_EQ(a.stats.jacobian_reuses, b.stats.jacobian_reuses);
  EXPECT_EQ(a.stats.algebraic_solves, b.stats.algebraic_solves);
  EXPECT_EQ(a.stats.newton_iterations, b.stats.newton_iterations);
  EXPECT_EQ(a.stats.lu_factorisations, b.stats.lu_factorisations);
  EXPECT_EQ(a.stats.stability_recomputes, b.stats.stability_recomputes);
  EXPECT_EQ(a.stats.stability_reuses, b.stats.stability_reuses);
  EXPECT_EQ(a.stats.history_resets, b.stats.history_resets);
  EXPECT_EQ(a.stats.step_rejections, b.stats.step_rejections);
  EXPECT_EQ(a.stats.last_step, b.stats.last_step);
  EXPECT_EQ(a.stats.min_step, b.stats.min_step);
  EXPECT_EQ(a.stats.max_step, b.stats.max_step);
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
    EXPECT_EQ(a.probes[i].recorded, b.probes[i].recorded);
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

class PrefixForks : public ::testing::Test {
 protected:
  /// Runs each of \p jobs alone, then the batch at 1 and 4 threads; every
  /// result must be identical. Returns the batch stats.
  static BatchStats expect_forks_exact(const std::vector<ScenarioJob>& jobs) {
    std::vector<ScenarioResult> reference;
    for (const ScenarioJob& job : jobs) {
      reference.push_back(run_experiment(job.spec, job.params ? &*job.params : nullptr));
    }
    BatchStats stats;
    for (const std::size_t threads : {1u, 4u}) {
      BatchStats run_stats;
      const std::vector<ScenarioResult> forked =
          run_scenario_batch(jobs, {.threads = threads}, &run_stats);
      EXPECT_EQ(run_stats.jobs, jobs.size());
      if (threads == 1) {
        stats = run_stats;
      } else {
        // The plan does not depend on the thread count.
        EXPECT_EQ(run_stats.lockstep_groups, stats.lockstep_groups);
        EXPECT_EQ(run_stats.shared_factorisations, stats.shared_factorisations);
      }
      EXPECT_EQ(forked.size(), reference.size());
      for (std::size_t i = 0; i < std::min(forked.size(), reference.size()); ++i) {
        expect_identical(reference[i], forked[i],
                         jobs[i].spec.name + " at " + std::to_string(threads) + " threads");
      }
    }
    return stats;
  }
};

TEST_F(PrefixForks, Fig9RetuneSweepForksBetweenDigitalEvents) {
  // The step at 0.375 s falls between the wake-ups at 0.3 s and 0.45 s.
  const BatchStats stats =
      expect_forks_exact(jobs_of({fig9_spec(66.0), fig9_spec(70.0), fig9_spec(74.0),
                                  fig9_spec(78.0)}));
  EXPECT_EQ(stats.lockstep_groups, 1u);
  EXPECT_EQ(stats.shared_factorisations, 3u);
}

TEST_F(PrefixForks, RandomWalkEnsembleReplicasForkWhereTheWalkStarts) {
  EnsembleSpec ensemble;
  ensemble.base = charging_scenario(1.0);
  ensemble.base.name = "walk";
  RandomWalkParams walk;
  walk.step_interval = 0.05;
  walk.frequency_sigma = 0.4;
  walk.min_frequency_hz = 60.0;
  walk.max_frequency_hz = 80.0;
  ensemble.base.excitation.random_walk(0.3, 0.6, walk);
  ensemble.base.probes.push_back(ProbeSpec{"P_gen", ProbeSpec::Kind::kGeneratorPower});
  ensemble.num_seeds = 4;
  const BatchStats stats = expect_forks_exact(jobs_of(ensemble.expand()));
  EXPECT_EQ(stats.lockstep_groups, 1u);
  EXPECT_EQ(stats.shared_factorisations, 3u);
}

TEST_F(PrefixForks, IdenticalJobsForkTheFinishedLeader) {
  ExperimentSpec spec = fig9_spec(78.0);
  std::vector<ExperimentSpec> specs;
  for (const char* name : {"a", "b", "c"}) {
    spec.name = name;
    specs.push_back(spec);
  }
  const BatchStats stats = expect_forks_exact(jobs_of(specs));
  EXPECT_EQ(stats.lockstep_groups, 1u);
  EXPECT_EQ(stats.shared_factorisations, 2u);
}

TEST_F(PrefixForks, AForkWhileTheActuatorMovesLeavesTheCurrentLinearisationOutsideTheCache) {
  // Scenario 1 with its retune brought forward: the MCU starts moving the
  // actuator after the 0.5 s step, and a moving actuator makes every
  // signature uncacheable. Find such a stretch on the per-job run, then
  // sweep an amplitude step placed inside it: the fork point, the last
  // accepted point before the step, lies inside the stretch too.
  ExperimentSpec base = scenario1();
  base.duration = 2.0;
  base.excitation.events.front().time = 0.5;
  base.overrides.push_back(ParamOverride{"mcu.watchdog_period", 0.25});
  std::vector<double> times;
  std::vector<bool> moving;
  {
    ehsim::sim::HarvesterSession session = make_experiment_session(base);
    const auto& solver = dynamic_cast<const LinearisedSolver&>(session.engine());
    session.add_observer([&](double t, std::span<const double>, std::span<const double>) {
      times.push_back(t);
      moving.push_back(!ehsim::core::LinearisationCache::cacheable(solver.jacobian_signature()));
    });
    session.run_until(base.duration);
  }
  const auto first = std::find(moving.begin(), moving.end(), true);
  ASSERT_NE(first, moving.end());
  const auto last = std::find(first, moving.end(), false) - 1;
  const double moving_from = times[static_cast<std::size_t>(first - moving.begin())];
  const double moving_to = times[static_cast<std::size_t>(last - moving.begin())];
  ASSERT_GT(moving_from, 0.5);
  ASSERT_GT(moving_to - moving_from, 0.02) << "no stretch of actuator motion to fork in";
  const double fork_at = 0.5 * (moving_from + moving_to);

  std::vector<ExperimentSpec> specs;
  for (const double amplitude : {0.55, 0.6, 0.65}) {
    ExperimentSpec spec = base;
    spec.name = "amplitude-" + std::to_string(amplitude);
    spec.excitation.step_amplitude(fork_at, amplitude);
    specs.push_back(spec);
  }
  const BatchStats stats = expect_forks_exact(jobs_of(specs));
  EXPECT_EQ(stats.lockstep_groups, 1u);
  EXPECT_EQ(stats.shared_factorisations, 2u);
}

TEST_F(PrefixForks, AMixedBatchForksOnlyTheJobsThatShareAPrefix) {
  ExperimentSpec other_plant = fig9_spec(70.0);
  other_plant.name = "other-plant";
  other_plant.pre_tuned_hz = 65.0;  // other device parameters
  ExperimentSpec other_trace = fig9_spec(70.0);
  other_trace.name = "trace-a";
  other_trace.trace_interval = 0.02;  // other observer settings
  ExperimentSpec other_trace_b = other_trace;
  other_trace_b.name = "trace-b";
  other_trace_b.excitation.events.front().frequency_hz = 74.0;
  ExperimentSpec from_zero = fig9_spec(70.0);
  from_zero.name = "from-zero";
  from_zero.excitation.initial_frequency_hz = 65.0;  // differs from t = 0
  ExperimentSpec longer = fig9_spec(74.0);
  longer.name = "longer";
  longer.duration = 0.55;
  const BatchStats stats = expect_forks_exact(jobs_of(
      {fig9_spec(66.0), other_plant, other_trace, fig9_spec(78.0), from_zero, longer,
       other_trace_b}));
  // fig9(78) forks from fig9(66), trace-b from other_trace.
  EXPECT_EQ(stats.lockstep_groups, 2u);
  EXPECT_EQ(stats.shared_factorisations, 2u);
}

TEST_F(PrefixForks, ASolverSweepRunsUnforked) {
  // A sweep over a solver.* key: its jobs differ outside the excitation.
  SweepSpec sweep;
  sweep.base = scenario2();
  sweep.base.name = "lle";
  sweep.base.duration = 0.2;
  sweep.axes.push_back(SweepAxis{"solver.lle_tolerance", {0.05, 0.1}, {}});
  const BatchStats stats = expect_forks_exact(jobs_of(sweep.expand()));
  EXPECT_EQ(stats.lockstep_groups, 0u);
  EXPECT_EQ(stats.shared_factorisations, 0u);
}

TEST_F(PrefixForks, APauseStopsBeforeTheCrossingStepAndResumesExactly) {
  const ExperimentSpec spec = fig9_spec(78.0);
  const double fork_at = spec.excitation.events.front().time;
  std::vector<double> accepted;
  ehsim::sim::HarvesterSession straight = make_experiment_session(spec);
  straight.add_observer([&](double t, std::span<const double>, std::span<const double>) {
    accepted.push_back(t);
  });
  straight.run_until(spec.duration);

  ehsim::sim::HarvesterSession paused = make_experiment_session(spec);
  auto& solver = dynamic_cast<LinearisedSolver&>(paused.engine());
  solver.pause_before(fork_at);
  paused.run_until(spec.duration);
  const double stop = paused.time();
  ASSERT_LT(stop, fork_at);
  // The last accepted point before the fork time: the next one reaches it.
  const auto at = std::find(accepted.begin(), accepted.end(), stop);
  ASSERT_NE(at, accepted.end());
  ASSERT_NE(at + 1, accepted.end());
  EXPECT_GE(*(at + 1), fork_at);
  // Pausing again at the same time does not move.
  paused.run_until(spec.duration);
  EXPECT_EQ(paused.time(), stop);

  solver.pause_before(std::numeric_limits<double>::infinity());
  paused.run_until(spec.duration);
  EXPECT_EQ(paused.stats().steps, straight.stats().steps);
  EXPECT_EQ(paused.stats().jacobian_builds, straight.stats().jacobian_builds);
  EXPECT_EQ(paused.session().sync_points(), straight.session().sync_points());
  const auto expected = straight.state();
  const auto actual = paused.state();
  EXPECT_TRUE(std::equal(expected.begin(), expected.end(), actual.begin(), actual.end()));
  EXPECT_EQ(paused.session().trace().column("Vc"), straight.session().trace().column("Vc"));
}

TEST_F(PrefixForks, AnEngineGridForksOnlyItsProposedJobs) {
  // Engine x retune target: the NR jobs share their prefix too, but only
  // the proposed engine forks; the others run on their own, unrefused.
  SweepSpec sweep;
  sweep.base = fig9_spec(70.0);
  sweep.base.name = "grid";
  sweep.base.duration = 0.45;
  sweep.axes.push_back(
      SweepAxis{"", {}, {EngineKind::kProposed, EngineKind::kPspice, EngineKind::kSystemVision}});
  sweep.axes.push_back(SweepAxis{"excitation.event[0].frequency_hz", {66.0, 74.0, 78.0}, {}});
  const BatchStats stats = expect_forks_exact(jobs_of(sweep.expand()));
  EXPECT_EQ(stats.lockstep_groups, 1u);
  EXPECT_EQ(stats.shared_factorisations, 2u);
}

}  // namespace
