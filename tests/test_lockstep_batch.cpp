/// \file test_lockstep_batch.cpp
/// \brief Lockstep SoA batch kernel: exactness and divergence bounds.
///
/// The contract under test (sim/lockstep_batch.hpp, docs/spec_format.md):
///  * a batch of bitwise-identical jobs marches bit-for-bit like the per-job
///    path, and so does the shared prefix of sweep points that differ only
///    in excitation events after t = 0;
///  * a clone follower is passive: adding one never changes another member,
///    and when it peels off it continues from its leader's linearisation;
///  * once members diverge, shared linearisations keep every result within
///    the documented io::compare tolerances of its per-job reference;
///  * the march is serial, so results are identical for any thread count.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <span>
#include <vector>

#include "common/error.hpp"
#include "core/linearised_solver.hpp"
#include "experiments/scenarios.hpp"
#include "sim/harvester_session.hpp"
#include "sim/lockstep_batch.hpp"

namespace {

using namespace ehsim::experiments;
using ehsim::ModelError;

ExperimentSpec lockstep_spec(double duration) {
  ExperimentSpec spec;
  spec.name = "lockstep-test";
  spec.duration = duration;
  spec.pre_tuned_hz = 70.0;
  spec.excitation.initial_frequency_hz = 70.0;
  spec.with_mcu = true;
  spec.trace_interval = 0.05;
  spec.power_bin_width = 0.5;
  return spec;
}

std::vector<ScenarioResult> run_with_kernel(const std::vector<ScenarioJob>& jobs,
                                            BatchKernel kernel, BatchStats* stats = nullptr,
                                            std::size_t threads = 1) {
  BatchOptions options;
  options.threads = threads;
  options.batch_kernel = kernel;
  return run_scenario_batch(jobs, options, stats);
}

/// Largest |a-b| / max(1, |a|, |b|) over two traces of (nearly) equal
/// length; differing step sequences may decimate one extra sample.
double max_rel_error(const std::vector<double>& a, const std::vector<double>& b) {
  EXPECT_LE(a.size() > b.size() ? a.size() - b.size() : b.size() - a.size(), 1u);
  double worst = 0.0;
  for (std::size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
    const double scale = std::max({1.0, std::abs(a[i]), std::abs(b[i])});
    worst = std::max(worst, std::abs(a[i] - b[i]) / scale);
  }
  return worst;
}

TEST(LockstepBatch, DuplicateBatchBitIdenticalToPerJob) {
  std::vector<ScenarioJob> jobs(4);
  for (auto& job : jobs) {
    job.spec = lockstep_spec(1.5);
    job.spec.excitation.step_frequency(0.75, 72.0);
  }

  BatchStats lockstep_stats;
  const auto per_job = run_with_kernel(jobs, BatchKernel::kJobs);
  const auto lockstep = run_with_kernel(jobs, BatchKernel::kLockstep, &lockstep_stats);

  ASSERT_EQ(per_job.size(), jobs.size());
  ASSERT_EQ(lockstep.size(), jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(per_job[i].stats.steps, lockstep[i].stats.steps) << "job " << i;
    EXPECT_EQ(per_job[i].time, lockstep[i].time) << "job " << i;
    EXPECT_EQ(per_job[i].vc, lockstep[i].vc) << "job " << i;  // bit-identical
    EXPECT_EQ(per_job[i].final_vc, lockstep[i].final_vc) << "job " << i;
    EXPECT_EQ(per_job[i].power_mean, lockstep[i].power_mean) << "job " << i;
    EXPECT_EQ(per_job[i].mcu_events.size(), lockstep[i].mcu_events.size()) << "job " << i;
  }
  // Followers rode the leader's refreshes instead of assembling their own.
  EXPECT_GT(lockstep_stats.shared_factorisations, 0u);
}

TEST(LockstepBatch, SingleJobBitIdenticalToPerJob) {
  std::vector<ScenarioJob> jobs(1);
  jobs[0].spec = lockstep_spec(1.0);

  const auto per_job = run_with_kernel(jobs, BatchKernel::kJobs);
  const auto lockstep = run_with_kernel(jobs, BatchKernel::kLockstep);
  ASSERT_EQ(lockstep.size(), 1u);
  EXPECT_EQ(per_job[0].stats.steps, lockstep[0].stats.steps);
  EXPECT_EQ(per_job[0].vc, lockstep[0].vc);
  EXPECT_EQ(per_job[0].final_vc, lockstep[0].final_vc);
}

TEST(LockstepBatch, SplitAndRemergeAcrossSegmentCrossing) {
  // Sweep points share the prefix [0, 1.0) and then step to different
  // frequencies: clones follow the leader exactly, peel off at t = 1.0 and
  // re-merge into signature groups afterwards.
  std::vector<ScenarioJob> jobs;
  for (const double hz : {69.0, 71.0, 73.0}) {
    ScenarioJob job;
    job.spec = lockstep_spec(2.0);
    job.spec.excitation.step_frequency(1.0, hz);
    jobs.push_back(std::move(job));
  }

  BatchStats stats;
  const auto per_job = run_with_kernel(jobs, BatchKernel::kJobs);
  const auto lockstep = run_with_kernel(jobs, BatchKernel::kLockstep, &stats);

  ASSERT_EQ(lockstep.size(), jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    // Identical prefix: before the divergence time every member still steps
    // exactly like its per-job self, so the decimated trace is bit-for-bit
    // equal there. Past the split the global step agreement changes the
    // step sequence, so only bounded error is promised.
    const std::size_t common = std::min(per_job[i].time.size(), lockstep[i].time.size());
    for (std::size_t k = 0; k < common; ++k) {
      if (per_job[i].time[k] >= 1.0 || lockstep[i].time[k] >= 1.0) {
        break;
      }
      EXPECT_EQ(per_job[i].time[k], lockstep[i].time[k]) << "job " << i << " sample " << k;
      EXPECT_EQ(per_job[i].vc[k], lockstep[i].vc[k]) << "job " << i << " t=" << per_job[i].time[k];
    }
    // After the split: bounded error against the per-job reference (the
    // documented compare tolerance for diverged lockstep batches). Vc is
    // slow, so comparing per decimated sample is meaningful even though the
    // sample times differ in their low bits.
    EXPECT_LT(max_rel_error(per_job[i].vc, lockstep[i].vc), 1e-3) << "job " << i;
    EXPECT_NEAR(per_job[i].final_vc, lockstep[i].final_vc,
                1e-3 * std::max(1.0, std::abs(per_job[i].final_vc)))
        << "job " << i;
  }
  EXPECT_GT(stats.shared_factorisations, 0u);
}

TEST(LockstepBatch, DeterministicAcrossThreadCounts) {
  // The lockstep march is serial by construction; the threads option must
  // not change a single bit.
  std::vector<ScenarioJob> jobs;
  for (const double hz : {70.0, 74.0}) {
    ScenarioJob job;
    job.spec = lockstep_spec(1.0);
    job.spec.excitation.step_frequency(0.5, hz);
    jobs.push_back(std::move(job));
  }

  const auto t1 = run_with_kernel(jobs, BatchKernel::kLockstep, nullptr, 1);
  const auto t2 = run_with_kernel(jobs, BatchKernel::kLockstep, nullptr, 2);
  const auto t8 = run_with_kernel(jobs, BatchKernel::kLockstep, nullptr, 8);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(t1[i].vc, t2[i].vc) << "job " << i;
    EXPECT_EQ(t1[i].vc, t8[i].vc) << "job " << i;
    EXPECT_EQ(t1[i].stats.steps, t8[i].stats.steps) << "job " << i;
  }
}

TEST(LockstepBatch, MixedDurationBatchTerminatesAndStaysBounded) {
  // Regression: a spec.duration sweep axis retires the front member from the
  // live set first; the barrier clock must then advance from a member that is
  // still live, or the march freezes at the finished member's horizon and
  // never reaches the later horizons.
  std::vector<ScenarioJob> jobs;
  for (const double duration : {0.6, 1.0, 1.4}) {
    ScenarioJob job;
    job.spec = lockstep_spec(duration);
    jobs.push_back(std::move(job));
  }

  const auto per_job = run_with_kernel(jobs, BatchKernel::kJobs);
  const auto lockstep = run_with_kernel(jobs, BatchKernel::kLockstep);

  ASSERT_EQ(lockstep.size(), jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    // Durations differ, so members are not clones: only the documented
    // bounded error vs the per-job reference is promised.
    EXPECT_LT(max_rel_error(per_job[i].vc, lockstep[i].vc), 1e-3) << "job " << i;
    EXPECT_NEAR(per_job[i].final_vc, lockstep[i].final_vc,
                1e-3 * std::max(1.0, std::abs(per_job[i].final_vc)))
        << "job " << i;
  }
}

TEST(LockstepBatch, ReuseDisabledArmStepIdenticalToPerJob) {
  // Ablation A6 (enable_jacobian_reuse = false, LLE control on): a
  // signature-stable refresh still rebuilds the Jacobians, but must observe
  // zero drift exactly like the per-job refresh() — the drift observation
  // follows the signature verdict, not the rebuild decision. Regression for
  // the lockstep rebuild path hard-coding an unstable-signature observation.
  const auto params = experiment_params(charging_scenario(0.5));
  ehsim::sim::HarvesterSession::Options options;
  options.solver.enable_jacobian_reuse = false;

  ehsim::sim::HarvesterSession reference(params, options);
  reference.run_until(0.4);

  ehsim::sim::HarvesterSession a(params, options);
  ehsim::sim::HarvesterSession b(params, options);
  a.initialise();
  b.initialise();
  ehsim::sim::HarvesterSession* sessions[2] = {&a, &b};
  std::vector<ehsim::sim::LockstepMember> members(2);
  for (std::size_t i = 0; i < 2; ++i) {
    members[i].solver =
        dynamic_cast<ehsim::core::LinearisedSolver*>(&sessions[i]->engine());
    ASSERT_NE(members[i].solver, nullptr);
    members[i].t_end = 0.4;
    // Forbid all sharing (distinct classes, never adopt — the configuration
    // run_lockstep_batch derives for sole-class members): isolates the solo
    // rebuild path, which must stay exact.
    members[i].param_class = i;
    members[i].share_after = std::numeric_limits<double>::infinity();
  }
  ehsim::sim::LockstepBatch batch(std::move(members));
  batch.run();

  for (ehsim::sim::HarvesterSession* session : sessions) {
    EXPECT_EQ(reference.stats().steps, session->stats().steps);
    const auto expect_state = reference.state();
    const auto state = session->state();
    ASSERT_EQ(expect_state.size(), state.size());
    for (std::size_t k = 0; k < state.size(); ++k) {
      EXPECT_EQ(expect_state[k], state[k]) << "state " << k;  // bit-identical
    }
  }
}

TEST(LockstepBatch, AddingACloneFollowerNeverChangesAnyOtherMembersBits) {
  // Two identical charging members that may share from t = 0: member 1
  // adopts member 0's linearisations and stability caps (the bounded-error
  // path). A third member following member 1 must be passive: it mirrors
  // member 1, cap adoptions included, so the batch-wide step and every
  // other member's bits stay exactly those of the pair. Regression: the
  // follower kept a stale cap whenever its leader adopted a cap instead of
  // recomputing one, and that stale cap entered the global step.
  const auto params = experiment_params(charging_scenario(0.2));
  ehsim::sim::HarvesterSession::Options options;
  options.with_mcu = false;
  const auto march = [&](std::size_t n) {
    std::vector<std::unique_ptr<ehsim::sim::HarvesterSession>> sessions;
    std::vector<ehsim::sim::LockstepMember> members(n);
    for (std::size_t i = 0; i < n; ++i) {
      sessions.push_back(std::make_unique<ehsim::sim::HarvesterSession>(params, options));
      sessions[i]->initialise();
      members[i].solver =
          dynamic_cast<ehsim::core::LinearisedSolver*>(&sessions[i]->engine());
      members[i].t_end = 0.2;
      members[i].param_class = 0;
      members[i].share_after = 0.0;
    }
    if (n > 2) {
      members[2].clone_leader = 1;
      members[2].diverges_at = std::numeric_limits<double>::infinity();
    }
    ehsim::sim::LockstepBatch batch(std::move(members));
    batch.run();
    return sessions;
  };
  const auto pair = march(2);
  const auto triple = march(3);

  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(pair[i]->stats().steps, triple[i]->stats().steps) << "member " << i;
    const auto expected = pair[i]->state();
    const auto actual = triple[i]->state();
    ASSERT_EQ(expected.size(), actual.size());
    for (std::size_t k = 0; k < actual.size(); ++k) {
      EXPECT_EQ(expected[k], actual[k]) << "member " << i << " state " << k;
    }
  }
  EXPECT_EQ(triple[1]->stats().steps, triple[2]->stats().steps);
  const auto leader = triple[1]->state();
  const auto follower = triple[2]->state();
  for (std::size_t k = 0; k < follower.size(); ++k) {
    EXPECT_EQ(leader[k], follower[k]) << "follower state " << k;
  }
}

TEST(LockstepBatch, APeelingFollowerContinuesLikeItsLeaderCutAtThePeel) {
  // A clone follower copies only its leader's point while it follows; the
  // leader's linearisation and LLE monitor are handed over once, when the
  // clone relation ends. Here the relation ends where the leader's horizon
  // does, so the follower then marches alone, and must march exactly like
  // its per-job self after a checkpoint cut at the last followed point:
  // same linearisation and monitor, empty linearisation cache.
  const auto params = experiment_params(charging_scenario(0.6));
  ehsim::sim::HarvesterSession::Options options;
  options.with_mcu = false;
  constexpr double kPeel = 0.3;
  constexpr double kEnd = 0.6;

  double last_followed = 0.0;
  {
    ehsim::sim::HarvesterSession per_job(params, options);
    per_job.add_observer([&](double t, std::span<const double>, std::span<const double>) {
      if (t < kPeel) {
        last_followed = t;
      }
    });
    per_job.run_until(kPeel);
  }
  ehsim::sim::HarvesterSession cut(params, options);
  cut.add_observer([&](double t, std::span<const double>, std::span<const double>) {
    if (t == last_followed) {
      cut.engine().checkpoint_cut();
    }
  });
  cut.run_until(kPeel);
  cut.run_until(kEnd);

  ehsim::sim::HarvesterSession leader(params, options);
  ehsim::sim::HarvesterSession follower(params, options);
  leader.initialise();
  follower.initialise();
  std::vector<ehsim::sim::LockstepMember> members(2);
  members[0].solver = dynamic_cast<ehsim::core::LinearisedSolver*>(&leader.engine());
  members[0].t_end = kPeel;
  members[1].solver = dynamic_cast<ehsim::core::LinearisedSolver*>(&follower.engine());
  members[1].t_end = kEnd;
  members[1].clone_leader = 0;
  members[1].diverges_at = kPeel;
  for (ehsim::sim::LockstepMember& member : members) {
    member.share_after = std::numeric_limits<double>::infinity();
  }
  ehsim::sim::LockstepBatch batch(std::move(members));
  batch.run();

  EXPECT_EQ(cut.stats().steps, follower.stats().steps);
  EXPECT_EQ(cut.stats().jacobian_builds, follower.stats().jacobian_builds);
  EXPECT_EQ(cut.stats().jacobian_reuses, follower.stats().jacobian_reuses);
  const auto expected = cut.state();
  const auto actual = follower.state();
  ASSERT_EQ(expected.size(), actual.size());
  for (std::size_t k = 0; k < actual.size(); ++k) {
    EXPECT_EQ(expected[k], actual[k]) << "state " << k;  // bit-identical
  }
}

TEST(LockstepBatch, BaselineEngineJobRejected) {
  std::vector<ScenarioJob> jobs(2);
  jobs[0].spec = lockstep_spec(0.5);
  jobs[1].spec = lockstep_spec(0.5);
  jobs[1].spec.engine = EngineKind::kPspice;

  BatchOptions options;
  options.batch_kernel = BatchKernel::kLockstep;
  EXPECT_THROW((void)run_scenario_batch(jobs, options, nullptr), ModelError);
}

TEST(LockstepBatch, KernelIdsRoundTrip) {
  for (const BatchKernel kernel : {BatchKernel::kJobs, BatchKernel::kLockstep}) {
    EXPECT_EQ(parse_batch_kernel(batch_kernel_id(kernel)), kernel);
  }
  EXPECT_THROW((void)parse_batch_kernel("simd"), ModelError);
  EXPECT_THROW((void)parse_batch_kernel("lockstep_expm"), ModelError);
}

}  // namespace
