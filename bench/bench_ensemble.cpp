/// \file bench_ensemble.cpp
/// \brief Monte Carlo ensemble throughput: seed replicas through the batch
/// kernels.
///
/// An EnsembleSpec's replicas differ only in their random-walk drift
/// realisation, and share everything before the walk starts — exactly the
/// case the lockstep kernel's prefix forks exist for. This bench runs one
/// K-replica drifting-ambient ensemble through the jobs kernel (independent
/// sessions on a thread pool) and through the lockstep kernel (the span
/// before the walk marched once, then forked), and fails unless the lockstep
/// kernel actually forked the seed replicas (a snapshot taken, replicas
/// restored from it) and reproduced the jobs kernel's ensemble statistics
/// bit for bit, twice.
#include <cstdio>
#include <cstdlib>

#include "bench_json.hpp"
#include "experiments/cpu_timer.hpp"
#include "experiments/ensemble.hpp"
#include "experiments/scenarios.hpp"

int main() {
  using namespace ehsim::experiments;
  namespace io = ehsim::io;

  const ehsim::benchio::BenchSpan span = ehsim::benchio::bench_span();
  const bool smoke = span == ehsim::benchio::BenchSpan::kSmoke;
  const bool full = span == ehsim::benchio::BenchSpan::kFull;
  const double duration = smoke ? 1.0 : (full ? 20.0 : 5.0);
  const std::size_t replicas = smoke ? 4 : (full ? 16 : 8);

  EnsembleSpec ensemble;
  ensemble.base = charging_scenario(duration);
  ensemble.base.name = "ensemble-drift";
  ensemble.base.trace_interval = 0.0;
  RandomWalkParams walk;
  walk.step_interval = 0.05;
  walk.frequency_sigma = 0.4;
  walk.seed = 1;
  walk.min_frequency_hz = 60.0;
  walk.max_frequency_hz = 80.0;
  ensemble.base.excitation.random_walk(duration * 0.1, duration * 0.8, walk);
  ensemble.base.probes.push_back(ProbeSpec{"P_gen", ProbeSpec::Kind::kGeneratorPower});
  ensemble.num_seeds = replicas;

  std::printf("=== ensemble: %zu seed replicas, %.1f s each ===\n\n", replicas, duration);

  BatchOptions jobs_options;
  jobs_options.batch_kernel = BatchKernel::kJobs;
  BatchStats jobs_stats;
  WallTimer jobs_timer;
  const EnsembleResult jobs = run_ensemble(ensemble, jobs_options, &jobs_stats);
  const double jobs_wall = jobs_timer.elapsed_seconds();

  BatchOptions lockstep_options;
  lockstep_options.batch_kernel = BatchKernel::kLockstep;
  BatchStats lockstep_stats;
  WallTimer lockstep_timer;
  const EnsembleResult lockstep = run_ensemble(ensemble, lockstep_options, &lockstep_stats);
  const double lockstep_wall = lockstep_timer.elapsed_seconds();

  std::printf("jobs kernel:     %.2f s wall, mean final Vc %.6f V (stderr %.2e)\n",
              jobs_wall, jobs.final_vc.mean, jobs.final_vc.stderr_mean);
  std::printf("lockstep kernel: %.2f s wall, mean final Vc %.6f V (stderr %.2e), "
              "%zu snapshots, %zu replicas forked\n",
              lockstep_wall, lockstep.final_vc.mean, lockstep.final_vc.stderr_mean,
              lockstep_stats.lockstep_groups, lockstep_stats.shared_factorisations);

  // Forking: the lockstep kernel must have snapshotted a leader and
  // restored seed replicas from it, not degenerated into isolated sessions.
  const bool shared = lockstep_stats.jobs == replicas &&
                      lockstep_stats.lockstep_groups > 0 &&
                      lockstep_stats.shared_factorisations > 0;

  // Exactness: the lockstep statistics are the jobs kernel's, and a second
  // lockstep execution reproduces them bit for bit.
  const EnsembleResult again = run_ensemble(ensemble, lockstep_options, nullptr);
  const auto same = [](const EnsembleResult& a, const EnsembleResult& b) {
    return a.final_vc.mean == b.final_vc.mean && a.final_vc.stderr_mean == b.final_vc.stderr_mean &&
           a.final_vc.minimum == b.final_vc.minimum && a.final_vc.maximum == b.final_vc.maximum;
  };
  const bool deterministic = same(lockstep, jobs) && same(again, lockstep);

  // And the ensemble is not vacuous: the seeds produced distinct outcomes.
  const bool varied = jobs.final_vc.maximum > jobs.final_vc.minimum &&
                      jobs.final_vc.stderr_mean > 0.0;

  const bool ok = shared && deterministic && varied;
  std::printf("\nlockstep forks the seed replicas and matches the jobs kernel: %s\n",
              ok ? "YES" : "NO");

  io::JsonValue doc = io::JsonValue::make_object();
  doc.set("bench", "ensemble");
  doc.set("replicas", static_cast<double>(replicas));
  doc.set("sim_seconds", duration);
  doc.set("jobs_wall_seconds", jobs_wall);
  doc.set("lockstep_wall_seconds", lockstep_wall);
  doc.set("lockstep_snapshots", static_cast<double>(lockstep_stats.lockstep_groups));
  doc.set("lockstep_forked_jobs", static_cast<double>(lockstep_stats.shared_factorisations));
  doc.set("final_vc_mean", jobs.final_vc.mean);
  doc.set("final_vc_stderr", jobs.final_vc.stderr_mean);
  doc.set("lockstep_deterministic", deterministic);
  ehsim::benchio::maybe_write_bench_json(doc);

  return ok ? EXIT_SUCCESS : EXIT_FAILURE;
}
