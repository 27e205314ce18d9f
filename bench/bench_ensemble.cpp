/// \file bench_ensemble.cpp
/// \brief Monte Carlo ensemble throughput: seed replicas through one batch.
///
/// An EnsembleSpec's replicas differ only in their random-walk drift
/// realisation, and share everything before the walk starts — exactly the
/// case the batch's prefix forks exist for. This bench runs one K-replica
/// drifting-ambient ensemble as a loop of separate replica runs and as one
/// run_ensemble batch (the span before the walk marched once, then forked),
/// and fails unless the batch actually forked the seed replicas (a snapshot
/// taken, replicas restored from it) and reproduced the separate runs'
/// ensemble statistics bit for bit, twice.
#include <cstdio>
#include <cstdlib>

#include "bench_json.hpp"
#include "experiments/cpu_timer.hpp"
#include "experiments/ensemble.hpp"
#include "experiments/metrics.hpp"
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

  WallTimer separate_timer;
  WelfordAccumulator separate;
  for (const ExperimentSpec& replica : ensemble.expand()) {
    separate.add(run_experiment(replica).final_vc);
  }
  const double separate_wall = separate_timer.elapsed_seconds();

  BatchStats stats;
  WallTimer batch_timer;
  const EnsembleResult batch = run_ensemble(ensemble, {}, &stats);
  const double batch_wall = batch_timer.elapsed_seconds();

  std::printf("separate runs: %.2f s wall, mean final Vc %.6f V (stderr %.2e)\n", separate_wall,
              separate.mean(), separate.standard_error());
  std::printf("batch:         %.2f s wall, mean final Vc %.6f V (stderr %.2e), "
              "%zu snapshots, %zu replicas forked\n",
              batch_wall, batch.final_vc.mean, batch.final_vc.stderr_mean, stats.lockstep_groups,
              stats.shared_factorisations);

  // Forking: the batch must have snapshotted a leader and restored seed
  // replicas from it, not degenerated into isolated sessions.
  const bool shared =
      stats.jobs == replicas && stats.lockstep_groups > 0 && stats.shared_factorisations > 0;

  // Exactness: the batch statistics are the separate runs', and a second
  // batch reproduces them bit for bit.
  const EnsembleResult again = run_ensemble(ensemble);
  const EnsembleStat expected{separate.mean(), separate.standard_error(), separate.minimum(),
                              separate.maximum()};
  const auto same = [](const EnsembleStat& a, const EnsembleStat& b) {
    return a.mean == b.mean && a.stderr_mean == b.stderr_mean && a.minimum == b.minimum &&
           a.maximum == b.maximum;
  };
  const bool deterministic =
      same(batch.final_vc, expected) && same(again.final_vc, batch.final_vc);

  // And the ensemble is not vacuous: the seeds produced distinct outcomes.
  const bool varied =
      batch.final_vc.maximum > batch.final_vc.minimum && batch.final_vc.stderr_mean > 0.0;

  const bool ok = shared && deterministic && varied;
  std::printf("\nthe batch forks the seed replicas and matches separate runs: %s\n",
              ok ? "YES" : "NO");

  io::JsonValue doc = io::JsonValue::make_object();
  doc.set("bench", "ensemble");
  doc.set("replicas", static_cast<double>(replicas));
  doc.set("sim_seconds", duration);
  doc.set("separate_wall_seconds", separate_wall);
  doc.set("batch_wall_seconds", batch_wall);
  doc.set("snapshots", static_cast<double>(stats.lockstep_groups));
  doc.set("forked_jobs", static_cast<double>(stats.shared_factorisations));
  doc.set("final_vc_mean", batch.final_vc.mean);
  doc.set("final_vc_stderr", batch.final_vc.stderr_mean);
  doc.set("deterministic", deterministic);
  ehsim::benchio::maybe_write_bench_json(doc);

  return ok ? EXIT_SUCCESS : EXIT_FAILURE;
}
