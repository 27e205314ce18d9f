/// \file bench_fig9_wide_tuning.cpp
/// \brief Reproduces paper Fig. 9: scenario 2 — the 14 Hz (maximum range)
/// tuning process, simulation vs experimental supercapacitor voltage.
///
/// "In Scenario 2, we increase the frequency variation to 14 Hz which
/// presents a more challenging simulation case due to the wider frequency
/// range. Yet there is close correlation between simulation and
/// experimental waveforms."
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "bench_json.hpp"
#include "experiments/cpu_timer.hpp"
#include "experiments/metrics.hpp"
#include "experiments/reference_data.hpp"
#include "experiments/scenarios.hpp"
#include "experiments/sweep.hpp"

namespace {

/// Wide-tuning design sweep: the scenario-2 retune repeated for a fan of
/// target frequencies, expressed as a declarative SweepSpec over the shift
/// event's target frequency. It runs as a loop of separate runs, as one
/// batch on 1 thread and as one batch on a 4-thread BatchRunner pool; both
/// batches must reproduce the separate runs bit for bit.
void run_batch_sweep() {
  using namespace ehsim::experiments;

  SweepSpec sweep;
  sweep.base = scenario2();
  sweep.base.name = "wide-tuning";
  // CI smoke keeps the sweep seconds-scale; the counters (steps, forks)
  // stay deterministic at any span. The shift sits at 3/4 of the span: until
  // then every job repeats job 0, which is the span the batch marches once
  // and forks.
  sweep.base.duration =
      ehsim::benchio::bench_span() == ehsim::benchio::BenchSpan::kSmoke ? 40.0 : 120.0;
  sweep.base.excitation.events.front().time = 0.75 * sweep.base.duration;
  sweep.axes.push_back(
      SweepAxis{"excitation.event[0].frequency_hz", {66.0, 69.0, 72.0, 75.0, 78.0, 81.0}, {}});
  const std::vector<ExperimentSpec> jobs = sweep.expand();

  std::printf("\n=== wide-tuning SweepSpec through sim::BatchRunner (%zu jobs) ===\n",
              jobs.size());

  // The batch on one thread marches the pre-shift prefix once instead of
  // six times, and its results stay those of the separate runs. The two
  // arms of the speed-up gate alternate, best of kGateRepeats each.
  double separate_wall = std::numeric_limits<double>::infinity();
  double forked_wall = std::numeric_limits<double>::infinity();
  std::vector<ScenarioResult> separate;
  std::vector<ScenarioResult> forked;
  BatchStats forked_batch;
  for (int repeat = 0; repeat < ehsim::benchio::kGateRepeats; ++repeat) {
    separate = ehsim::benchio::timed_min(separate_wall, [&] {
      std::vector<ScenarioResult> runs;
      for (const ExperimentSpec& job : jobs) {
        runs.push_back(run_experiment(job));
      }
      return runs;
    });
    forked = ehsim::benchio::timed_min(
        forked_wall, [&] { return run_sweep(sweep, {.threads = 1}, &forked_batch); });
  }

  BatchStats batch;
  WallTimer parallel_timer;
  const auto parallel = run_sweep(sweep, {.threads = 4}, &batch);
  const double parallel_wall = parallel_timer.elapsed_seconds();

  const auto same = [&separate](const std::vector<ScenarioResult>& runs) {
    bool exact = runs.size() == separate.size();
    for (std::size_t i = 0; exact && i < runs.size(); ++i) {
      exact = runs[i].final_vc == separate[i].final_vc && runs[i].time == separate[i].time &&
              runs[i].vc == separate[i].vc &&
              runs[i].final_resonance_hz == separate[i].final_resonance_hz;
    }
    return exact;
  };
  const bool forked_exact = same(forked);
  const bool parallel_exact = same(parallel);

  std::printf("# target[Hz]  final_f0r[Hz]  final_Vc[V]  steps\n");
  for (std::size_t i = 0; i < parallel.size(); ++i) {
    std::printf("%10.1f  %12.2f  %11.4f  %8llu\n",
                jobs[i].excitation.events.front().frequency_hz,
                parallel[i].final_resonance_hz, parallel[i].final_vc,
                static_cast<unsigned long long>(parallel[i].stats.steps));
  }
  const double forked_speedup = separate_wall / forked_wall;
  std::printf("\nseparate runs (1 thread): %.2f s wall (best of %d)\n", separate_wall,
              ehsim::benchio::kGateRepeats);
  std::printf("batch (1 thread):         %.2f s wall  (%.2fx vs separate runs, best of %d)\n",
              forked_wall, forked_speedup, ehsim::benchio::kGateRepeats);
  std::printf("  %llu leader snapshots, %llu jobs forked\n",
              static_cast<unsigned long long>(forked_batch.lockstep_groups),
              static_cast<unsigned long long>(forked_batch.shared_factorisations));
  std::printf("batch (4 threads):        %.2f s wall  (%u hardware threads)\n", parallel_wall,
              std::thread::hardware_concurrency());
  std::printf("batch traces bit-identical to separate runs: 1 thread %s, 4 threads %s\n",
              forked_exact ? "YES" : "NO", parallel_exact ? "YES" : "NO");
  if (!parallel_exact) {
    std::exit(EXIT_FAILURE);
  }
  // The forks earn their keep or the bench fails: the shared-prefix sweep
  // must run at least 2x faster than the separate runs, with real forks and
  // exact results.
  if (!forked_exact || forked_batch.shared_factorisations == 0 || forked_speedup < 2.0) {
    std::printf("FAIL: batch speedup %.2fx < 2x (or results not exact / no forks)\n",
                forked_speedup);
    std::exit(EXIT_FAILURE);
  }

  // CI perf artifact: the fork counters ride the BENCH_*.json trajectory
  // next to the wall-clock numbers.
  namespace io = ehsim::io;
  io::JsonValue doc = io::JsonValue::make_object();
  doc.set("bench", "fig9_wide_tuning_sweep");
  doc.set("jobs", static_cast<double>(batch.jobs));
  doc.set("separate_wall_seconds", separate_wall);
  doc.set("parallel_wall_seconds", parallel_wall);
  io::JsonValue forked_json = io::JsonValue::make_object();
  forked_json.set("wall_seconds", forked_wall);
  forked_json.set("speedup_vs_separate", forked_speedup);
  forked_json.set("snapshots", forked_batch.lockstep_groups);
  forked_json.set("forked_jobs", forked_batch.shared_factorisations);
  doc.set("forked", std::move(forked_json));
  ehsim::benchio::maybe_write_bench_json(doc);
}

}  // namespace

int main() {
  using namespace ehsim::experiments;

  ExperimentSpec spec = scenario2();
  if (ehsim::benchio::bench_span() == ehsim::benchio::BenchSpan::kSmoke) {
    spec.duration = 120.0;  // seconds-scale CI smoke span (shift + burst start)
  } else if (std::getenv("EHSIM_BENCH_FULL") == nullptr) {
    spec.duration = 330.0;  // covers shift + the long actuation burst + recovery
  }
  const ExcitationEvent& shift = spec.excitation.events.front();

  std::printf("=== Fig. 9: scenario 2 (14 Hz tuning), simulation vs experiment ===\n");
  std::printf("ambient %.1f Hz -> %.1f Hz at t = %.0f s, %.0f s span\n\n",
              spec.excitation.initial_frequency_hz, shift.frequency_hz, shift.time,
              spec.duration);

  const ScenarioResult sim = run_experiment(spec);
  const ExperimentalTrace measured = make_experimental_trace(spec, 2.0);
  const auto sim_on_grid = resample(sim.time, sim.vc, measured.time);

  std::printf("# time[s]  simulated_Vc[V]  measured_Vc[V]\n");
  for (std::size_t i = 0; i < measured.time.size(); i += 5) {
    std::printf("%8.1f  %12.4f  %12.4f\n", measured.time[i], sim_on_grid[i], measured.vc[i]);
  }

  std::printf("\nMCU activity:\n");
  for (const auto& event : sim.mcu_events) {
    const char* what = "?";
    switch (event.type) {
      case ehsim::harvester::McuEvent::Type::kWakeup:
        what = "wakeup (Vc)";
        break;
      case ehsim::harvester::McuEvent::Type::kEnergyLow:
        what = "energy low (Vc)";
        break;
      case ehsim::harvester::McuEvent::Type::kFrequencyMatched:
        what = "frequency matched (f0r)";
        break;
      case ehsim::harvester::McuEvent::Type::kTuningStarted:
        what = "tuning started (target Hz)";
        break;
      case ehsim::harvester::McuEvent::Type::kTuningCompleted:
        what = "tuning completed (f0r)";
        break;
      case ehsim::harvester::McuEvent::Type::kTuningAborted:
        what = "tuning aborted (Vc)";
        break;
    }
    std::printf("  t=%8.1f s  %-28s %.3f\n", event.time, what, event.value);
  }

  const double r = pearson_correlation(sim_on_grid, measured.vc);
  const double err = nrmse(measured.vc, sim_on_grid);
  std::printf("\nfinal resonance: %.2f Hz (target %.1f Hz)\n", sim.final_resonance_hz,
              shift.frequency_hz);
  std::printf("Pearson correlation simulation vs measurement: r = %.4f\n", r);
  std::printf("NRMSE:                                          %.3f\n", err);
  std::printf("paper: \"our technique is accurate even for energy harvester with a wide\n"
              "frequency tuning range\".\n");

  run_batch_sweep();
  return EXIT_SUCCESS;
}
