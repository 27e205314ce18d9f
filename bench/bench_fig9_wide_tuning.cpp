/// \file bench_fig9_wide_tuning.cpp
/// \brief Reproduces paper Fig. 9: scenario 2 — the 14 Hz (maximum range)
/// tuning process, simulation vs experimental supercapacitor voltage.
///
/// "In Scenario 2, we increase the frequency variation to 14 Hz which
/// presents a more challenging simulation case due to the wider frequency
/// range. Yet there is close correlation between simulation and
/// experimental waveforms."
#include <algorithm>
#include <cmath>
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
/// event's target frequency and executed serially, across a 4-thread
/// BatchRunner pool and on the lockstep kernel. Parallel results must be
/// bit-identical to serial.
void run_batch_sweep() {
  using namespace ehsim::experiments;

  SweepSpec sweep;
  sweep.base = scenario2();
  sweep.base.name = "wide-tuning";
  // CI smoke keeps the sweep seconds-scale; the counters (steps, shared
  // factorisations) stay deterministic at any span. The shift
  // sits at 3/4 of the span: until then every job is a clone of job 0, which
  // is the regime the lockstep kernel amortises (one integration drives the
  // whole batch).
  sweep.base.duration =
      ehsim::benchio::bench_span() == ehsim::benchio::BenchSpan::kSmoke ? 40.0 : 120.0;
  sweep.base.excitation.events.front().time = 0.75 * sweep.base.duration;
  sweep.axes.push_back(
      SweepAxis{"excitation.event[0].frequency_hz", {66.0, 69.0, 72.0, 75.0, 78.0, 81.0}, {}});
  const std::vector<ExperimentSpec> jobs = sweep.expand();

  std::printf("\n=== wide-tuning SweepSpec through sim::BatchRunner (%zu jobs) ===\n",
              jobs.size());

  // The lockstep arm runs the same sweep serially on one global clock; the
  // pre-shift clone prefix costs one integration instead of six. Bounded
  // error vs the per-job reference once the jobs diverge. The two arms of
  // the speed-up gate alternate, best of kGateRepeats each.
  double serial_wall = std::numeric_limits<double>::infinity();
  double lockstep_wall = std::numeric_limits<double>::infinity();
  std::vector<ScenarioResult> serial;
  std::vector<ScenarioResult> lockstep;
  BatchStats lockstep_batch;
  for (int repeat = 0; repeat < ehsim::benchio::kGateRepeats; ++repeat) {
    serial = ehsim::benchio::timed_min(
        serial_wall, [&] { return run_sweep(sweep, BatchOptions{.threads = 1}); });
    lockstep = ehsim::benchio::timed_min(lockstep_wall, [&] {
      return run_sweep(sweep, BatchOptions{.threads = 1, .batch_kernel = BatchKernel::kLockstep},
                       &lockstep_batch);
    });
  }

  BatchStats batch;
  WallTimer parallel_timer;
  const auto parallel = run_sweep(sweep, BatchOptions{.threads = 4}, &batch);
  const double parallel_wall = parallel_timer.elapsed_seconds();

  bool lockstep_bounded = lockstep.size() == serial.size();
  for (std::size_t i = 0; lockstep_bounded && i < serial.size(); ++i) {
    const double scale = std::max(1.0, std::abs(serial[i].final_vc));
    lockstep_bounded = std::abs(lockstep[i].final_vc - serial[i].final_vc) <= 1e-3 * scale;
  }

  bool identical = serial.size() == parallel.size();
  for (std::size_t i = 0; identical && i < serial.size(); ++i) {
    identical = serial[i].time == parallel[i].time && serial[i].vc == parallel[i].vc &&
                serial[i].final_resonance_hz == parallel[i].final_resonance_hz;
  }

  std::printf("# target[Hz]  final_f0r[Hz]  final_Vc[V]  steps\n");
  for (std::size_t i = 0; i < parallel.size(); ++i) {
    std::printf("%10.1f  %12.2f  %11.4f  %8llu\n",
                jobs[i].excitation.events.front().frequency_hz,
                parallel[i].final_resonance_hz, parallel[i].final_vc,
                static_cast<unsigned long long>(parallel[i].stats.steps));
  }
  std::printf("\nserial (1 thread):   %.2f s wall (best of %d)\n", serial_wall,
              ehsim::benchio::kGateRepeats);
  std::printf("parallel (4 threads): %.2f s wall  (%.2fx, %u hardware threads)\n",
              parallel_wall, serial_wall / parallel_wall,
              std::thread::hardware_concurrency());
  std::printf("shared diode-table hits in the parallel batch: %zu of %zu jobs\n",
              batch.shared_table_hits, batch.jobs);
  std::printf("parallel traces bit-identical to serial: %s\n", identical ? "YES" : "NO");
  const double lockstep_speedup = serial_wall / lockstep_wall;
  std::printf("\nlockstep (1 thread): %.2f s wall  (%.2fx vs per-job serial, best of %d)\n",
              lockstep_wall, lockstep_speedup, ehsim::benchio::kGateRepeats);
  std::printf("  %llu shared groups, %llu shared factorisations\n",
              static_cast<unsigned long long>(lockstep_batch.lockstep_groups),
              static_cast<unsigned long long>(lockstep_batch.shared_factorisations));
  std::printf("lockstep finals within 1e-3 of per-job serial: %s\n",
              lockstep_bounded ? "YES" : "NO");
  if (!identical) {
    std::exit(EXIT_FAILURE);
  }
  // The lockstep kernel earns its keep or the bench fails: the clone-prefix
  // sweep must run at least 2x faster than the per-job serial reference,
  // with real sharing and bounded error.
  if (!lockstep_bounded || lockstep_batch.shared_factorisations == 0 ||
      lockstep_speedup < 2.0) {
    std::printf("FAIL: lockstep speedup %.2fx < 2x (or unbounded error / no sharing)\n",
                lockstep_speedup);
    std::exit(EXIT_FAILURE);
  }

  // CI perf artifact: the sharing counters ride the BENCH_*.json trajectory
  // next to the wall-clock numbers.
  namespace io = ehsim::io;
  io::JsonValue doc = io::JsonValue::make_object();
  doc.set("bench", "fig9_wide_tuning_sweep");
  doc.set("jobs", static_cast<double>(batch.jobs));
  doc.set("serial_wall_seconds", serial_wall);
  doc.set("parallel_wall_seconds", parallel_wall);
  doc.set("shared_table_hits", static_cast<double>(batch.shared_table_hits));
  io::JsonValue lockstep_json = io::JsonValue::make_object();
  lockstep_json.set("wall_seconds", lockstep_wall);
  lockstep_json.set("speedup_vs_serial", lockstep_speedup);
  lockstep_json.set("groups", lockstep_batch.lockstep_groups);
  lockstep_json.set("shared_factorisations", lockstep_batch.shared_factorisations);
  doc.set("lockstep", std::move(lockstep_json));
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
