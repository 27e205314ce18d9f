/// \file bench_scaling.cpp
/// \brief Ablation A4: model-size scaling and the stiffness caveat.
///
/// Two sweeps: (a) multiplier stage count 1..12 (model grows from 7 to 18
/// states): the baseline pays a cubically growing LU per Newton iteration,
/// but the proposed engine is not free either — more simultaneously
/// conducting diodes stiffen the input-filter node, tightening its Eq. 7
/// stability cap. (b) The paper's own caveat: "the technique is unlikely to
/// offer a speed advantage when applied to strongly stiff systems" — the
/// Eq. 13 coil variant with decreasing inductance adds a progressively
/// faster parasitic mode and the explicit step count grows accordingly.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <vector>

#include "baseline/nr_engine.hpp"
#include "bench_json.hpp"
#include "core/linearised_solver.hpp"
#include "experiments/cpu_timer.hpp"
#include "experiments/scenarios.hpp"
#include "experiments/table_printer.hpp"
#include "sim/harvester_session.hpp"

namespace {

double time_engine(ehsim::experiments::EngineKind kind,
                   const ehsim::harvester::HarvesterParams& params, double span,
                   std::uint64_t* steps_out = nullptr) {
  using namespace ehsim;
  sim::HarvesterSession::Options options;
  options.mode = experiments::device_mode_for(kind);
  options.engine_factory = [kind](core::SystemAssembler& system) {
    return experiments::make_engine(kind, system);
  };
  sim::HarvesterSession session(params, options);
  session.run_until(span);
  if (steps_out != nullptr) {
    *steps_out = session.stats().steps;
  }
  return session.cpu_seconds();
}

}  // namespace

int main() {
  using namespace ehsim::experiments;

  const bool full = std::getenv("EHSIM_BENCH_FULL") != nullptr;
  const double span = full ? 5.0 : 1.5;

  std::printf("=== Ablation A4: model-size scaling and stiffness (paper section II) ===\n\n");
  std::printf("--- (a) multiplier stages: states grow, LU cost grows cubically ---\n");

  TablePrinter table({"stages", "states", "proposed CPU", "NR baseline CPU", "speed-up"});
  for (std::size_t stages : {1u, 3u, 5u, 8u, 12u}) {
    auto params = experiment_params(charging_scenario(span));
    params.multiplier.stages = stages;
    const double proposed = time_engine(EngineKind::kProposed, params, span);
    const double baseline = time_engine(EngineKind::kSystemVision, params, span);
    table.add_row({std::to_string(stages), std::to_string(stages + 1 + 2 + 3),
                   format_duration(proposed), format_duration(baseline),
                   format_double(baseline / proposed, 3) + "x"});
  }
  table.print(std::cout);

  std::printf("\n--- (b) stiffness: Eq. 13 coil variant, decreasing Lc ---\n");
  TablePrinter stiff({"Lc [mH]", "proposed CPU", "proposed steps", "NR baseline CPU",
                      "speed-up"});
  for (double lc : {50e-3, 20e-3, 9.5e-3, 4e-3}) {
    auto params = experiment_params(charging_scenario(span));
    params.generator.coil_inductance = lc;
    std::uint64_t steps = 0;
    const double proposed = time_engine(EngineKind::kProposed, params, span, &steps);
    const double baseline = time_engine(EngineKind::kSystemVision, params, span);
    char label[32];
    std::snprintf(label, sizeof label, "%.1f", lc * 1e3);
    stiff.add_row({label, format_duration(proposed), std::to_string(steps),
                   format_duration(baseline), format_double(baseline / proposed, 3) + "x"});
  }
  stiff.print(std::cout);
  std::printf("\nsmaller Lc shortens the coil time constant; the Eq. 7 cap forces more\n"
              "explicit steps (see the step column) while the implicit baseline's step\n"
              "count is stability-immune — the paper's stiff-system caveat, quantified.\n");

  // (c) Batch-size scaling of the lockstep kernel: N identical jobs cost one
  // integration plus N-1 state copies, so the speedup over the per-job serial
  // reference approaches N. Identical members stay bit-identical.
  std::printf("\n--- (c) lockstep batch-size scaling: N identical jobs, 1 thread, best of %d ---\n",
              ehsim::benchio::kGateRepeats);
  TablePrinter lockstep_table(
      {"jobs", "per-job wall", "lockstep wall", "speed-up"});
  namespace io = ehsim::io;
  io::JsonValue rows = io::JsonValue::make_array();
  double speedup_at_four = 0.0;
  bool exact = true;
  for (std::size_t n : {2u, 4u, 8u}) {
    const std::vector<ScenarioJob> jobs(n, ScenarioJob{charging_scenario(span), std::nullopt});

    // The two arms alternate, best of kGateRepeats each.
    double serial_wall = std::numeric_limits<double>::infinity();
    double lockstep_wall = std::numeric_limits<double>::infinity();
    std::vector<ScenarioResult> serial;
    std::vector<ScenarioResult> lockstep;
    BatchStats lockstep_stats;
    for (int repeat = 0; repeat < ehsim::benchio::kGateRepeats; ++repeat) {
      serial = ehsim::benchio::timed_min(
          serial_wall, [&] { return run_scenario_batch(jobs, BatchOptions{.threads = 1}); });
      lockstep = ehsim::benchio::timed_min(lockstep_wall, [&] {
        return run_scenario_batch(
            jobs, BatchOptions{.threads = 1, .batch_kernel = BatchKernel::kLockstep},
            &lockstep_stats);
      });
    }

    for (std::size_t i = 0; i < n; ++i) {
      exact = exact && lockstep[i].final_vc == serial[i].final_vc &&
              lockstep[i].vc == serial[i].vc;
    }
    const double speedup = serial_wall / lockstep_wall;
    if (n == 4u) {
      speedup_at_four = speedup;
    }
    lockstep_table.add_row({std::to_string(n), format_duration(serial_wall),
                            format_duration(lockstep_wall),
                            format_double(speedup, 3) + "x"});

    io::JsonValue row = io::JsonValue::make_object();
    row.set("jobs", static_cast<double>(n));
    row.set("serial_wall_seconds", serial_wall);
    row.set("lockstep_wall_seconds", lockstep_wall);
    row.set("speedup_vs_serial", speedup);
    row.set("shared_factorisations", lockstep_stats.shared_factorisations);
    rows.push_back(std::move(row));
  }
  lockstep_table.print(std::cout);
  std::printf("\nlockstep bit-identical to per-job on identical batches: %s\n",
              exact ? "YES" : "NO");

  io::JsonValue doc = io::JsonValue::make_object();
  doc.set("bench", "scaling_lockstep_batch");
  doc.set("rows", std::move(rows));
  ehsim::benchio::maybe_write_bench_json(doc);

  // A 4-member identical batch must come in at least 2x over per-job serial
  // (it deletes 3 of 4 integrations) and must not trade away correctness.
  if (!exact || speedup_at_four < 2.0) {
    std::printf("FAIL: lockstep identical-batch speedup %.2fx < 2x at 4 jobs "
                "(or exactness lost)\n",
                speedup_at_four);
    return EXIT_FAILURE;
  }
  return EXIT_SUCCESS;
}
