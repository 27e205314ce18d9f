/// \file bench_table1_cpu_times.cpp
/// \brief Reproduces paper Table I: "CPU times of different simulation
/// environments" — the supercapacitor charging curve of the energy harvester.
///
/// The paper timed full charging runs on a Pentium 4: SystemVision
/// (VHDL-AMS) 4 h 24 min, OrCAD (PSPICE) 9 h 48 min, SystemC-A 6 h 40 min.
/// This bench runs the same experiment — fixed 70 Hz excitation, storage
/// charging from empty, no control activity — on the three Newton-Raphson
/// baseline profiles and on the proposed linearised state-space engine over
/// the identical model. Default: a scaled simulated span with
/// per-simulated-second extrapolation (the charge curve's CPU cost per
/// simulated second is constant after the initial transient); set
/// EHSIM_BENCH_FULL=1 for longer spans.
///
/// Absolute times are hardware-dependent; the reproducible observables are
/// (a) every NR profile is dramatically slower than the proposed engine and
/// (b) the profile ordering PSPICE > SystemC-A > SystemVision of Table I.
///
/// EHSIM_BENCH_SMOKE=1 runs a seconds-scale span (the CI bench-smoke job);
/// EHSIM_BENCH_JSON=<path> writes the measured rows as a JSON artifact.
#include <cstdio>
#include <cstdlib>
#include <iostream>

#include "bench_json.hpp"
#include "experiments/scenarios.hpp"
#include "experiments/table_printer.hpp"

namespace {

struct Row {
  const char* label;
  ehsim::experiments::EngineKind kind;
  double paper_seconds;  ///< Table I value
};

}  // namespace

int main() {
  using namespace ehsim::experiments;

  const ehsim::benchio::BenchSpan mode = ehsim::benchio::bench_span();
  // Simulated seconds measured per engine.
  const double span = mode == ehsim::benchio::BenchSpan::kFull      ? 120.0
                      : mode == ehsim::benchio::BenchSpan::kSmoke   ? 4.0
                                                                    : 12.0;
  const double paper_charge_span = 4.0 * 3600.0;  // nominal full-charge span

  std::printf("=== Table I: CPU times of different simulation environments ===\n");
  std::printf("Supercapacitor charging curve, 70 Hz excitation, %.0f s simulated span\n",
              span);
  std::printf("(EHSIM_BENCH_FULL=1 lengthens the span; paper hosts: P4, 2 GB RAM)\n\n");

  const Row rows[] = {
      {"SystemVision (VHDL-AMS)", EngineKind::kSystemVision, 4.0 * 3600 + 24 * 60},
      {"OrCAD (PSPICE)", EngineKind::kPspice, 9.0 * 3600 + 48 * 60},
      {"SystemC-A (Visual C++)", EngineKind::kSystemCA, 6.0 * 3600 + 40 * 60},
      {"proposed (linearised state-space)", EngineKind::kProposed, 0.0},
  };

  TablePrinter table({"simulator", "CPU time", "CPU/sim-s", "extrapolated full charge",
                      "paper (Table I)", "steps", "NR iters"});

  double proposed_per_sim_second = 0.0;
  double baseline_sum = 0.0;
  int baseline_count = 0;

  ehsim::io::JsonValue doc = ehsim::io::JsonValue::make_object();
  doc.set("bench", "table1_cpu_times");
  doc.set("simulated_span", span);
  ehsim::io::JsonValue doc_rows = ehsim::io::JsonValue::make_array();

  for (const Row& row : rows) {
    ExperimentSpec spec = charging_scenario(span);
    spec.engine = row.kind;
    const ScenarioResult result = run_experiment(spec);
    const double per_sim_second = result.cpu_seconds / result.sim_seconds;
    if (row.kind == EngineKind::kProposed) {
      proposed_per_sim_second = per_sim_second;
    } else {
      baseline_sum += per_sim_second;
      ++baseline_count;
    }
    table.add_row({row.label, format_duration(result.cpu_seconds),
                   format_double(per_sim_second, 3) + " s",
                   format_duration(per_sim_second * paper_charge_span),
                   row.paper_seconds > 0.0 ? format_duration(row.paper_seconds) : "-",
                   std::to_string(result.stats.steps),
                   std::to_string(result.stats.newton_iterations)});

    ehsim::io::JsonValue entry = ehsim::io::JsonValue::make_object();
    entry.set("simulator", row.label);
    entry.set("engine", engine_kind_id(row.kind));
    entry.set("cpu_seconds", result.cpu_seconds);
    entry.set("cpu_per_sim_second", per_sim_second);
    entry.set("steps", result.stats.steps);
    entry.set("newton_iterations", result.stats.newton_iterations);
    doc_rows.push_back(std::move(entry));
  }
  table.print(std::cout);
  doc.set("rows", std::move(doc_rows));

  if (proposed_per_sim_second > 0.0 && baseline_count > 0) {
    const double mean_baseline = baseline_sum / baseline_count;
    doc.set("mean_baseline_over_proposed", mean_baseline / proposed_per_sim_second);
    std::printf(
        "\nmean NR-baseline / proposed CPU ratio: %.1fx\n"
        "paper's claim: >= two orders of magnitude vs commercial simulators; the\n"
        "measured ratio here is a lower bound (no commercial elaboration/event\n"
        "overhead is emulated — see README.md, \"What the reproduction does not\n"
        "emulate\").\n",
        mean_baseline / proposed_per_sim_second);
  }
  ehsim::benchio::maybe_write_bench_json(doc);
  return EXIT_SUCCESS;
}
