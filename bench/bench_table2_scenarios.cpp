/// \file bench_table2_scenarios.cpp
/// \brief Reproduces paper Table II: CPU times of the existing and proposed
/// simulation techniques on the two tuning scenarios.
///
/// Paper values (P4 host): Scenario 1 (1 Hz retune) — SystemVision 2185 s
/// vs proposed 20.3 s; Scenario 2 (14 Hz retune) — 7 h vs 228 s. Both
/// engines here run the complete mixed-technology model (analogue blocks +
/// watchdog + MCU process) through the same co-simulation scheduler.
///
/// Default: scaled scenario spans (1/10 of the full durations) to keep the
/// bench interactive; EHSIM_BENCH_FULL=1 runs the paper's full spans
/// and EHSIM_BENCH_SMOKE=1 shrinks them further for the CI bench-smoke job.
/// EHSIM_BENCH_JSON=<path> writes the measured rows as a JSON artifact.
#include <cstdio>
#include <cstdlib>
#include <iostream>

#include "bench_json.hpp"
#include "experiments/scenarios.hpp"
#include "experiments/table_printer.hpp"

int main() {
  using namespace ehsim::experiments;

  const ehsim::benchio::BenchSpan mode = ehsim::benchio::bench_span();
  const double scale = mode == ehsim::benchio::BenchSpan::kFull    ? 1.0
                       : mode == ehsim::benchio::BenchSpan::kSmoke ? 0.01
                                                                   : 0.1;

  std::printf("=== Table II: CPU times of existing and proposed simulation techniques ===\n");
  std::printf("scenario spans scaled by %.2f (EHSIM_BENCH_FULL=1 for full spans)\n\n", scale);

  struct PaperRow {
    double existing_s;
    double proposed_s;
  };
  const PaperRow paper[2] = {{2185.0, 20.3}, {7.0 * 3600.0, 228.0}};

  TablePrinter table({"scenario", "technique", "CPU time", "steps", "NR iters",
                      "retuned to", "paper CPU (full span)"});

  ehsim::io::JsonValue doc = ehsim::io::JsonValue::make_object();
  doc.set("bench", "table2_scenarios");
  doc.set("span_scale", scale);
  ehsim::io::JsonValue doc_rows = ehsim::io::JsonValue::make_array();

  double ratio[2] = {0.0, 0.0};
  int row_index = 0;
  for (ExperimentSpec spec : {scenario1(), scenario2()}) {
    spec.duration *= scale;
    // Keep the frequency shift inside the scaled span.
    ExcitationEvent& shift = spec.excitation.events.front();
    shift.time = std::min(shift.time, spec.duration * 0.2);

    spec.engine = EngineKind::kProposed;
    const ScenarioResult proposed = run_experiment(spec);
    spec.engine = EngineKind::kSystemVision;
    const ScenarioResult existing = run_experiment(spec);
    ratio[row_index] = existing.cpu_seconds / proposed.cpu_seconds;

    table.add_row({spec.name, "existing (VHDL-AMS, Newton-Raphson)",
                   format_duration(existing.cpu_seconds), std::to_string(existing.stats.steps),
                   std::to_string(existing.stats.newton_iterations),
                   format_double(existing.final_resonance_hz, 4) + " Hz",
                   format_duration(paper[row_index].existing_s)});
    table.add_row({spec.name, "proposed (linearised state-space)",
                   format_duration(proposed.cpu_seconds), std::to_string(proposed.stats.steps),
                   "-", format_double(proposed.final_resonance_hz, 4) + " Hz",
                   format_duration(paper[row_index].proposed_s)});

    for (const ScenarioResult* result : {&existing, &proposed}) {
      ehsim::io::JsonValue entry = ehsim::io::JsonValue::make_object();
      entry.set("scenario", spec.name);
      entry.set("engine", result->engine);
      entry.set("sim_seconds", result->sim_seconds);
      entry.set("cpu_seconds", result->cpu_seconds);
      entry.set("steps", result->stats.steps);
      entry.set("newton_iterations", result->stats.newton_iterations);
      entry.set("final_resonance_hz", result->final_resonance_hz);
      doc_rows.push_back(std::move(entry));
    }
    ++row_index;
  }
  table.print(std::cout);
  doc.set("rows", std::move(doc_rows));
  doc.set("ratio_scenario1", ratio[0]);
  doc.set("ratio_scenario2", ratio[1]);

  std::printf("\nmeasured existing/proposed CPU ratios: scenario 1: %.1fx, scenario 2: %.1fx\n",
              ratio[0], ratio[1]);
  std::printf("paper ratios: scenario 1: %.0fx, scenario 2: %.0fx (commercial overhead\n"
              "not emulated here — measured ratios are a lower bound; see README.md,\n"
              "\"What the reproduction does not emulate\")\n",
              paper[0].existing_s / paper[0].proposed_s,
              paper[1].existing_s / paper[1].proposed_s);
  ehsim::benchio::maybe_write_bench_json(doc);
  return EXIT_SUCCESS;
}
