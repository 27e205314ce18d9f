/// \file ehsim_cli.cpp
/// \brief `ehsim` — run declarative experiment/sweep specs from JSON.
///
/// Scenarios are data, not code: a JSON spec file (docs/spec_format.md)
/// describes the excitation timeline, engine, parameter overrides and sweep
/// axes, and this driver executes it through the same run_experiment /
/// BatchRunner path the C++ API uses.
///
///   ehsim run spec.json [--threads N] [--warm-start] [--out DIR] [--probes LIST] [--quiet]
///   ehsim sweep sweep.json [--threads N] [--warm-start] [--out DIR] [--probes LIST] [--quiet]
///   ehsim optimise optimise.json [--warm-start] [--out DIR] [--quiet]
///   ehsim ensemble ensemble.json [--threads N] [--out DIR] [--quiet]
///   ehsim verify-accuracy spec.json [--kernels K1,K2] [--oracle-step H] [--out DIR]
///   ehsim autotune autotune.json [--out DIR] [--quiet]
///   ehsim resume spec.json --checkpoint-dir DIR [--checkpoint-every S] [run flags]
///   ehsim serve [--threads N] [--out DIR] [--script FILE] [--queue N] [--pool N] [--cold]
///   ehsim echo spec.json
///   ehsim compare expected actual [--rtol R] [--atol A] [--ignore k1,k2,...]
///   ehsim params
///
/// `run` accepts experiment and sweep spec types; `sweep` insists on a sweep
/// file; `optimise` insists on an optimise file and writes the search log +
/// optimum as <name>.optimise.json; `ensemble` insists on an ensemble file
/// and writes <name>.ensemble.json plus every replica's result files.
/// Results land as <name>.result.json plus
/// <name>.trace.csv per job under --out (default: current directory).
/// `run`/`sweep` take --checkpoint-every S --checkpoint-dir D to write
/// periodic per-job checkpoint files; `resume` continues a killed
/// checkpointed run from those files, bit-identical to the uninterrupted
/// run with the same cadence (docs/checkpoint_format.md).
/// `--probes` appends quick probe shorthands (`net:Vm`, `state:supercap.Vi`,
/// `power`, `harvested`, `energy`) to the spec before running. `compare`
/// diffs two result files (tolerance-aware, .json or .csv by extension) and
/// exits non-zero on mismatch — the golden-output CI tests are exactly
/// `ehsim run`/`ehsim optimise` + `ehsim compare`. `echo` parses and
/// re-serialises a spec (round-trip check / canonical formatting).
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "experiments/optimise_spec.hpp"
#include "experiments/scenarios.hpp"
#include "experiments/sweep.hpp"
#include "experiments/table_printer.hpp"
#include "io/compare.hpp"
#include "io/json.hpp"
#include "io/spec_json.hpp"
#include "serve/server.hpp"

namespace {

using namespace ehsim;

int usage(std::FILE* where = stderr) {
  std::fprintf(where,
               "usage: ehsim <command> [args]\n"
               "\n"
               "  run <spec.json> [--threads N] [--warm-start] [--batch-kernel K]\n"
               "      [--out DIR] [--probes LIST] [--quiet]\n"
               "      Execute an experiment or sweep spec; write per-job\n"
               "      <name>.result.json and <name>.trace.csv under --out (default .).\n"
               "      --probes appends quick probes (comma list of net:<name>,\n"
               "      state:<block.state>, power, harvested, energy) to the spec.\n"
               "      --warm-start seeds each job's initial operating point from a\n"
               "      structurally identical prior job (same results within solver\n"
               "      tolerance, fewer consistency iterations; off by default).\n"
               "      --batch-kernel picks jobs | lockstep: lockstep marches the\n"
               "      whole batch on one clock sharing Jacobian factorisations\n"
               "      (proposed engine only; identical jobs stay bit-identical,\n"
               "      diverged ones within compare tolerances). Overrides the\n"
               "      sweep spec's batch_kernel.\n"
               "      --checkpoint-every S --checkpoint-dir D write one checkpoint\n"
               "      file per job into D at every S simulated seconds (atomic\n"
               "      replace; see docs/checkpoint_format.md).\n"
               "  sweep <sweep.json> [--threads N] [--warm-start] [--batch-kernel K]\n"
               "      [--out DIR] [--probes LIST] [--quiet]\n"
               "      Like run, but requires a sweep spec.\n"
               "  resume <spec.json> --checkpoint-dir D [--checkpoint-every S]\n"
               "      [run flags]\n"
               "      Continue a killed checkpointed run/sweep from the files in D.\n"
               "      With the same --checkpoint-every the finished results are\n"
               "      bit-identical (modulo cpu_seconds) to the uninterrupted run;\n"
               "      jobs without a checkpoint file start from t=0.\n"
               "  ensemble <ensemble.json> [--threads N] [--warm-start]\n"
               "      [--batch-kernel K] [--out DIR] [--quiet]\n"
               "      Run the K seed-varied replicas of an ensemble spec and write\n"
               "      <name>.ensemble.json (per-probe mean/stderr/min/max across\n"
               "      replicas) plus each replica's result/trace files.\n"
               "  optimise <optimise.json> [--warm-start] [--out DIR] [--quiet]\n"
               "      Run a declarative optimisation — golden section over one\n"
               "      variable, cyclic coordinate descent over a \"variables\"\n"
               "      array; write the search log + optimum as <name>.optimise.json\n"
               "      and the best run's result/trace files under --out.\n"
               "  verify-accuracy <spec.json> [--kernels K1,K2] [--oracle-step H]\n"
               "      [--threads N] [--out DIR] [--quiet]\n"
               "      Run an experiment or sweep spec on the extended-precision\n"
               "      reference oracle (src/ref) and on the fast path — once per\n"
               "      batch kernel — and write the measured max/RMS relative error\n"
               "      bounds on Vc, probes and harvested energy as\n"
               "      <name>.accuracy.json (docs/accuracy.md).\n"
               "  autotune <autotune.json> [--out DIR] [--quiet]\n"
               "      Run an autotune spec: one oracle run of the base experiment,\n"
               "      then memoised coordinate descent over the declared solver-knob\n"
               "      ladders (and batch kernels) for the cheapest configuration\n"
               "      whose measured error stays inside the spec's error budget.\n"
               "      Writes the deterministic search record <name>.autotune.json\n"
               "      plus the chosen configuration's result/trace files.\n"
               "  serve [--threads N] [--out DIR] [--script FILE] [--queue N]\n"
               "      [--pool N] [--cold]\n"
               "      Long-lived simulation service: read newline-delimited request\n"
               "      envelopes ({\"id\":..,\"type\":\"run|sweep|optimise|ensemble|resume|\n"
               "      cancel|stats|shutdown\",\"spec\":{..}} or \"spec_path\") from stdin\n"
               "      (or --script), with an optional \"checkpoint\" block on\n"
               "      run/sweep/resume,\n"
               "      stream JSON events to stdout, and keep diode tables, operating\n"
               "      points and prepared sessions warm across requests. Responses are\n"
               "      bit-identical to cold one-shot runs of the same specs (modulo\n"
               "      cpu_seconds / warm_start / shared_diode_table). --cold disables\n"
               "      the cross-request caches; docs/serve_protocol.md has the full\n"
               "      protocol.\n"
               "  echo <spec.json>\n"
               "      Parse a spec and print its canonical JSON to stdout.\n"
               "  compare <expected> <actual> [--rtol R] [--atol A] [--ignore k1,k2]\n"
               "      Tolerance-aware diff of two .json or .csv result files;\n"
               "      exits 2 when they differ.\n"
               "  params\n"
               "      List device parameter paths, spec fields, probe kinds,\n"
               "      probe statistics and optimise-spec keys.\n");
  return where == stdout ? 0 : 1;
}

struct RunArgs {
  std::string spec_path;
  std::size_t threads = 0;
  std::string out_dir = ".";
  std::string probes;          ///< comma list of --probes shorthands (may be empty)
  std::string batch_kernel;    ///< jobs | lockstep (empty: spec's choice)
  std::string checkpoint_dir;  ///< empty: checkpointing off
  double checkpoint_every = 0.0;
  int abort_after = -1;  ///< test hook: stop after N checkpoints (exit 3)
  bool warm_start = false;
  bool quiet = false;
};

std::optional<RunArgs> parse_run_args(const std::vector<std::string>& args) {
  RunArgs run;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg == "--threads" && i + 1 < args.size()) {
      run.threads = static_cast<std::size_t>(std::stoul(args[++i]));
    } else if (arg == "--out" && i + 1 < args.size()) {
      run.out_dir = args[++i];
    } else if (arg == "--probes" && i + 1 < args.size()) {
      run.probes = args[++i];
    } else if (arg == "--batch-kernel" && i + 1 < args.size()) {
      run.batch_kernel = args[++i];
    } else if (arg == "--checkpoint-dir" && i + 1 < args.size()) {
      run.checkpoint_dir = args[++i];
    } else if (arg == "--checkpoint-every" && i + 1 < args.size()) {
      run.checkpoint_every = std::stod(args[++i]);
    } else if (arg == "--abort-after-checkpoints" && i + 1 < args.size()) {
      run.abort_after = std::stoi(args[++i]);
    } else if (arg == "--warm-start") {
      run.warm_start = true;
    } else if (arg == "--quiet") {
      run.quiet = true;
    } else if (!arg.empty() && arg.front() == '-') {
      std::fprintf(stderr, "ehsim: unknown option '%s'\n", arg.c_str());
      return std::nullopt;
    } else if (run.spec_path.empty()) {
      run.spec_path = arg;
    } else {
      std::fprintf(stderr, "ehsim: unexpected argument '%s'\n", arg.c_str());
      return std::nullopt;
    }
  }
  if (run.spec_path.empty()) {
    std::fprintf(stderr, "ehsim: missing spec file\n");
    return std::nullopt;
  }
  return run;
}

/// Expand one --probes shorthand into a ProbeSpec: `net:<name>`,
/// `state:<block.state>`, `power`, `harvested` or `energy`. Labels default
/// to the target (net/state) or the kind id, so shorthand columns are
/// self-describing.
experiments::ProbeSpec probe_from_shorthand(const std::string& item) {
  experiments::ProbeSpec probe;
  const std::size_t colon = item.find(':');
  const std::string head = item.substr(0, colon);
  const std::string target = colon == std::string::npos ? "" : item.substr(colon + 1);
  if (head == "net") {
    probe.kind = experiments::ProbeSpec::Kind::kNodeVoltage;
    probe.target = target;
    probe.label = target;
  } else if (head == "state") {
    probe.kind = experiments::ProbeSpec::Kind::kStateVariable;
    probe.target = target;
    probe.label = target;
  } else if (head == "power" && target.empty()) {
    probe.kind = experiments::ProbeSpec::Kind::kGeneratorPower;
    probe.label = "generator_power";
  } else if (head == "harvested" && target.empty()) {
    probe.kind = experiments::ProbeSpec::Kind::kHarvestedPower;
    probe.label = "harvested_power";
  } else if (head == "energy" && target.empty()) {
    probe.kind = experiments::ProbeSpec::Kind::kStoredEnergy;
    probe.label = "stored_energy";
  } else {
    throw ehsim::ModelError("--probes item '" + item +
                            "' is not net:<name> | state:<block.state> | power | "
                            "harvested | energy");
  }
  probe.validate();
  return probe;
}

/// Append the --probes shorthands to an experiment spec (a sweep applies
/// them to its base, so every expanded job carries them).
void apply_probe_flag(experiments::ExperimentSpec& spec, const std::string& list) {
  std::size_t start = 0;
  while (start <= list.size()) {
    const std::size_t comma = list.find(',', start);
    const std::string item = list.substr(start, comma - start);
    if (!item.empty()) {
      spec.probes.push_back(probe_from_shorthand(item));
    }
    if (comma == std::string::npos) {
      break;
    }
    start = comma + 1;
  }
  spec.validate();  // catches duplicate labels against the spec's own probes
}

void write_results(const std::vector<experiments::ScenarioResult>& results,
                   const RunArgs& args) {
  for (const auto& result : results) {
    // io::write_result_files is the single writer shared with the serve
    // daemon — the serve determinism golden compares the files it produces.
    const std::string stem = io::write_result_files(args.out_dir, result);
    if (!args.quiet) {
      std::printf("wrote %s.result.json (+ .trace.csv, %zu points)\n", stem.c_str(),
                  result.time.size());
    }
  }
}

void print_summary(const std::vector<experiments::ScenarioResult>& results,
                   const experiments::BatchStats* batch) {
  experiments::TablePrinter table(
      {"job", "engine", "CPU", "steps", "final Vc [V]", "final f0r [Hz]"});
  for (const auto& result : results) {
    table.add_row({result.scenario, result.engine,
                   experiments::format_duration(result.cpu_seconds),
                   std::to_string(result.stats.steps),
                   experiments::format_double(result.final_vc, 4),
                   experiments::format_double(result.final_resonance_hz, 3)});
  }
  table.print(std::cout);
  if (batch != nullptr && batch->jobs > 1) {
    std::printf("%zu jobs, %zu shared diode-table hits\n", batch->jobs,
                batch->shared_table_hits);
  }
  if (batch != nullptr && (batch->warm_start_hits > 0 || batch->warm_start_rejects > 0)) {
    std::printf("warm starts: %zu seeded, %zu rejected, %llu total consistency "
                "iterations\n",
                batch->warm_start_hits, batch->warm_start_rejects,
                static_cast<unsigned long long>(batch->init_iterations));
  }
  if (batch != nullptr && (batch->lockstep_groups > 0 || batch->shared_factorisations > 0)) {
    std::printf("lockstep: %llu shared groups, %llu shared factorisations\n",
                static_cast<unsigned long long>(batch->lockstep_groups),
                static_cast<unsigned long long>(batch->shared_factorisations));
  }
}

/// Resolve the checkpoint flags into CheckpointOptions (empty optional:
/// checkpointing off). --abort-after-checkpoints implies checkpointing.
std::optional<experiments::CheckpointOptions> checkpoint_options(const RunArgs& run,
                                                                 bool resume) {
  if (run.checkpoint_dir.empty() && run.checkpoint_every <= 0.0 && !resume) {
    return std::nullopt;
  }
  if (run.checkpoint_dir.empty()) {
    throw ehsim::ModelError("--checkpoint-every needs --checkpoint-dir");
  }
  experiments::CheckpointOptions checkpointing;
  checkpointing.every = run.checkpoint_every;
  checkpointing.dir = run.checkpoint_dir;
  checkpointing.resume = resume;
  checkpointing.abort_after = run.abort_after;
  return checkpointing;
}

/// `ehsim run` / `ehsim sweep` / `ehsim resume` — one body, spec-dispatched.
/// Exit codes: 0 done, 1 usage/model error, 3 stopped by
/// --abort-after-checkpoints (the checkpoint files are on disk for resume).
int cmd_run(const std::vector<std::string>& args, bool require_sweep, bool resume) {
  const auto run = parse_run_args(args);
  if (!run) {
    return 1;
  }
  io::AnySpec file = io::load_spec_file(run->spec_path);
  const std::optional<experiments::CheckpointOptions> checkpointing =
      checkpoint_options(*run, resume);

  experiments::BatchStats batch;
  experiments::BatchOptions options;
  options.threads = run->threads;
  options.warm_start = run->warm_start;
  if (!run->batch_kernel.empty()) {
    options.batch_kernel = experiments::parse_batch_kernel(run->batch_kernel);
  }

  // The one type-switch of the command: every other branch below is plain
  // option plumbing shared by all spec flavours.
  std::optional<std::vector<experiments::ScenarioResult>> results;
  const int wrong_spec = file.dispatch(io::overloaded{
      [&](experiments::ExperimentSpec& spec) {
        if (require_sweep) {
          std::fprintf(stderr, "ehsim sweep: '%s' is not a sweep spec (use `ehsim run`)\n",
                       run->spec_path.c_str());
          return 1;
        }
        if (!run->probes.empty()) {
          apply_probe_flag(spec, run->probes);
        }
        // Single experiments route through the batch layer too, so
        // --warm-start and the counters behave uniformly (one job: the
        // producer seeds it).
        options.threads = 1;  // one job — run inline, never spin up a pool
        const std::vector<experiments::ScenarioJob> jobs{
            experiments::ScenarioJob{spec, std::nullopt}};
        results = checkpointing
                      ? experiments::run_scenario_batch_checkpointed(jobs, options,
                                                                     *checkpointing, &batch)
                      : std::optional(experiments::run_scenario_batch(jobs, options, &batch));
        return 0;
      },
      [&](experiments::SweepSpec& sweep) {
        if (!run->probes.empty()) {
          apply_probe_flag(sweep.base, run->probes);
        }
        options.warm_start = options.warm_start || sweep.warm_start;
        if (run->batch_kernel.empty()) {
          options.batch_kernel = sweep.batch_kernel;
        }
        results = checkpointing
                      ? experiments::run_sweep_checkpointed(sweep, options, *checkpointing,
                                                            &batch)
                      : std::optional(experiments::run_sweep(sweep, options, &batch));
        return 0;
      },
      [&](experiments::OptimiseSpec&) {
        std::fprintf(stderr, "ehsim run: '%s' is an optimise spec (use `ehsim optimise`)\n",
                     run->spec_path.c_str());
        return 1;
      },
      [&](experiments::EnsembleSpec&) {
        std::fprintf(stderr, "ehsim run: '%s' is an ensemble spec (use `ehsim ensemble`)\n",
                     run->spec_path.c_str());
        return 1;
      },
      [&](experiments::AutotuneSpec&) {
        std::fprintf(stderr, "ehsim run: '%s' is an autotune spec (use `ehsim autotune`)\n",
                     run->spec_path.c_str());
        return 1;
      }});
  if (wrong_spec != 0) {
    return wrong_spec;
  }
  if (!results) {
    // The --abort-after-checkpoints hook stopped the run mid-flight; the
    // checkpoint files are committed, so `ehsim resume` can finish it.
    if (!run->quiet) {
      std::printf("stopped after %d checkpoint(s); resume with `ehsim resume %s "
                  "--checkpoint-dir %s`\n",
                  run->abort_after, run->spec_path.c_str(), run->checkpoint_dir.c_str());
    }
    return 3;
  }
  write_results(*results, *run);
  if (!run->quiet) {
    print_summary(*results, &batch);
  }
  return 0;
}

int cmd_ensemble(const std::vector<std::string>& args) {
  const auto run = parse_run_args(args);
  if (!run) {
    return 1;
  }
  if (!run->probes.empty()) {
    std::fprintf(stderr,
                 "ehsim ensemble: --probes is not supported (declare probes in the "
                 "spec's base experiment)\n");
    return 1;
  }
  io::AnySpec file = io::load_spec_file(run->spec_path);
  experiments::EnsembleSpec* spec = file.get_if<experiments::EnsembleSpec>();
  if (spec == nullptr) {
    std::fprintf(stderr, "ehsim ensemble: '%s' is not an ensemble spec (use `ehsim run`)\n",
                 run->spec_path.c_str());
    return 1;
  }
  experiments::BatchOptions options;
  options.threads = run->threads;
  options.warm_start = run->warm_start || spec->warm_start;
  options.batch_kernel = run->batch_kernel.empty()
                             ? spec->batch_kernel
                             : experiments::parse_batch_kernel(run->batch_kernel);
  experiments::BatchStats batch;
  const experiments::EnsembleResult result = experiments::run_ensemble(*spec, options, &batch);
  const std::string stem = io::write_ensemble_result_files(run->out_dir, result);
  if (!run->quiet) {
    std::printf("wrote %s.ensemble.json (%zu replicas)\n", stem.c_str(), result.runs.size());
    print_summary(result.runs, &batch);
    std::printf("ensemble final Vc [V]: mean %s +- %s stderr (min %s, max %s)\n",
                experiments::format_double(result.final_vc.mean, 4).c_str(),
                experiments::format_double(result.final_vc.stderr_mean, 4).c_str(),
                experiments::format_double(result.final_vc.minimum, 4).c_str(),
                experiments::format_double(result.final_vc.maximum, 4).c_str());
  }
  return 0;
}

int cmd_optimise(const std::vector<std::string>& args) {
  const auto run = parse_run_args(args);
  if (!run) {
    return 1;
  }
  if (!run->probes.empty()) {
    std::fprintf(stderr,
                 "ehsim optimise: --probes is not supported (declare probes in the "
                 "spec's base experiment)\n");
    return 1;
  }
  if (run->threads != 0) {
    std::fprintf(stderr,
                 "ehsim optimise: --threads is not supported (every line-search "
                 "probe depends on the previous bracket)\n");
    return 1;
  }
  io::AnySpec file = io::load_spec_file(run->spec_path);
  experiments::OptimiseSpec* optimise = file.get_if<experiments::OptimiseSpec>();
  if (optimise == nullptr) {
    std::fprintf(stderr, "ehsim optimise: '%s' is not an optimise spec (use `ehsim run`)\n",
                 run->spec_path.c_str());
    return 1;
  }
  if (run->warm_start) {
    optimise->warm_start = true;
  }

  const experiments::OptimiseResult result = experiments::run_optimise(*optimise);
  std::filesystem::create_directories(run->out_dir);
  const std::string stem =
      (std::filesystem::path(run->out_dir) / io::safe_file_stem(result.name)).string();
  io::write_file(stem + ".optimise.json", io::to_json(result).dump(2) + "\n");
  write_results({result.best_run}, *run);
  if (!run->quiet) {
    std::printf("wrote %s.optimise.json (%zu evaluations)\n", stem.c_str(),
                result.evaluations.size());
    if (result.warm_start) {
      std::printf("warm starts: %zu seeded, %zu rejected, %llu total consistency "
                  "iterations\n",
                  result.warm_start_hits, result.warm_start_rejects,
                  static_cast<unsigned long long>(result.init_iterations));
    }
    if (!result.variables.empty()) {
      // Multi-variable coordinate descent: one "path = value" per axis.
      std::string point;
      for (std::size_t i = 0; i < result.variables.size(); ++i) {
        if (i > 0) {
          point += ", ";
        }
        point += result.variables[i] + " = " +
                 experiments::format_double(result.best_nd.x[i], 6);
      }
      std::printf("%s %s: best %s = %s at %s (%zu sweeps, %s of probe '%s')\n",
                  result.maximise ? "maximised" : "minimised", result.name.c_str(),
                  result.statistic.c_str(),
                  experiments::format_double(result.best_nd.value, 6).c_str(),
                  point.c_str(), result.best_nd.sweeps, result.statistic.c_str(),
                  optimise->objective.c_str());
    } else {
      std::printf("%s %s: best %s = %s at %s (%s of probe '%s')\n",
                  result.maximise ? "maximised" : "minimised", result.name.c_str(),
                  result.statistic.c_str(),
                  experiments::format_double(result.best.value, 6).c_str(),
                  (result.variable + " = " + experiments::format_double(result.best.x, 6))
                      .c_str(),
                  result.statistic.c_str(), optimise->objective.c_str());
    }
  }
  return 0;
}

/// Parse a comma list of batch-kernel ids ("jobs,lockstep").
std::vector<experiments::BatchKernel> parse_kernel_list(const std::string& list) {
  std::vector<experiments::BatchKernel> kernels;
  std::size_t start = 0;
  while (start <= list.size()) {
    const std::size_t comma = list.find(',', start);
    const std::string item = list.substr(start, comma - start);
    if (!item.empty()) {
      kernels.push_back(experiments::parse_batch_kernel(item));
    }
    if (comma == std::string::npos) {
      break;
    }
    start = comma + 1;
  }
  return kernels;
}

/// `ehsim verify-accuracy` — run a spec on the extended-precision reference
/// oracle and on the fast path (once per batch kernel), write the measured
/// error bounds as <name>.accuracy.json.
int cmd_verify_accuracy(const std::vector<std::string>& args) {
  std::string spec_path;
  std::string kernels;
  experiments::AccuracyOptions options;
  std::string out_dir = ".";
  bool quiet = false;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg == "--kernels" && i + 1 < args.size()) {
      kernels = args[++i];
    } else if (arg == "--oracle-step" && i + 1 < args.size()) {
      options.oracle_step = std::stod(args[++i]);
    } else if (arg == "--threads" && i + 1 < args.size()) {
      options.threads = static_cast<std::size_t>(std::stoul(args[++i]));
    } else if (arg == "--out" && i + 1 < args.size()) {
      out_dir = args[++i];
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (!arg.empty() && arg.front() == '-') {
      std::fprintf(stderr, "ehsim verify-accuracy: unknown option '%s'\n", arg.c_str());
      return 1;
    } else if (spec_path.empty()) {
      spec_path = arg;
    } else {
      std::fprintf(stderr, "ehsim verify-accuracy: unexpected argument '%s'\n", arg.c_str());
      return 1;
    }
  }
  if (spec_path.empty()) {
    std::fprintf(stderr, "ehsim verify-accuracy: missing spec file\n");
    return 1;
  }
  if (!kernels.empty()) {
    options.kernels = parse_kernel_list(kernels);
  }
  io::AnySpec file = io::load_spec_file(spec_path);
  std::optional<experiments::AccuracyReport> report;
  const int wrong_spec = file.dispatch(io::overloaded{
      [&](const experiments::ExperimentSpec& spec) {
        report = experiments::run_accuracy(spec, options);
        return 0;
      },
      [&](const experiments::SweepSpec& sweep) {
        report = experiments::run_accuracy(sweep, options);
        return 0;
      },
      [&](const auto&) {
        std::fprintf(stderr,
                     "ehsim verify-accuracy: '%s' is not an experiment or sweep spec\n",
                     spec_path.c_str());
        return 1;
      }});
  if (wrong_spec != 0) {
    return wrong_spec;
  }
  std::filesystem::create_directories(out_dir);
  const std::string stem =
      (std::filesystem::path(out_dir) / io::safe_file_stem(report->name)).string();
  io::write_file(stem + ".accuracy.json", io::to_json(*report).dump(2) + "\n");
  if (!quiet) {
    std::printf("wrote %s.accuracy.json (oracle: %llu steps at h = %g s)\n", stem.c_str(),
                static_cast<unsigned long long>(report->oracle_steps), report->oracle_step);
    experiments::TablePrinter table(
        {"kernel", "jobs", "max |Vc| rel err", "final Vc rel err", "energy rel err"});
    for (const experiments::KernelAccuracy& row : report->kernels) {
      table.add_row({row.kernel, std::to_string(row.jobs.size()),
                     experiments::format_double(row.bounds.vc_max_rel_error, 6),
                     experiments::format_double(row.bounds.final_vc_rel_error, 6),
                     experiments::format_double(row.bounds.energy_rel_error, 6)});
    }
    table.print(std::cout);
  }
  return 0;
}

/// `ehsim autotune` — run an autotune spec, write the deterministic search
/// record as <name>.autotune.json plus the chosen configuration's result
/// and trace files.
int cmd_autotune(const std::vector<std::string>& args) {
  const auto run = parse_run_args(args);
  if (!run) {
    return 1;
  }
  if (!run->probes.empty() || run->threads != 0) {
    std::fprintf(stderr,
                 "ehsim autotune: --probes/--threads are not supported (the search is "
                 "sequential; declare probes in the spec's base experiment)\n");
    return 1;
  }
  io::AnySpec file = io::load_spec_file(run->spec_path);
  const experiments::AutotuneSpec* spec = file.get_if<experiments::AutotuneSpec>();
  if (spec == nullptr) {
    std::fprintf(stderr, "ehsim autotune: '%s' is not an autotune spec (use `ehsim run`)\n",
                 run->spec_path.c_str());
    return 1;
  }
  const experiments::AutotuneOutcome outcome = experiments::run_autotune(*spec);
  const experiments::AutotuneResult& result = outcome.result;
  std::filesystem::create_directories(run->out_dir);
  const std::string stem =
      (std::filesystem::path(run->out_dir) / io::safe_file_stem(result.name)).string();
  io::write_file(stem + ".autotune.json", io::to_json(result).dump(2) + "\n");
  write_results({outcome.best_run}, *run);
  if (!run->quiet) {
    std::printf("wrote %s.autotune.json (%llu evaluations, %llu sweeps)\n", stem.c_str(),
                static_cast<unsigned long long>(result.evaluations),
                static_cast<unsigned long long>(result.sweeps));
    std::string point;
    for (std::size_t i = 0; i < result.paths.size(); ++i) {
      if (i > 0) {
        point += ", ";
      }
      point += result.paths[i] + " = " +
               experiments::format_double(result.chosen_values[i], 6);
    }
    if (result.feasible) {
      std::printf("chosen: %s on kernel %s — cost %s (%.1f%% of baseline), error %s "
                  "within budget %s\n",
                  point.c_str(), result.chosen_kernel.c_str(),
                  experiments::format_double(result.chosen_cost, 0).c_str(),
                  100.0 * result.cost_ratio,
                  experiments::format_double(result.chosen_error, 6).c_str(),
                  experiments::format_double(result.error_budget, 6).c_str());
    } else {
      std::printf("no configuration met the budget %s; closest: %s on kernel %s "
                  "(error %s)\n",
                  experiments::format_double(result.error_budget, 6).c_str(), point.c_str(),
                  result.chosen_kernel.c_str(),
                  experiments::format_double(result.chosen_error, 6).c_str());
    }
  }
  return 0;
}

int cmd_serve(const std::vector<std::string>& args) {
  serve::ServerOptions options;
  std::string script;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg == "--threads" && i + 1 < args.size()) {
      options.threads = static_cast<std::size_t>(std::stoul(args[++i]));
    } else if (arg == "--out" && i + 1 < args.size()) {
      options.out_dir = args[++i];
    } else if (arg == "--script" && i + 1 < args.size()) {
      script = args[++i];
    } else if (arg == "--queue" && i + 1 < args.size()) {
      options.queue_capacity = static_cast<std::size_t>(std::stoul(args[++i]));
    } else if (arg == "--pool" && i + 1 < args.size()) {
      options.pool_capacity = static_cast<std::size_t>(std::stoul(args[++i]));
    } else if (arg == "--cold") {
      options.cross_request_caches = false;
    } else {
      std::fprintf(stderr, "ehsim serve: unknown option '%s'\n", arg.c_str());
      return 1;
    }
  }
  if (!script.empty()) {
    std::ifstream in(script);
    if (!in) {
      std::fprintf(stderr, "ehsim serve: cannot open script '%s'\n", script.c_str());
      return 1;
    }
    serve::Server server(in, std::cout, options);
    return server.run();
  }
  serve::Server server(std::cin, std::cout, options);
  return server.run();
}

int cmd_echo(const std::vector<std::string>& args) {
  if (args.size() != 1) {
    std::fprintf(stderr, "ehsim echo: expected exactly one spec file\n");
    return 1;
  }
  const io::AnySpec file = io::load_spec_file(args[0]);
  const io::JsonValue json =
      file.dispatch([](const auto& spec) { return io::to_json(spec); });
  std::printf("%s\n", json.dump(2).c_str());
  return 0;
}

int cmd_compare(const std::vector<std::string>& args) {
  std::vector<std::string> paths;
  io::CompareOptions options;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg == "--rtol" && i + 1 < args.size()) {
      options.rtol = std::stod(args[++i]);
    } else if (arg == "--atol" && i + 1 < args.size()) {
      options.atol = std::stod(args[++i]);
    } else if (arg == "--ignore" && i + 1 < args.size()) {
      std::string list = args[++i];
      std::size_t start = 0;
      while (start <= list.size()) {
        const std::size_t comma = list.find(',', start);
        const std::string key = list.substr(start, comma - start);
        if (!key.empty()) {
          options.ignore_keys.push_back(key);
        }
        if (comma == std::string::npos) {
          break;
        }
        start = comma + 1;
      }
    } else if (!arg.empty() && arg.front() == '-') {
      std::fprintf(stderr, "ehsim compare: unknown option '%s'\n", arg.c_str());
      return 1;
    } else {
      paths.push_back(arg);
    }
  }
  if (paths.size() != 2) {
    std::fprintf(stderr, "ehsim compare: expected <expected> <actual>\n");
    return 1;
  }

  const auto is_csv = [](const std::string& path) {
    return path.size() >= 4 && path.substr(path.size() - 4) == ".csv";
  };
  if (is_csv(paths[0]) != is_csv(paths[1])) {
    std::fprintf(stderr, "ehsim compare: cannot compare '%s' with '%s' — one is CSV, "
                         "the other is not\n",
                 paths[0].c_str(), paths[1].c_str());
    return 1;
  }
  std::vector<std::string> diffs;
  if (is_csv(paths[0])) {
    diffs = io::compare_csv(io::read_file(paths[0]), io::read_file(paths[1]), options);
  } else {
    diffs = io::compare_json(io::JsonValue::parse(io::read_file(paths[0])),
                             io::JsonValue::parse(io::read_file(paths[1])), options);
  }
  if (diffs.empty()) {
    std::printf("match: %s == %s (rtol %g, atol %g)\n", paths[0].c_str(), paths[1].c_str(),
                options.rtol, options.atol);
    return 0;
  }
  std::fprintf(stderr, "MISMATCH between %s and %s:\n", paths[0].c_str(), paths[1].c_str());
  for (const std::string& diff : diffs) {
    std::fprintf(stderr, "  %s\n", diff.c_str());
  }
  return 2;
}

int cmd_params() {
  std::printf("device parameters (overrides, sweep axes, optimise variables):\n");
  for (const std::string& path : experiments::param_paths()) {
    std::printf("  %s\n", path.c_str());
  }
  std::printf("\nspec fields (sweep axes, optimise variables):\n");
  for (const std::string& path : experiments::spec_field_paths()) {
    std::printf("  %s\n", path.c_str());
  }
  std::printf("\nprobe kinds (spec \"probes\" entries; keys: label, kind, target,\n"
              "window_start, window_end, threshold, record):\n");
  for (const std::string& kind : experiments::probe_kind_ids()) {
    std::printf("  %s\n", kind.c_str());
  }
  std::printf("\nprobe statistics (optimise \"statistic\"; duty_cycle/crossings need a\n"
              "threshold on the probe):\n");
  for (const std::string& statistic : experiments::probe_statistic_ids()) {
    std::printf("  %s\n", statistic.c_str());
  }
  std::printf("\noptimise spec keys (type \"optimise\"; one variable via\n"
              "variable/lower/upper, or several via the \"variables\" array):\n");
  for (const std::string& key : experiments::optimise_spec_keys()) {
    std::printf("  %s\n", key.c_str());
  }
  std::printf("\noptimise \"variables\" entry keys (per search axis):\n");
  for (const std::string& key : experiments::optimise_variable_keys()) {
    std::printf("  %s\n", key.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    return usage();
  }
  const std::string command = argv[1];
  const std::vector<std::string> args(argv + 2, argv + argc);
  try {
    if (command == "run") {
      return cmd_run(args, /*require_sweep=*/false, /*resume=*/false);
    }
    if (command == "sweep") {
      return cmd_run(args, /*require_sweep=*/true, /*resume=*/false);
    }
    if (command == "resume") {
      return cmd_run(args, /*require_sweep=*/false, /*resume=*/true);
    }
    if (command == "ensemble") {
      return cmd_ensemble(args);
    }
    if (command == "optimise" || command == "optimize") {
      return cmd_optimise(args);
    }
    if (command == "verify-accuracy") {
      return cmd_verify_accuracy(args);
    }
    if (command == "autotune") {
      return cmd_autotune(args);
    }
    if (command == "serve") {
      return cmd_serve(args);
    }
    if (command == "echo") {
      return cmd_echo(args);
    }
    if (command == "compare") {
      return cmd_compare(args);
    }
    if (command == "params") {
      return cmd_params();
    }
    if (command == "--help" || command == "-h" || command == "help") {
      return usage(stdout);
    }
    // Machine-parseable failure: one JSON line naming the offending field,
    // plus the human usage text; exit status stays nonzero either way.
    io::JsonValue error = io::JsonValue::make_object();
    error.set("error", "unknown command");
    error.set("command", command);
    error.set("expected",
              "run | sweep | resume | ensemble | optimise | verify-accuracy | autotune | "
              "serve | echo | compare | params | help");
    std::fprintf(stderr, "%s\n", error.dump(-1).c_str());
    return usage();
  } catch (const std::exception& error) {
    std::fprintf(stderr, "ehsim: %s\n", error.what());
    return 1;
  }
}
