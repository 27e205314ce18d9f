/// \file ehsim_cli.cpp
/// \brief `ehsim` — run declarative experiment/sweep specs from JSON.
///
/// Scenarios are data, not code: a JSON spec file (docs/spec_format.md)
/// describes the excitation timeline, engine, parameter overrides and sweep
/// axes. Every job verb parses its arguments here and runs through
/// serve::execute, the executor `ehsim serve` uses too.
///
///   ehsim run spec.json [--threads N] [--out DIR] [--probes LIST] [--quiet]
///   ehsim sweep sweep.json [--threads N] [--out DIR] [--probes LIST] [--quiet]
///   ehsim optimise optimise.json [--out DIR] [--quiet]
///   ehsim ensemble ensemble.json [--threads N] [--out DIR] [--quiet]
///   ehsim verify-accuracy spec.json [--oracle-step H] [--threads N] [--out DIR]
///   ehsim autotune autotune.json [--out DIR] [--quiet]
///   ehsim resume spec.json --checkpoint-dir DIR [--checkpoint-every S] [run flags]
///   ehsim serve [--threads N] [--out DIR] [--script FILE] [--queue N]
///   ehsim echo spec.json
///   ehsim compare expected actual [--rtol R] [--atol A] [--ignore k1,k2,...]
///   ehsim params
///
/// `run` accepts experiment and sweep spec types; the other verbs insist on
/// the flavours of the shared verb table (serve::expected_spec_types), and
/// each rejects the flags it does not use. Results land as
/// <name>.result.json plus <name>.trace.csv per job under --out (default:
/// current directory); optimise, ensemble, verify-accuracy and autotune
/// add their <name>.<verb>.json document. Jobs of a sweep or ensemble that
/// share a prefix march it once and fork (experiments::run_scenario_batch);
/// their results equal separate runs. `run`/`sweep` take
/// --checkpoint-every S --checkpoint-dir D to write periodic per-job
/// checkpoint files; `resume` continues a killed checkpointed run from
/// those files, bit-identical to the uninterrupted run with the same cadence
/// (docs/checkpoint_format.md). `--probes` appends quick probe shorthands
/// (`net:Vm`, `state:supercap.Vi`, `power`, `harvested`, `energy`) to the
/// spec before running. `compare` diffs two result files (tolerance-aware,
/// .json or .csv by extension) and exits non-zero on mismatch — the
/// golden-output CI tests are exactly `ehsim run`/`ehsim optimise` +
/// `ehsim compare`. `echo` parses and re-serialises a spec (round-trip
/// check / canonical formatting).
#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <exception>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "experiments/optimise_spec.hpp"
#include "experiments/scenarios.hpp"
#include "experiments/sweep.hpp"
#include "experiments/table_printer.hpp"
#include "io/compare.hpp"
#include "io/json.hpp"
#include "io/spec_json.hpp"
#include "serve/execute.hpp"
#include "serve/server.hpp"

namespace {

using namespace ehsim;
using serve::RequestType;

int usage(std::FILE* where = stderr) {
  std::fprintf(where,
               "usage: ehsim <command> [args]\n"
               "\n"
               "  run <spec.json> [--threads N] [--out DIR] [--probes LIST] [--quiet]\n"
               "      Execute an experiment or sweep spec; write per-job\n"
               "      <name>.result.json and <name>.trace.csv under --out (default .).\n"
               "      Sweep jobs that share a span until their excitation differs\n"
               "      march it once and fork (proposed engine; results equal\n"
               "      separate runs, a forked job's cpu_seconds counts from the fork).\n"
               "      --probes appends quick probes (comma list of net:<name>,\n"
               "      state:<block.state>, power, harvested, energy) to the spec.\n"
               "      --checkpoint-every S --checkpoint-dir D write one checkpoint\n"
               "      file per job into D at every S simulated seconds (atomic\n"
               "      replace; checkpointed jobs do not fork; see\n"
               "      docs/checkpoint_format.md).\n"
               "  sweep <sweep.json> [--threads N] [--out DIR] [--probes LIST] [--quiet]\n"
               "      Like run, but requires a sweep spec.\n"
               "  resume <spec.json> --checkpoint-dir D [--checkpoint-every S]\n"
               "      [run flags]\n"
               "      Continue a killed checkpointed run/sweep from the files in D.\n"
               "      With the same --checkpoint-every the finished results are\n"
               "      bit-identical (modulo cpu_seconds) to the uninterrupted run\n"
               "      (a cadence the files were not cut at is refused; none\n"
               "      finishes without further checkpoints); jobs without a\n"
               "      checkpoint file start from t=0.\n"
               "  ensemble <ensemble.json> [--threads N] [--out DIR] [--quiet]\n"
               "      Run the K seed-varied replicas of an ensemble spec and write\n"
               "      <name>.ensemble.json (per-probe mean/stderr/min/max across\n"
               "      replicas) plus each replica's result/trace files.\n"
               "  optimise <optimise.json> [--out DIR] [--quiet]\n"
               "      Run a declarative optimisation — golden section over one\n"
               "      variable, cyclic coordinate descent over a \"variables\"\n"
               "      array; write the search log + optimum as <name>.optimise.json\n"
               "      and the best run's result/trace files under --out.\n"
               "  verify-accuracy <spec.json> [--oracle-step H] [--threads N]\n"
               "      [--out DIR] [--quiet]\n"
               "      Run an experiment or sweep spec on the extended-precision\n"
               "      reference oracle (src/ref) and on the fast path, and write\n"
               "      the measured max/RMS relative error bounds on Vc, probes and\n"
               "      harvested energy as <name>.accuracy.json (docs/accuracy.md).\n"
               "  autotune <autotune.json> [--out DIR] [--quiet]\n"
               "      Run an autotune spec: one oracle run of the base experiment,\n"
               "      then memoised coordinate descent over the declared solver-knob\n"
               "      ladders for the cheapest configuration whose measured error\n"
               "      stays inside the spec's error budget.\n"
               "      Writes the deterministic search record <name>.autotune.json\n"
               "      plus the chosen configuration's result/trace files.\n"
               "  serve [--threads N] [--out DIR] [--script FILE] [--queue N]\n"
               "      Long-lived simulation service: read newline-delimited request\n"
               "      envelopes ({\"id\":..,\"type\":\"run|sweep|optimise|ensemble|resume|\n"
               "      accuracy|autotune|cancel|stats|shutdown\",\"spec\":{..}} or\n"
               "      \"spec_path\") from stdin (or --script), with an optional\n"
               "      \"checkpoint\" block on run/sweep/resume, and stream JSON events\n"
               "      to stdout. Every job runs through the executor of the verbs\n"
               "      above, so each response is the one-shot document of the same\n"
               "      spec (modulo cpu_seconds);\n"
               "      docs/serve_protocol.md has the full protocol.\n"
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

// ---- argument parsing --------------------------------------------------------

/// The value after the flag at args[i] (advancing i); throws when it is
/// missing.
const std::string& flag_value(const std::vector<std::string>& args, std::size_t& i) {
  if (i + 1 >= args.size()) {
    throw ModelError(args[i] + " needs a value");
  }
  return args[++i];
}

/// The whole of \p text as a non-negative integer: no sign, no trailing
/// characters, in range.
std::size_t parse_count(const std::string& flag, const std::string& text) {
  std::size_t value = 0;
  const char* end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, value);
  if (error != std::errc{} || stop != end) {
    throw ModelError(flag + " expects a non-negative integer, got '" + text + "'");
  }
  return value;
}

/// The whole of \p text as a finite number.
double parse_real(const std::string& flag, const std::string& text) {
  double value = 0.0;
  const char* end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, value);
  if (error != std::errc{} || stop != end || !std::isfinite(value)) {
    throw ModelError(flag + " expects a number, got '" + text + "'");
  }
  return value;
}

/// Split a comma list, dropping empty items.
std::vector<std::string> split_list(const std::string& list) {
  std::vector<std::string> items;
  std::size_t start = 0;
  while (start <= list.size()) {
    const std::size_t comma = list.find(',', start);
    std::string item = list.substr(start, comma - start);
    if (!item.empty()) {
      items.push_back(std::move(item));
    }
    if (comma == std::string::npos) {
      break;
    }
    start = comma + 1;
  }
  return items;
}

/// A job verb: its command name, the executor verb and the flags it uses
/// besides --out and --quiet.
struct JobVerb {
  std::string_view command;
  RequestType type;
  std::vector<std::string_view> flags;
};

const std::vector<JobVerb>& job_verbs() {
  static const std::vector<std::string_view> kRunFlags = {
      "--threads", "--probes", "--checkpoint-dir", "--checkpoint-every",
      "--abort-after-checkpoints"};
  static const std::vector<JobVerb> kVerbs = {
      {"run", RequestType::kRun, kRunFlags},
      {"sweep", RequestType::kSweep, kRunFlags},
      {"resume", RequestType::kResume, kRunFlags},
      {"ensemble", RequestType::kEnsemble, {"--threads"}},
      {"optimise", RequestType::kOptimise, {}},
      {"optimize", RequestType::kOptimise, {}},
      {"verify-accuracy", RequestType::kAccuracy, {"--threads", "--oracle-step"}},
      {"autotune", RequestType::kAutotune, {}},
  };
  return kVerbs;
}

const JobVerb* find_job_verb(std::string_view command) {
  for (const JobVerb& verb : job_verbs()) {
    if (verb.command == command) {
      return &verb;
    }
  }
  return nullptr;
}

/// Whether \p flag is a value-taking job flag of any verb.
bool is_job_flag(std::string_view flag) {
  const std::vector<JobVerb>& verbs = job_verbs();
  return flag == "--out" || std::any_of(verbs.begin(), verbs.end(), [flag](const JobVerb& verb) {
           return std::find(verb.flags.begin(), verb.flags.end(), flag) != verb.flags.end();
         });
}

/// The arguments of one job verb: the spec path and the value of each flag
/// given.
struct JobArgs {
  std::string spec_path;
  std::map<std::string, std::string, std::less<>> flags;
  bool quiet = false;

  [[nodiscard]] const std::string* find(std::string_view flag) const {
    const auto it = flags.find(flag);
    return it == flags.end() ? nullptr : &it->second;
  }
};

JobArgs parse_job_args(const JobVerb& verb, const std::vector<std::string>& args) {
  JobArgs parsed;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg == "--quiet") {
      parsed.quiet = true;
    } else if (!arg.empty() && arg.front() == '-') {
      if (!is_job_flag(arg)) {
        throw ModelError("unknown option '" + arg + "'");
      }
      if (arg != "--out" && std::find(verb.flags.begin(), verb.flags.end(), arg) ==
                                verb.flags.end()) {
        throw ModelError(arg + " does not apply to `ehsim " + std::string(verb.command) + "`");
      }
      parsed.flags[arg] = flag_value(args, i);
    } else if (parsed.spec_path.empty()) {
      parsed.spec_path = arg;
    } else {
      throw ModelError("unexpected argument '" + arg + "'");
    }
  }
  if (parsed.spec_path.empty()) {
    throw ModelError("missing spec file");
  }
  return parsed;
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
  for (const std::string& item : split_list(list)) {
    spec.probes.push_back(probe_from_shorthand(item));
  }
  spec.validate();  // catches duplicate labels against the spec's own probes
}

/// The checkpoint flags as CheckpointOptions (empty: checkpointing off;
/// resume always needs the directory, and only resume may omit the cadence,
/// the rule the serve protocol applies to its "checkpoint" block).
std::optional<experiments::CheckpointOptions> checkpoint_options(const JobArgs& args,
                                                                 RequestType verb) {
  const std::string* dir = args.find("--checkpoint-dir");
  const std::string* every = args.find("--checkpoint-every");
  const std::string* abort_after = args.find("--abort-after-checkpoints");
  if (dir == nullptr && every == nullptr && abort_after == nullptr &&
      verb != RequestType::kResume) {
    return std::nullopt;
  }
  if (dir == nullptr) {
    throw ModelError(verb == RequestType::kResume
                         ? "resume needs --checkpoint-dir"
                         : "--checkpoint-every / --abort-after-checkpoints need --checkpoint-dir");
  }
  experiments::CheckpointOptions checkpointing;
  checkpointing.dir = *dir;
  if (every != nullptr) {
    checkpointing.every = parse_real("--checkpoint-every", *every);
    if (!(checkpointing.every > 0.0)) {
      throw ModelError("--checkpoint-every expects a positive number of simulated seconds, "
                       "got '" + *every + "'");
    }
  } else if (verb != RequestType::kResume) {
    throw ModelError("--checkpoint-dir needs --checkpoint-every (only resume may omit it)");
  } else if (abort_after != nullptr) {
    // Without a cadence the resumed run writes no checkpoint, so the hook
    // could never fire.
    throw ModelError("--abort-after-checkpoints needs --checkpoint-every: a resume without "
                     "a cadence writes no checkpoint");
  }
  if (abort_after != nullptr) {
    checkpointing.abort_after = static_cast<int>(std::min<std::size_t>(
        parse_count("--abort-after-checkpoints", *abort_after),
        static_cast<std::size_t>(std::numeric_limits<int>::max())));
  }
  return checkpointing;
}

// ---- printing ----------------------------------------------------------------

/// The job table plus the linearisation counts of its jobs under it.
class JobTable {
 public:
  void add(const experiments::ScenarioResult& result) {
    table_.add_row({result.scenario, result.engine,
                    experiments::format_duration(result.cpu_seconds),
                    std::to_string(result.stats.steps),
                    experiments::format_double(result.final_vc, 4),
                    experiments::format_double(result.final_resonance_hz, 3)});
    ++jobs_;
    builds_ += result.stats.jacobian_builds;
    reuses_ += result.stats.jacobian_reuses;
    cap_evaluations_ += result.stats.stability_recomputes;
    cap_reuses_ += result.stats.stability_reuses;
  }

  void print() const {
    if (jobs_ == 0) return;
    table_.print(std::cout);
    if (builds_ + reuses_ > 0) {
      std::printf("linearisations: %llu built, %llu reused; Eq. 7 caps: %llu evaluated, "
                  "%llu reused\n",
                  static_cast<unsigned long long>(builds_),
                  static_cast<unsigned long long>(reuses_),
                  static_cast<unsigned long long>(cap_evaluations_),
                  static_cast<unsigned long long>(cap_reuses_));
    }
  }

 private:
  experiments::TablePrinter table_{
      {"job", "engine", "CPU", "steps", "final Vc [V]", "final f0r [Hz]"}};
  std::size_t jobs_ = 0;
  std::uint64_t builds_ = 0;
  std::uint64_t reuses_ = 0;
  std::uint64_t cap_evaluations_ = 0;
  std::uint64_t cap_reuses_ = 0;
};

/// Prints what execute() reports about \p spec as the CLI's summary lines.
/// Scenario rows collect into one table printed after the run
/// (print_jobs).
class SummarySink final : public serve::ExecuteSink {
 public:
  SummarySink(const io::AnySpec& spec, std::string out_dir, bool quiet)
      : spec_(spec), out_dir_(std::move(out_dir)), quiet_(quiet) {}

  void result(const experiments::ScenarioResult& result, std::size_t, std::size_t) override {
    wrote_run(result);
    jobs_.add(result);
  }

  void result(const experiments::EnsembleResult& result) override {
    if (quiet_) return;
    std::printf("wrote %s.ensemble.json (%zu replicas)\n", stem(result.name).c_str(),
                result.runs.size());
    JobTable replicas;
    for (const experiments::ScenarioResult& run : result.runs) {
      replicas.add(run);
    }
    replicas.print();
    std::printf("ensemble final Vc [V]: mean %s +- %s stderr (min %s, max %s)\n",
                experiments::format_double(result.final_vc.mean, 4).c_str(),
                experiments::format_double(result.final_vc.stderr_mean, 4).c_str(),
                experiments::format_double(result.final_vc.minimum, 4).c_str(),
                experiments::format_double(result.final_vc.maximum, 4).c_str());
  }

  void result(const experiments::OptimiseResult& result) override {
    wrote_run(result.best_run);
    if (quiet_) return;
    std::printf("wrote %s.optimise.json (%zu evaluations)\n", stem(result.name).c_str(),
                result.evaluations.size());
    const std::string& objective = spec_.get_if<experiments::OptimiseSpec>()->objective;
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
                  objective.c_str());
    } else {
      std::printf("%s %s: best %s = %s at %s (%s of probe '%s')\n",
                  result.maximise ? "maximised" : "minimised", result.name.c_str(),
                  result.statistic.c_str(),
                  experiments::format_double(result.best.value, 6).c_str(),
                  (result.variable + " = " + experiments::format_double(result.best.x, 6))
                      .c_str(),
                  result.statistic.c_str(), objective.c_str());
    }
  }

  void result(const experiments::AccuracyReport& report) override {
    if (quiet_) return;
    std::printf("wrote %s.accuracy.json (oracle: %llu steps at h = %g s)\n",
                stem(report.name).c_str(), static_cast<unsigned long long>(report.oracle_steps),
                report.oracle_step);
    experiments::TablePrinter table(
        {"jobs", "max |Vc| rel err", "final Vc rel err", "energy rel err"});
    table.add_row({std::to_string(report.jobs.size()),
                   experiments::format_double(report.bounds.vc_max_rel_error, 6),
                   experiments::format_double(report.bounds.final_vc_rel_error, 6),
                   experiments::format_double(report.bounds.energy_rel_error, 6)});
    table.print(std::cout);
  }

  void result(const experiments::AutotuneOutcome& outcome) override {
    wrote_run(outcome.best_run);
    if (quiet_) return;
    const experiments::AutotuneResult& result = outcome.result;
    std::printf("wrote %s.autotune.json (%llu evaluations, %llu sweeps)\n",
                stem(result.name).c_str(), static_cast<unsigned long long>(result.evaluations),
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
      std::printf("chosen: %s — cost %s (%.1f%% of baseline), error %s within budget %s\n",
                  point.c_str(),
                  experiments::format_double(result.chosen_cost, 0).c_str(),
                  100.0 * result.cost_ratio,
                  experiments::format_double(result.chosen_error, 6).c_str(),
                  experiments::format_double(result.error_budget, 6).c_str());
    } else {
      std::printf("no configuration met the budget %s; closest: %s (error %s)\n",
                  experiments::format_double(result.error_budget, 6).c_str(), point.c_str(),
                  experiments::format_double(result.chosen_error, 6).c_str());
    }
  }

  /// The run/sweep/resume job table.
  void print_jobs() const {
    if (!quiet_) jobs_.print();
  }

 private:
  [[nodiscard]] std::string stem(const std::string& name) const {
    return io::file_stem(out_dir_, name);
  }

  void wrote_run(const experiments::ScenarioResult& result) const {
    if (quiet_) return;
    std::printf("wrote %s.result.json (+ .trace.csv, %zu points)\n",
                stem(result.scenario).c_str(), result.time.size());
  }

  const io::AnySpec& spec_;
  std::string out_dir_;
  bool quiet_;
  JobTable jobs_;
};

// ---- commands ----------------------------------------------------------------

/// Every job verb: parse argv, resolve the spec and options, execute.
/// Exit codes: 0 done, 1 usage/model error, 3 stopped by
/// --abort-after-checkpoints (the checkpoint files are on disk for resume).
int cmd_job(const JobVerb& job, const std::vector<std::string>& argv) {
  const JobArgs args = parse_job_args(job, argv);
  io::AnySpec spec = io::load_spec_file(args.spec_path);
  RequestType verb = job.type;
  if (verb == RequestType::kRun && spec.get_if<experiments::SweepSpec>() != nullptr) {
    verb = RequestType::kSweep;  // `ehsim run` also runs sweep files
  }

  serve::ExecuteOptions options;
  options.out_dir = args.find("--out") != nullptr ? *args.find("--out") : ".";
  if (const std::string* threads = args.find("--threads")) {
    options.threads = parse_count("--threads", *threads);
  }
  if (const std::string* step = args.find("--oracle-step")) {
    options.oracle_step = parse_real("--oracle-step", *step);
  }
  options.checkpoint = checkpoint_options(args, verb);
  if (const std::string* probes = args.find("--probes")) {
    if (auto* experiment = spec.get_if<experiments::ExperimentSpec>()) {
      apply_probe_flag(*experiment, *probes);
    } else if (auto* sweep = spec.get_if<experiments::SweepSpec>()) {
      apply_probe_flag(sweep->base, *probes);
    }
  }

  SummarySink sink(spec, options.out_dir, args.quiet);
  try {
    serve::execute(verb, spec, options, sink);
  } catch (const experiments::CheckpointAbort&) {
    // The --abort-after-checkpoints hook stopped the run mid-flight; the
    // checkpoint files are committed, so `ehsim resume` can finish it.
    // The resume must keep the run's cadence to cut the same chunks.
    if (!args.quiet) {
      const std::string* every = args.find("--checkpoint-every");
      std::printf("stopped after %d checkpoint(s); resume with `ehsim resume %s "
                  "--checkpoint-dir %s%s%s`\n",
                  options.checkpoint->abort_after, args.spec_path.c_str(),
                  options.checkpoint->dir.c_str(), every != nullptr ? " --checkpoint-every " : "",
                  every != nullptr ? every->c_str() : "");
    }
    return 3;
  }
  sink.print_jobs();
  return 0;
}

int cmd_serve(const std::vector<std::string>& args) {
  serve::ServerOptions options;
  std::string script;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg == "--threads") {
      options.threads = parse_count(arg, flag_value(args, i));
    } else if (arg == "--out") {
      options.out_dir = flag_value(args, i);
    } else if (arg == "--script") {
      script = flag_value(args, i);
    } else if (arg == "--queue") {
      options.queue_capacity = parse_count(arg, flag_value(args, i));
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
    if (arg == "--rtol") {
      options.rtol = parse_real(arg, flag_value(args, i));
    } else if (arg == "--atol") {
      options.atol = parse_real(arg, flag_value(args, i));
    } else if (arg == "--ignore") {
      for (std::string& key : split_list(flag_value(args, i))) {
        options.ignore_keys.push_back(std::move(key));
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
  for (const std::string& path : io::spec_field_paths()) {
    std::printf("  %s\n", path.c_str());
  }
  std::string probe_keys;
  for (const std::string& key : io::probe_keys()) {
    probe_keys += (probe_keys.empty() ? "" : ", ") + key;
  }
  std::printf("\nprobe kinds (spec \"probes\" entries; keys: %s):\n", probe_keys.c_str());
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
  for (const std::string& key : io::optimise_keys()) {
    std::printf("  %s\n", key.c_str());
  }
  std::printf("\noptimise \"variables\" entry keys (per search axis):\n");
  for (const std::string& key : io::optimise_variable_keys()) {
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
    if (const JobVerb* job = find_job_verb(command)) {
      return cmd_job(*job, args);
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
