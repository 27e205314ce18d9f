/// \file test_cli_end_to_end.cpp
/// \brief Acceptance: `ehsim run examples/specs/scenario1.json` reproduces
/// scenario1() with a trace bit-identical to the in-process run_experiment.
///
/// The full 300 s scenario runs twice (once through the CLI binary, once
/// in-process through run_experiment), so this is the slowest test in the
/// suite (~15 s); it is also the one that pins the whole spec -> JSON ->
/// CLI -> engine -> CSV pipeline bit-for-bit.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "experiments/optimise_spec.hpp"
#include "experiments/param_registry.hpp"
#include "experiments/probes.hpp"
#include "experiments/scenarios.hpp"
#include "experiments/sweep.hpp"
#include "io/json.hpp"
#include "io/spec_json.hpp"

namespace {

using namespace ehsim::experiments;

TEST(EhsimCli, Scenario1SpecBitIdenticalToRunExperiment) {
  const std::string spec_path =
      std::string(EHSIM_SOURCE_DIR) + "/examples/specs/scenario1.json";
  const std::filesystem::path out_dir =
      std::filesystem::temp_directory_path() / "ehsim_cli_scenario1";
  std::filesystem::remove_all(out_dir);

  const std::string command = std::string("\"") + EHSIM_CLI_PATH + "\" run \"" + spec_path +
                              "\" --out \"" + out_dir.string() + "\" --quiet";
  ASSERT_EQ(std::system(command.c_str()), 0) << command;

  // The canned scenario through the in-process declarative path.
  const ScenarioResult expected = run_experiment(scenario1());

  // The CLI's CSV trace must equal the in-process one, byte for byte.
  std::ostringstream expected_csv;
  ehsim::io::write_trace_csv(expected_csv, expected);
  const std::string actual_csv =
      ehsim::io::read_file((out_dir / "scenario1-1hz.trace.csv").string());
  EXPECT_EQ(expected_csv.str(), actual_csv);

  // And the summary must agree on the exact solver path and physics.
  const auto json = ehsim::io::JsonValue::parse(
      ehsim::io::read_file((out_dir / "scenario1-1hz.result.json").string()));
  EXPECT_EQ(json.at("stats").at("steps").as_number(),
            static_cast<double>(expected.stats.steps));
  EXPECT_EQ(json.at("final_vc").as_number(), expected.final_vc);
  EXPECT_EQ(json.at("final_resonance_hz").as_number(), expected.final_resonance_hz);
  EXPECT_EQ(json.at("mcu_events").as_array().size(), expected.mcu_events.size());

  std::filesystem::remove_all(out_dir);
}

/// `ehsim echo` must canonicalise all three spec types (it used to fall
/// through to the experiment member for optimise files).
TEST(EhsimCli, EchoCanonicalisesOptimiseSpecs) {
  const std::string spec_path =
      std::string(EHSIM_SOURCE_DIR) + "/examples/specs/scenario1_tuning.json";
  const std::filesystem::path echo_path =
      std::filesystem::temp_directory_path() / "ehsim_cli_echo_optimise.json";
  const std::string command = std::string("\"") + EHSIM_CLI_PATH + "\" echo \"" +
                              spec_path + "\" > \"" + echo_path.string() + "\"";
  ASSERT_EQ(std::system(command.c_str()), 0) << command;

  const auto file = ehsim::io::load_spec_file(spec_path);
  ASSERT_NE(file.get_if<ehsim::experiments::OptimiseSpec>(), nullptr);
  const auto echoed =
      ehsim::io::JsonValue::parse(ehsim::io::read_file(echo_path.string()));
  EXPECT_EQ(echoed, ehsim::io::to_json((*file.get_if<ehsim::experiments::OptimiseSpec>())));
  std::filesystem::remove(echo_path);
}

/// Acceptance: `ehsim optimise examples/specs/scenario1_tuning.json`
/// reproduces the in-process declarative driver bit-identically through the
/// CLI binary and the JSON result document (io numbers round-trip exactly
/// via to_chars / exact parse). Together with the hand-coded-loop test in
/// test_experiments_optimise this pins CLI == driver == C++ API.
TEST(EhsimCli, OptimiseSpecBitIdenticalToInProcessDriver) {
  const std::string spec_path =
      std::string(EHSIM_SOURCE_DIR) + "/examples/specs/scenario1_tuning.json";
  const std::filesystem::path out_dir =
      std::filesystem::temp_directory_path() / "ehsim_cli_optimise";
  std::filesystem::remove_all(out_dir);

  const std::string command = std::string("\"") + EHSIM_CLI_PATH + "\" optimise \"" +
                              spec_path + "\" --out \"" + out_dir.string() + "\" --quiet";
  ASSERT_EQ(std::system(command.c_str()), 0) << command;

  const auto file = ehsim::io::load_spec_file(spec_path);
  ASSERT_NE(file.get_if<ehsim::experiments::OptimiseSpec>(), nullptr);
  const ScenarioResult proof = run_experiment(file.get_if<ehsim::experiments::OptimiseSpec>()->base);
  ASSERT_EQ(proof.probes.size(), 1u);  // the spec's objective probe is live
  const OptimiseResult driver = ehsim::experiments::run_optimise((*file.get_if<ehsim::experiments::OptimiseSpec>()));

  const auto json = ehsim::io::JsonValue::parse(ehsim::io::read_file(
      (out_dir / (file.get_if<ehsim::experiments::OptimiseSpec>()->name + ".optimise.json")).string()));
  EXPECT_EQ(json.at("best").at("x").as_number(), driver.best.x);
  EXPECT_EQ(json.at("best").at("objective").as_number(), driver.best.value);
  EXPECT_EQ(json.at("best").at("evaluations").as_number(),
            static_cast<double>(driver.best.evaluations));
  const auto& evaluations = json.at("evaluations").as_array();
  ASSERT_EQ(evaluations.size(), driver.evaluations.size());
  for (std::size_t i = 0; i < evaluations.size(); ++i) {
    EXPECT_EQ(evaluations[i].at("x").as_number(), driver.evaluations[i].x) << i;
    EXPECT_EQ(evaluations[i].at("objective").as_number(), driver.evaluations[i].objective)
        << i;
  }
  EXPECT_EQ(json.at("best_run").at("final_vc").as_number(), driver.best_run.final_vc);
  EXPECT_EQ(json.at("best_run").at("stats").at("steps").as_number(),
            static_cast<double>(driver.best_run.stats.steps));

  std::filesystem::remove_all(out_dir);
}

/// Regression: `ehsim params` must track the spec-key sources of truth
/// automatically. Every addressable path/kind/statistic/key the C++ layer
/// exports — including the multi-variable optimise keys and the per-axis
/// `variables` entry keys — must appear verbatim in the output, so the CLI
/// listing and the parser's allowed sets can never drift apart.
TEST(EhsimCli, ParamsListsEverySpecKeySourceOfTruth) {
  const std::filesystem::path out_path =
      std::filesystem::temp_directory_path() / "ehsim_cli_params.txt";
  const std::string command =
      std::string("\"") + EHSIM_CLI_PATH + "\" params > \"" + out_path.string() + "\"";
  ASSERT_EQ(std::system(command.c_str()), 0) << command;

  std::set<std::string> lines;
  {
    std::istringstream in(ehsim::io::read_file(out_path.string()));
    std::string line;
    while (std::getline(in, line)) {
      const std::size_t begin = line.find_first_not_of(' ');
      if (begin != std::string::npos) {
        lines.insert(line.substr(begin));
      }
    }
  }
  const auto expect_listed = [&lines](const std::vector<std::string>& keys,
                                      const char* what) {
    for (const std::string& key : keys) {
      EXPECT_TRUE(lines.count(key)) << what << " entry '" << key
                                    << "' missing from `ehsim params` output";
    }
  };
  expect_listed(param_paths(), "device parameter");
  expect_listed(ehsim::io::spec_field_paths(), "spec field");
  expect_listed(probe_kind_ids(), "probe kind");
  expect_listed(probe_statistic_ids(), "probe statistic");
  expect_listed(ehsim::io::optimise_keys(), "optimise spec key");
  expect_listed(ehsim::io::optimise_variable_keys(), "optimise variables-entry key");

  std::filesystem::remove(out_path);
}

/// Exit-code hygiene: an unknown subcommand must fail with a nonzero status
/// and emit a single-line machine-parseable JSON error on stderr naming the
/// offending command — scripts driving the CLI get a structured failure,
/// not just prose.
TEST(EhsimCli, UnknownCommandEmitsSingleLineJsonErrorAndNonzeroStatus) {
  const std::filesystem::path err_path =
      std::filesystem::temp_directory_path() / "ehsim_cli_unknown_cmd.txt";
  const std::string command = std::string("\"") + EHSIM_CLI_PATH + "\" frobnicate 2> \"" +
                              err_path.string() + "\"";
  EXPECT_NE(std::system(command.c_str()), 0) << command;

  std::istringstream err(ehsim::io::read_file(err_path.string()));
  std::string first_line;
  ASSERT_TRUE(static_cast<bool>(std::getline(err, first_line)));
  const auto json = ehsim::io::JsonValue::parse(first_line);  // one valid JSON line
  EXPECT_EQ(json.at("error").as_string(), "unknown command");
  EXPECT_EQ(json.at("command").as_string(), "frobnicate");
  EXPECT_NE(json.at("expected").as_string().find("serve"), std::string::npos);

  std::filesystem::remove(err_path);
}

/// Exit status and stderr of one `ehsim` invocation (stdin empty, stdout
/// discarded).
struct CliOutcome {
  int status = 0;
  std::string error;
};

CliOutcome run_cli(const std::string& arguments) {
  const std::filesystem::path err_path =
      std::filesystem::temp_directory_path() / "ehsim_cli_stderr.txt";
  const std::string command = std::string("\"") + EHSIM_CLI_PATH + "\" " + arguments +
                              " < /dev/null > /dev/null 2> \"" + err_path.string() + "\"";
  CliOutcome outcome;
  outcome.status = std::system(command.c_str());
  outcome.error = ehsim::io::read_file(err_path.string());
  std::filesystem::remove(err_path);
  return outcome;
}

/// Expect `ehsim <arguments>` to fail with stderr mentioning every needle.
void expect_rejected(const std::string& arguments, const std::vector<std::string>& needles) {
  const CliOutcome outcome = run_cli(arguments);
  EXPECT_NE(outcome.status, 0) << arguments;
  for (const std::string& needle : needles) {
    EXPECT_NE(outcome.error.find(needle), std::string::npos)
        << arguments << ": stderr '" << outcome.error << "' does not mention '" << needle
        << "'";
  }
}

/// Numeric flags parse the whole token: a sign on an unsigned flag, a
/// trailing junk character or a missing value is an error naming the flag
/// and the value — never a wrapped thread count or a silently truncated
/// cadence.
TEST(EhsimCli, NumericFlagsRejectSignsJunkAndMissingValues) {
  const std::string golden = std::string(EHSIM_SOURCE_DIR) + "/tests/golden/";
  const std::filesystem::path out =
      std::filesystem::temp_directory_path() / "ehsim_cli_numeric_flags";
  const std::string sink = " --out \"" + out.string() + "\" --quiet";
  const std::string sweep = "sweep \"" + golden + "golden_serve_sweep.json\"" + sink;
  expect_rejected(sweep + " --threads -1", {"--threads", "'-1'"});
  expect_rejected(sweep + " --threads abc", {"--threads", "'abc'"});
  expect_rejected(sweep + " --threads 2x", {"--threads", "'2x'"});
  expect_rejected(sweep + " --threads +2", {"--threads", "'+2'"});
  expect_rejected("run \"" + golden + "golden_charging.json\"" + sink +
                      " --checkpoint-dir \"" + (out / "ckpt").string() +
                      "\" --checkpoint-every 1e",
                  {"--checkpoint-every", "'1e'"});
  expect_rejected(sweep + " --threads", {"--threads needs a value"});
  expect_rejected("compare a.json b.json --rtol", {"--rtol needs a value"});
  expect_rejected("compare a.json b.json --atol 1e-9x", {"--atol", "'1e-9x'"});
  expect_rejected("serve --queue -4", {"--queue", "'-4'"});
  std::filesystem::remove_all(out);
}

/// A flag the verb does not use is an error naming the flag and the verb,
/// and a spec of the wrong flavour names the invoked verb (from the verb ->
/// flavour table serve shares). Removed flags are unknown options.
TEST(EhsimCli, FlagsAVerbDoesNotUseAndWrongFlavoursAreRejected) {
  const std::string golden = std::string(EHSIM_SOURCE_DIR) + "/tests/golden/";
  const std::filesystem::path out =
      std::filesystem::temp_directory_path() / "ehsim_cli_unused_flags";
  const std::string sink = " --out \"" + out.string() + "\" --quiet";
  const std::string ckpt = " --checkpoint-dir \"" + (out / "ckpt").string() + "\"";
  expect_rejected("optimise \"" + golden + "golden_optimise.json\"" + sink + ckpt +
                      " --checkpoint-every 0.1 --batch-kernel lockstep",
                  {"--checkpoint-dir", "optimise"});
  expect_rejected("autotune \"" + golden + "golden_autotune.json\"" + sink +
                      " --batch-kernel jobs",
                  {"--batch-kernel", "autotune"});
  expect_rejected("ensemble \"" + golden + "golden_ensemble.json\"" + sink + " --probes power",
                  {"--probes", "ensemble"});
  expect_rejected("run \"" + golden + "golden_charging.json\"" + sink + " --kernels jobs",
                  {"--kernels", "run"});
  expect_rejected("sweep \"" + golden + "golden_optimise.json\"" + sink,
                  {"'sweep'", "'optimise'"});
  expect_rejected("resume \"" + golden + "golden_optimise.json\"" + sink + ckpt,
                  {"'resume'", "'optimise'"});
  expect_rejected("run \"" + golden + "golden_charging.json\"" + sink + " --warm-start",
                  {"--warm-start"});
  expect_rejected("serve --pool 4", {"--pool"});
  expect_rejected("serve --cold", {"--cold"});
  std::filesystem::remove_all(out);
}

/// The serve daemon end to end through the binary: a malformed envelope gets
/// a per-job error event naming the bad key while the session keeps serving
/// and still exits 0 (protocol errors are responses, not crashes).
TEST(EhsimCli, ServeScriptSurvivesMalformedEnvelope) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "ehsim_cli_serve";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::filesystem::path script = dir / "script.ndjson";
  const std::filesystem::path out_path = dir / "events.ndjson";
  ehsim::io::write_file(script.string(),
                        "{\"id\": 1, \"type\": \"run\", \"speck\": {}}\n"
                        "{\"id\": 2, \"type\": \"stats\"}\n"
                        "{\"id\": 3, \"type\": \"shutdown\"}\n");

  const std::string command = std::string("\"") + EHSIM_CLI_PATH + "\" serve --script \"" +
                              script.string() + "\" > \"" + out_path.string() + "\"";
  ASSERT_EQ(std::system(command.c_str()), 0) << command;

  bool saw_error = false;
  bool saw_stats = false;
  bool saw_shutdown = false;
  std::istringstream events(ehsim::io::read_file(out_path.string()));
  std::string line;
  while (std::getline(events, line)) {
    const auto event = ehsim::io::JsonValue::parse(line);
    const std::string& kind = event.at("event").as_string();
    if (kind == "error") {
      saw_error = true;
      EXPECT_EQ(event.at("key").as_string(), "speck");
      EXPECT_EQ(event.at("id").as_number(), 1.0);
    } else if (kind == "stats") {
      saw_stats = true;
      EXPECT_EQ(event.at("requests").at("errors").as_number(), 1.0);
    } else if (kind == "shutdown") {
      saw_shutdown = true;
    }
  }
  EXPECT_TRUE(saw_error);
  EXPECT_TRUE(saw_stats);
  EXPECT_TRUE(saw_shutdown);

  std::filesystem::remove_all(dir);
}

}  // namespace
