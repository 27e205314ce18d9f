/// \file test_cli_end_to_end.cpp
/// \brief Acceptance: `ehsim run examples/specs/scenario1.json` reproduces
/// scenario1() with a trace bit-identical to the in-process run_experiment.
///
/// The full 300 s scenario runs twice (once through the CLI binary, once
/// in-process through run_experiment), so this is the slowest test in the
/// suite (~15 s); it is also the one that pins the whole spec -> JSON ->
/// CLI -> engine -> CSV pipeline bit-for-bit.
#include <gtest/gtest.h>
#include <sys/wait.h>

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
  const std::string sweep_run = "sweep \"" + golden + "golden_serve_sweep.json\"" + sink;
  expect_rejected("optimise \"" + golden + "golden_optimise.json\"" + sink + ckpt +
                      " --checkpoint-every 0.1",
                  {"--checkpoint-dir", "optimise"});
  expect_rejected("ensemble \"" + golden + "golden_ensemble.json\"" + sink + " --probes power",
                  {"--probes", "ensemble"});
  expect_rejected("sweep \"" + golden + "golden_optimise.json\"" + sink,
                  {"'sweep'", "'optimise'"});
  expect_rejected("resume \"" + golden + "golden_optimise.json\"" + sink + ckpt,
                  {"'resume'", "'optimise'"});
  expect_rejected("run \"" + golden + "golden_charging.json\"" + sink + " --warm-start",
                  {"--warm-start"});
  expect_rejected(sweep_run + " --batch-kernel lockstep", {"unknown option", "--batch-kernel"});
  expect_rejected("ensemble \"" + golden + "golden_ensemble.json\"" + sink +
                      " --batch-kernel jobs",
                  {"unknown option", "--batch-kernel"});
  expect_rejected("verify-accuracy \"" + golden + "golden_charging.json\"" + sink +
                      " --kernels jobs",
                  {"unknown option", "--kernels"});
  expect_rejected("serve --pool 4", {"--pool"});
  expect_rejected("serve --cold", {"--cold"});
  std::filesystem::remove_all(out);
}

/// `run` and `sweep` with a checkpoint directory but no cadence are refused,
/// naming the flag, as the serve protocol refuses the same request: such a
/// run would write no checkpoint into the directory.
TEST(EhsimCli, CheckpointDirWithoutCadenceIsRefused) {
  const std::string specs = std::string(EHSIM_SOURCE_DIR) + "/examples/specs/";
  const std::filesystem::path out =
      std::filesystem::temp_directory_path() / "ehsim_cli_ckpt_no_cadence";
  std::filesystem::remove_all(out);
  const std::string flags = " --threads 1 --out \"" + out.string() +
                            "\" --quiet --checkpoint-dir \"" + (out / "ckpt").string() + "\"";
  for (const char* verb : {"run", "sweep"}) {
    expect_rejected(std::string(verb) + " \"" + specs + "fig9_retune_sweep.json\"" + flags,
                    {"--checkpoint-dir", "--checkpoint-every"});
  }
  EXPECT_FALSE(std::filesystem::exists(out));
  std::filesystem::remove_all(out);
}

/// A resume whose cadence does not put a boundary where the checkpoint file
/// was cut is refused with exit 1, naming the cadence: its run would cut
/// other boundaries than any uninterrupted run.
TEST(EhsimCli, ResumeAtAnotherCadenceIsRefused) {
  const std::string golden = std::string(EHSIM_SOURCE_DIR) + "/tests/golden/";
  const std::filesystem::path out =
      std::filesystem::temp_directory_path() / "ehsim_cli_resume_cadence";
  std::filesystem::remove_all(out);
  const std::string spec = " \"" + golden + "golden_charging.json\"";
  const std::string flags = " --out \"" + out.string() + "\" --quiet --checkpoint-dir \"" +
                            (out / "ckpt").string() + "\"";
  const CliOutcome killed = run_cli("run" + spec + flags +
                                    " --checkpoint-every 0.15 --abort-after-checkpoints 2");
  ASSERT_TRUE(WIFEXITED(killed.status));
  ASSERT_EQ(WEXITSTATUS(killed.status), 3) << killed.error;

  const CliOutcome refused = run_cli("resume" + spec + flags + " --checkpoint-every 0.05");
  ASSERT_TRUE(WIFEXITED(refused.status));
  EXPECT_EQ(WEXITSTATUS(refused.status), 1);
  EXPECT_NE(refused.error.find("checkpoint cadence 0.05"), std::string::npos) << refused.error;
  EXPECT_NE(refused.error.find("t = 0.3"), std::string::npos) << refused.error;
  EXPECT_FALSE(std::filesystem::exists(out / "golden-charging.result.json"));
  std::filesystem::remove_all(out);
}

/// A run stopped by --abort-after-checkpoints prints the command that
/// finishes it, cadence included; run verbatim, that command reproduces the
/// uninterrupted checkpointed run bit for bit.
TEST(EhsimCli, PrintedResumeCommandFinishesTheStoppedRun) {
  const std::string golden = std::string(EHSIM_SOURCE_DIR) + "/tests/golden/";
  const std::filesystem::path out =
      std::filesystem::temp_directory_path() / "ehsim_cli_printed_resume";
  std::filesystem::remove_all(out);
  std::filesystem::create_directories(out / "resumed");
  const std::string spec = " \"" + golden + "golden_charging.json\"";
  const std::string ehsim = std::string("\"") + EHSIM_CLI_PATH + "\"";

  const std::filesystem::path stdout_path = out / "stopped.txt";
  const int stopped = std::system(
      (ehsim + " run" + spec + " --out \"" + (out / "stopped").string() + "\" --checkpoint-dir " +
       (out / "ckpt").string() + " --checkpoint-every 0.15 --abort-after-checkpoints 2 > \"" +
       stdout_path.string() + "\"")
          .c_str());
  ASSERT_TRUE(WIFEXITED(stopped));
  ASSERT_EQ(WEXITSTATUS(stopped), 3);
  const std::string printed = ehsim::io::read_file(stdout_path.string());
  const auto open = printed.find("`ehsim ");
  const auto close = printed.find('`', open + 1);
  ASSERT_NE(open, std::string::npos) << printed;
  ASSERT_NE(close, std::string::npos) << printed;
  const std::string command = printed.substr(open + 1, close - open - 1);
  EXPECT_NE(command.find("--checkpoint-every 0.15"), std::string::npos) << command;

  // The printed command writes its results into the working directory.
  const std::string resumed = "cd \"" + (out / "resumed").string() + "\" && " + ehsim +
                              command.substr(std::string("ehsim").size()) + " > /dev/null";
  ASSERT_EQ(std::system(resumed.c_str()), 0) << resumed;
  ASSERT_EQ(std::system((ehsim + " run" + spec + " --quiet --out \"" +
                         (out / "uninterrupted").string() + "\" --checkpoint-dir \"" +
                         (out / "ckpt_uninterrupted").string() + "\" --checkpoint-every 0.15")
                            .c_str()),
            0);
  for (const char* file : {"golden-charging.result.json", "golden-charging.trace.csv"}) {
    const std::string compare = ehsim + " compare \"" + (out / "uninterrupted" / file).string() +
                                "\" \"" + (out / "resumed" / file).string() +
                                "\" --rtol 0 --atol 0 --ignore cpu_seconds > /dev/null";
    EXPECT_EQ(std::system(compare.c_str()), 0) << compare;
  }
  std::filesystem::remove_all(out);
}

/// Without a cadence a resume writes no checkpoint, so the kill hook could
/// never fire: the flag is refused instead of ignored.
TEST(EhsimCli, ResumeAbortHookWithoutCadenceIsRefused) {
  const std::string golden = std::string(EHSIM_SOURCE_DIR) + "/tests/golden/";
  const std::filesystem::path out =
      std::filesystem::temp_directory_path() / "ehsim_cli_resume_abort_no_cadence";
  std::filesystem::remove_all(out);
  const CliOutcome refused =
      run_cli("resume \"" + golden + "golden_charging.json\" --quiet --out \"" + out.string() +
              "\" --checkpoint-dir \"" + (out / "ckpt").string() +
              "\" --abort-after-checkpoints 1");
  ASSERT_TRUE(WIFEXITED(refused.status));
  EXPECT_EQ(WEXITSTATUS(refused.status), 1);
  EXPECT_NE(refused.error.find("--checkpoint-every"), std::string::npos) << refused.error;
  EXPECT_NE(refused.error.find("--abort-after-checkpoints"), std::string::npos) << refused.error;
  EXPECT_FALSE(std::filesystem::exists(out / "golden-charging.result.json"));
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
