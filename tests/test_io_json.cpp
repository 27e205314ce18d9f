/// \file test_io_json.cpp
/// \brief JSON document model, spec round-trip losslessness, result
/// serialisation and the tolerance-aware golden compare.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <tuple>

#include "common/error.hpp"
#include "experiments/autotune.hpp"
#include "experiments/scenarios.hpp"
#include "experiments/sweep.hpp"
#include "io/compare.hpp"
#include "io/json.hpp"
#include "io/spec_json.hpp"

namespace {

using ehsim::ModelError;
using ehsim::io::CompareOptions;
using ehsim::io::JsonValue;
using namespace ehsim::experiments;

// ---- JSON core ------------------------------------------------------------

TEST(Json, ParseDumpRoundTripsDocuments) {
  const std::string text =
      R"({"a": [1, 2.5, -3e-2], "b": {"nested": true, "null": null}, "s": "hi\n\"there\""})";
  const JsonValue value = JsonValue::parse(text);
  EXPECT_EQ(JsonValue::parse(value.dump()), value);
  EXPECT_EQ(JsonValue::parse(value.dump(2)), value);
  EXPECT_DOUBLE_EQ(value.at("a").as_array()[2].as_number(), -3e-2);
  EXPECT_TRUE(value.at("b").at("nested").as_bool());
  EXPECT_TRUE(value.at("b").at("null").is_null());
  EXPECT_EQ(value.at("s").as_string(), "hi\n\"there\"");
}

TEST(Json, NumbersRoundTripExactly) {
  for (const double number : {0.1, 1.0 / 3.0, 1e-300, -2.2250738585072014e-308, 6.02e23,
                              60.0, 0.0, -0.59}) {
    const JsonValue value(number);
    EXPECT_EQ(JsonValue::parse(value.dump()).as_number(), number) << number;
  }
  EXPECT_THROW(JsonValue(std::nan("")), ModelError);
}

TEST(Json, UnicodeEscapesDecodeToUtf8) {
  const JsonValue value = JsonValue::parse(R"("é€😀")");
  EXPECT_EQ(value.as_string(), "\xC3\xA9\xE2\x82\xAC\xF0\x9F\x98\x80");
}

TEST(Json, ParseErrorsCarryLineAndColumn) {
  try {
    (void)JsonValue::parse("{\n  \"a\": 1,\n  oops\n}");
    FAIL() << "expected ModelError";
  } catch (const ModelError& error) {
    EXPECT_NE(std::string(error.what()).find("3:"), std::string::npos) << error.what();
  }
  EXPECT_THROW((void)JsonValue::parse("[1, 2] trailing"), ModelError);
  EXPECT_THROW((void)JsonValue::parse(R"({"a": 01x})"), ModelError);
  EXPECT_THROW((void)JsonValue::parse(R"("\q")"), ModelError);
  // A repeated key would be shadowed by its first copy; it is refused by name,
  // at any depth.
  for (const char* text : {R"({"type":"sweep","threads":1,"threads":7})",
                           R"({"base":{"name":"a","duration":1,"name":"b"}})"}) {
    try {
      (void)JsonValue::parse(text);
      ADD_FAILURE() << "accepted: " << text;
    } catch (const ModelError& error) {
      EXPECT_NE(std::string(error.what()).find("duplicate object key"), std::string::npos)
          << error.what();
    }
  }
}

TEST(Json, ObjectHelpersPreserveInsertionOrder) {
  JsonValue object = JsonValue::make_object();
  object.set("z", 1).set("a", 2).set("z", 3);
  EXPECT_EQ(object.dump(), R"({"z":3,"a":2})");
  EXPECT_EQ(object.at("z").as_number(), 3.0);
  EXPECT_THROW((void)object.at("missing"), ModelError);
  EXPECT_THROW((void)object.as_array(), ModelError);
}

// ---- spec round-trip ------------------------------------------------------

ExperimentSpec multi_event_spec() {
  ExperimentSpec spec;
  spec.name = "drift-demo";
  spec.duration = 120.0;
  spec.pre_tuned_hz = 70.0;
  spec.engine = EngineKind::kSystemCA;
  spec.excitation.initial_frequency_hz = 70.0;
  spec.excitation.initial_amplitude = 0.55;
  spec.excitation.step_frequency(20.0, 71.5);
  spec.excitation.ramp_frequency(40.0, 15.0, 68.0);
  spec.excitation.step_amplitude(70.0, 0.45);
  RandomWalkParams walk;
  walk.step_interval = 2.0;
  walk.frequency_sigma = 0.2;
  walk.amplitude_sigma = 0.01;
  walk.seed = 0xDEADBEEFCAFEF00Dull;  // not exactly representable as double
  walk.min_frequency_hz = 60.0;
  walk.max_frequency_hz = 80.0;
  walk.min_amplitude = 0.2;
  spec.excitation.random_walk(80.0, 30.0, walk);
  spec.overrides.push_back(ParamOverride{"supercap.initial_voltage", 1.25});
  // One probe per shape: plain, targeted, windowed, thresholded, unrecorded.
  spec.probes.push_back(ProbeSpec{"P_gen", ProbeSpec::Kind::kGeneratorPower});
  spec.probes.push_back(ProbeSpec{"Vm", ProbeSpec::Kind::kNodeVoltage, "Vm"});
  spec.probes.push_back(
      ProbeSpec{"P_late", ProbeSpec::Kind::kHarvestedPower, "", 80.0, 110.0});
  spec.probes.push_back(ProbeSpec{"tuning_duty", ProbeSpec::Kind::kStateVariable,
                                  "supercap.Vi", 0.0, 0.0, 1.5, false});
  spec.probes.push_back(
      ProbeSpec{"E", ProbeSpec::Kind::kStoredEnergy, "", 0.0, 0.0, std::nullopt, false});
  return spec;
}

TEST(SpecJson, ExperimentRoundTripsLosslessly) {
  const ExperimentSpec spec = multi_event_spec();
  const JsonValue json = ehsim::io::to_json(spec);
  const ExperimentSpec back = ehsim::io::experiment_from_json(json);
  EXPECT_EQ(back, spec);
  // Through text as well (spec -> JSON -> text -> JSON -> spec).
  const ExperimentSpec reparsed =
      ehsim::io::experiment_from_json(JsonValue::parse(json.dump(2)));
  EXPECT_EQ(reparsed, spec);
  // The oversized seed survives via the string form.
  EXPECT_EQ(reparsed.excitation.events[3].walk.seed, 0xDEADBEEFCAFEF00Dull);
}

TEST(SpecJson, CannedScenariosRoundTrip) {
  for (const ExperimentSpec& spec : {scenario1(), scenario2(), charging_scenario(30.0)}) {
    EXPECT_EQ(ehsim::io::experiment_from_json(
                  JsonValue::parse(ehsim::io::to_json(spec).dump())),
              spec)
        << spec.name;
  }
}

TEST(SpecJson, SweepRoundTripsLosslessly) {
  SweepSpec sweep;
  sweep.base = charging_scenario(5.0);
  sweep.mode = SweepSpec::Mode::kZip;
  sweep.threads = 3;
  sweep.axes.push_back(SweepAxis{"supercap.initial_voltage", {0.5, 1.0}, {}});
  sweep.axes.push_back(SweepAxis{"generator.proof_mass", {0.017, 0.019}, {}});
  const SweepSpec back =
      ehsim::io::sweep_from_json(JsonValue::parse(ehsim::io::to_json(sweep).dump(2)));
  EXPECT_EQ(back, sweep);

  SweepSpec engines;
  engines.base = charging_scenario(1.0);
  engines.axes.push_back(
      SweepAxis{{}, {}, {EngineKind::kProposed, EngineKind::kPspice}});
  EXPECT_EQ(ehsim::io::sweep_from_json(JsonValue::parse(ehsim::io::to_json(engines).dump())),
            engines);
}

TEST(SpecJson, OptimiseRoundTripsLosslessly) {
  OptimiseSpec spec;
  spec.name = "tune-study";
  spec.base = charging_scenario(2.0);
  spec.base.probes.push_back(ProbeSpec{"E", ProbeSpec::Kind::kStoredEnergy});
  spec.variable = "spec.pre_tuned_hz";
  spec.lower = 66.0;
  spec.upper = 74.0;
  spec.objective = "E";
  spec.statistic = "final";
  spec.maximise = false;
  spec.max_evaluations = 17;
  spec.x_tolerance = 0.015;
  const OptimiseSpec back =
      ehsim::io::optimise_from_json(JsonValue::parse(ehsim::io::to_json(spec).dump(2)));
  EXPECT_EQ(back, spec);

  const auto file = ehsim::io::spec_from_json(ehsim::io::to_json(spec));
  ASSERT_NE(file.get_if<ehsim::experiments::OptimiseSpec>(), nullptr);
  EXPECT_EQ((*file.get_if<ehsim::experiments::OptimiseSpec>()), spec);
  EXPECT_EQ(file.get_if<ehsim::experiments::ExperimentSpec>(), nullptr);
  EXPECT_EQ(file.get_if<ehsim::experiments::SweepSpec>(), nullptr);
}

TEST(SpecJson, OptimiseVariablesArrayRoundTripsLosslessly) {
  OptimiseSpec spec;
  spec.name = "joint-study";
  spec.base = charging_scenario(2.0);
  spec.base.probes.push_back(ProbeSpec{"E", ProbeSpec::Kind::kStoredEnergy});
  spec.variables.push_back(
      OptimiseVariable{"spec.pre_tuned_hz", 66.0, 74.0, std::nullopt});
  spec.variables.push_back(OptimiseVariable{"load.sleep_ohms", 20.0, 2000.0, 0.05});
  spec.objective = "E";
  spec.statistic = "final";
  spec.max_evaluations = 20;
  spec.x_tolerance = 0.02;
  const JsonValue json = ehsim::io::to_json(spec);
  // The array form serialises "variables" and omits the alias keys...
  EXPECT_TRUE(json.contains("variables"));
  EXPECT_FALSE(json.contains("variable"));
  EXPECT_FALSE(json.contains("lower"));
  EXPECT_FALSE(json.contains("upper"));
  // ...and the optional per-axis tolerance is omitted when unset.
  const auto& variables = json.at("variables").as_array();
  ASSERT_EQ(variables.size(), 2u);
  EXPECT_FALSE(variables[0].contains("x_tolerance"));
  EXPECT_EQ(variables[1].at("x_tolerance").as_number(), 0.05);
  EXPECT_EQ(ehsim::io::optimise_from_json(JsonValue::parse(json.dump(2))), spec);

  // The single-variable alias keeps serialising with its original keys, so
  // pre-multi-variable documents round-trip byte-identically.
  OptimiseSpec alias;
  alias.name = "alias-study";
  alias.base = spec.base;
  alias.variable = "spec.pre_tuned_hz";
  alias.lower = 66.0;
  alias.upper = 74.0;
  alias.objective = "E";
  alias.statistic = "final";
  const JsonValue alias_json = ehsim::io::to_json(alias);
  EXPECT_TRUE(alias_json.contains("variable"));
  EXPECT_FALSE(alias_json.contains("variables"));
  const std::string text = alias_json.dump(2);
  EXPECT_EQ(ehsim::io::to_json(
                ehsim::io::optimise_from_json(JsonValue::parse(text))).dump(2),
            text);
}

TEST(SpecJson, OptimiseVariablesArrayRejectsMalformedDocuments) {
  const char* base = R"("base": {"name": "b", "duration": 1,
    "probes": [{"label": "p", "kind": "generator_power"}]})";
  // Mixing the alias keys with the variables array is ambiguous.
  EXPECT_THROW((void)ehsim::io::optimise_from_json(JsonValue::parse(std::string(R"({
    "type": "optimise", "name": "bad", "lower": 1,
    "variables": [{"path": "spec.duration", "lower": 1, "upper": 2}],
    "objective": "p", )") + base + "}")),
               ModelError);
  // An empty variables array declares no search axis.
  EXPECT_THROW((void)ehsim::io::optimise_from_json(JsonValue::parse(std::string(R"({
    "type": "optimise", "name": "bad", "variables": [],
    "objective": "p", )") + base + "}")),
               ModelError);
  // Unknown keys inside a variables entry fail naming the key.
  try {
    (void)ehsim::io::optimise_from_json(JsonValue::parse(std::string(R"({
      "type": "optimise", "name": "bad",
      "variables": [{"path": "spec.duration", "lower": 1, "upper": 2, "tolerance": 0.1}],
      "objective": "p", )") + base + "}"));
    FAIL() << "expected ModelError for an unknown variables-entry key";
  } catch (const ModelError& error) {
    EXPECT_NE(std::string(error.what()).find("tolerance"), std::string::npos);
  }
}

TEST(SpecFiles, JointTuningFileIsAValidMultiVariableSpec) {
  const auto file = ehsim::io::load_spec_file(std::string(EHSIM_SOURCE_DIR) +
                                              "/examples/specs/scenario1_joint_tuning.json");
  ASSERT_NE(file.get_if<ehsim::experiments::OptimiseSpec>(), nullptr);
  const OptimiseSpec& spec = (*file.get_if<ehsim::experiments::OptimiseSpec>());
  ASSERT_EQ(spec.variables.size(), 2u);
  EXPECT_EQ(spec.variables[0].path, "spec.pre_tuned_hz");
  EXPECT_EQ(spec.variables[1].path, "load.sleep_ohms");
  EXPECT_TRUE(spec.variable.empty());
  EXPECT_EQ(ehsim::io::optimise_from_json(
                JsonValue::parse(ehsim::io::to_json(spec).dump(2))),
            spec);
}

TEST(SpecJson, StrictParsingRejectsUnknownProbeAndOptimiseKeys) {
  const auto with_probe = [](const std::string& probe) {
    return JsonValue::parse(R"({"type":"experiment","name":"p","probes":[)" + probe + "]}");
  };
  // Probe with a typoed key fails naming the key.
  EXPECT_THROW((void)ehsim::io::experiment_from_json(
                   with_probe(R"({"label":"p","kind":"generator_power","thresold":0.1})")),
               ModelError);
  // Probe validation runs at parse time (node_voltage needs a target).
  EXPECT_THROW((void)ehsim::io::experiment_from_json(
                   with_probe(R"({"label":"p","kind":"node_voltage"})")),
               ModelError);
  EXPECT_THROW((void)ehsim::io::experiment_from_json(
                   with_probe(R"({"label":"p","kind":"volts","target":"Vc"})")),
               ModelError);
  // Experiment documents reject unknown keys inside the probes array...
  EXPECT_THROW((void)ehsim::io::experiment_from_json(JsonValue::parse(R"({
    "type": "experiment", "name": "bad",
    "probes": [{"label": "p", "kind": "generator_power", "recrod": true}]})")),
               ModelError);
  // ...and optimise documents reject unknown top-level keys.
  EXPECT_THROW((void)ehsim::io::optimise_from_json(JsonValue::parse(R"({
    "type": "optimise", "name": "bad", "variable": "spec.duration",
    "lower": 1, "upper": 2, "objective": "p", "statstic": "mean",
    "base": {"name": "b", "probes": [{"label": "p", "kind": "generator_power"}]}})")),
               ModelError);
}

TEST(SpecJson, StrictParsingRejectsUnknownKeysAndValues) {
  EXPECT_THROW((void)ehsim::io::experiment_from_json(
                   JsonValue::parse(R"({"type":"experiment","naem":"typo"})")),
               ModelError);
  EXPECT_THROW((void)ehsim::io::experiment_from_json(
                   JsonValue::parse(R"({"type":"experiment","engine":"spice99"})")),
               ModelError);
  EXPECT_THROW(
      (void)ehsim::io::spec_from_json(JsonValue::parse(R"({"type":"recipe"})")),
      ModelError);
  // Schedules with non-monotone events fail at parse time via validate().
  EXPECT_THROW((void)ehsim::io::experiment_from_json(JsonValue::parse(R"({
    "type": "experiment", "name": "bad",
    "excitation": {"initial_frequency_hz": 70, "events": [
      {"kind": "frequency_step", "time": 10, "frequency_hz": 71},
      {"kind": "frequency_step", "time": 5, "frequency_hz": 72}
    ]}})")),
               ModelError);

  // Every integer field reads through one bounded reader: a value outside
  // [0, 2^64), which the cast would turn into an arbitrary count or seed, is
  // refused with an error naming the key.
  const auto rejects = [](const char* file, const std::string& from, const std::string& to,
                          const char* key) {
    std::string text =
        ehsim::io::read_file(std::string(EHSIM_SOURCE_DIR) + "/examples/specs/" + file);
    (void)ehsim::io::spec_from_json(JsonValue::parse(text));
    const std::size_t at = text.find(from);
    ASSERT_NE(at, std::string::npos) << file << " has no " << from;
    text.replace(at, from.size(), to);
    try {
      (void)ehsim::io::spec_from_json(JsonValue::parse(text));
      ADD_FAILURE() << file << " accepted " << to;
    } catch (const ModelError& error) {
      EXPECT_NE(std::string(error.what()).find(key), std::string::npos) << error.what();
    }
  };
  for (const std::string huge : {"1e300", "18446744073709551616"}) {
    rejects("stage_count_sweep.json", R"("threads": 0)", R"("threads": )" + huge, "'threads'");
    rejects("drift_ensemble.json", R"("seed": 42)", R"("seed": )" + huge, "'seed'");
    rejects("drift_ensemble.json", R"("num_seeds": 8)", R"("num_seeds": )" + huge,
            "'num_seeds'");
    rejects("scenario1_tuning.json", R"("max_evaluations": 12)",
            R"("max_evaluations": )" + huge, "'max_evaluations'");
    rejects("stage_count_sweep.json", R"("engine": "proposed",)",
            R"("engine": "proposed", "solver": {"max_ab_order": )" + huge + "},",
            "'max_ab_order'");
  }

  // Seeds the writer emits as numbers still parse back, up to the largest
  // double below 2^64.
  ExperimentSpec spec = charging_scenario(1.0);
  RandomWalkParams walk;
  walk.seed = 0xFFFFFFFFFFFFF800ull;
  spec.excitation.random_walk(0.5, 0.2, walk);
  const JsonValue json = ehsim::io::to_json(spec);
  ASSERT_TRUE(json.at("excitation").at("events").as_array()[0].at("seed").is_number());
  EXPECT_EQ(ehsim::io::experiment_from_json(JsonValue::parse(json.dump())), spec);
}

/// Retired keys are refused with an error naming them: "warm_start" in a
/// sweep, optimise or ensemble document, "batch_kernel" in a sweep or
/// ensemble, "kernels" in an autotune document.
TEST(SpecJson, RetiredKeysAreRejectedByName) {
  SweepSpec sweep;
  sweep.base = charging_scenario(1.0);
  sweep.axes.push_back(SweepAxis{"spec.pre_tuned_hz", {69.0, 70.0}, {}});

  OptimiseSpec optimise;
  optimise.base = charging_scenario(1.0);
  optimise.base.probes.push_back(ProbeSpec{"E", ProbeSpec::Kind::kStoredEnergy});
  optimise.variable = "spec.pre_tuned_hz";
  optimise.lower = 66.0;
  optimise.upper = 74.0;
  optimise.objective = "E";

  EnsembleSpec ensemble;
  ensemble.base = charging_scenario(1.0);
  RandomWalkParams walk;
  walk.step_interval = 0.1;
  walk.frequency_sigma = 0.3;
  walk.min_frequency_hz = 60.0;
  walk.max_frequency_hz = 80.0;
  ensemble.base.excitation.random_walk(0.1, 0.5, walk);
  ensemble.seeds = {1, 2};

  AutotuneSpec autotune;
  autotune.base = charging_scenario(1.0);
  autotune.knobs.push_back(AutotuneKnob{"solver.h_max", {5e-4, 1e-3}});

  const JsonValue jobs_id("jobs");
  JsonValue kernel_ids = JsonValue::make_array();
  kernel_ids.push_back(jobs_id);
  const std::vector<std::tuple<JsonValue, const char*, JsonValue>> cases = {
      {ehsim::io::to_json(sweep), "warm_start", JsonValue(true)},
      {ehsim::io::to_json(optimise), "warm_start", JsonValue(true)},
      {ehsim::io::to_json(ensemble), "warm_start", JsonValue(true)},
      {ehsim::io::to_json(sweep), "batch_kernel", jobs_id},
      {ehsim::io::to_json(ensemble), "batch_kernel", jobs_id},
      {ehsim::io::to_json(autotune), "kernels", kernel_ids},
  };
  for (auto [document, key, value] : cases) {
    (void)ehsim::io::spec_from_json(document);  // valid without the key
    document.set(key, value);
    try {
      (void)ehsim::io::spec_from_json(document);
      ADD_FAILURE() << "accepted: " << document.dump(-1);
    } catch (const ModelError& error) {
      EXPECT_NE(std::string(error.what()).find("'" + std::string(key) + "'"), std::string::npos)
          << error.what();
    }
  }
}

// ---- results --------------------------------------------------------------

TEST(ResultJson, SerialisesSummaryAndTrace) {
  ExperimentSpec spec = charging_scenario(0.2);
  spec.trace_interval = 0.01;
  const ScenarioResult result = run_experiment(spec);
  const JsonValue json = ehsim::io::to_json(result);
  EXPECT_EQ(json.at("scenario").as_string(), "supercap-charging");
  EXPECT_GT(json.at("stats").at("steps").as_number(), 100.0);
  EXPECT_EQ(json.at("trace_points").as_number(),
            static_cast<double>(result.time.size()));
  EXPECT_TRUE(json.at("mcu_events").as_array().empty());

  std::ostringstream csv;
  ehsim::io::write_trace_csv(csv, result);
  const std::string text = csv.str();
  EXPECT_EQ(text.substr(0, 8), "time,Vc\n");
  // Header plus one line per trace point.
  EXPECT_EQ(static_cast<std::size_t>(std::count(text.begin(), text.end(), '\n')),
            result.time.size() + 1);
}

TEST(ResultJson, ProbesAppearInJsonAndAsCsvColumns) {
  ExperimentSpec spec = charging_scenario(0.2);
  spec.trace_interval = 0.01;
  spec.probes.push_back(ProbeSpec{"P_gen", ProbeSpec::Kind::kGeneratorPower});
  spec.probes.push_back(ProbeSpec{"P_pos", ProbeSpec::Kind::kGeneratorPower, "", 0.0, 0.0,
                                  0.0, false});
  const ScenarioResult result = run_experiment(spec);

  const JsonValue json = ehsim::io::to_json(result);
  const auto& probes = json.at("probes").as_array();
  ASSERT_EQ(probes.size(), 2u);
  EXPECT_EQ(probes[0].at("label").as_string(), "P_gen");
  EXPECT_EQ(probes[0].at("mean").as_number(), result.probes[0].mean);
  EXPECT_TRUE(probes[0].find("duty_cycle") == nullptr);
  EXPECT_EQ(probes[1].at("duty_cycle").as_number(), *result.probes[1].duty_cycle);
  EXPECT_EQ(probes[1].at("crossings").as_number(),
            static_cast<double>(*result.probes[1].crossings));

  // Only the recorded probe becomes a CSV column.
  std::ostringstream csv;
  ehsim::io::write_trace_csv(csv, result);
  const std::string text = csv.str();
  EXPECT_EQ(text.substr(0, text.find('\n')), "time,Vc,P_gen");
  EXPECT_EQ(static_cast<std::size_t>(std::count(text.begin(), text.end(), '\n')),
            result.time.size() + 1);
  // The first data row has exactly three cells.
  const std::size_t row_start = text.find('\n') + 1;
  const std::string first_row = text.substr(row_start, text.find('\n', row_start) - row_start);
  EXPECT_EQ(static_cast<std::size_t>(std::count(first_row.begin(), first_row.end(), ',')),
            2u);
}

// ---- tolerance compare ----------------------------------------------------

TEST(Compare, JsonWithinToleranceMatches) {
  const JsonValue a = JsonValue::parse(R"({"x": 1.0, "y": [1e-3, 2.0], "s": "same"})");
  const JsonValue b = JsonValue::parse(R"({"x": 1.0000000001, "y": [1e-3, 2.0], "s": "same"})");
  CompareOptions loose;
  loose.rtol = 1e-6;
  EXPECT_TRUE(ehsim::io::compare_json(a, b, loose).empty());
  CompareOptions tight;
  tight.rtol = 1e-12;
  tight.atol = 0.0;
  const auto diffs = ehsim::io::compare_json(a, b, tight);
  ASSERT_EQ(diffs.size(), 1u);
  EXPECT_NE(diffs[0].find("x"), std::string::npos);
}

TEST(Compare, IgnoredKeysAndStructuralDiffsReport) {
  const JsonValue a = JsonValue::parse(R"({"cpu_seconds": 1.0, "v": 2.0})");
  const JsonValue b = JsonValue::parse(R"({"cpu_seconds": 9.0, "v": 2.0, "extra": 1})");
  CompareOptions options;
  options.ignore_keys = {"cpu_seconds"};
  const auto diffs = ehsim::io::compare_json(a, b, options);
  ASSERT_EQ(diffs.size(), 1u);
  EXPECT_NE(diffs[0].find("extra"), std::string::npos);
}

TEST(Compare, CsvCellwiseNumericTolerance) {
  const std::string a = "time,Vc\n0,1.00000000000\n0.5,2\n";
  const std::string b = "time,Vc\n0,1.00000000001\n0.5,2\n";
  CompareOptions options;
  options.rtol = 1e-9;
  EXPECT_TRUE(ehsim::io::compare_csv(a, b, options).empty());
  const std::string c = "time,Vc\n0,1.1\n0.5,2\n";
  EXPECT_FALSE(ehsim::io::compare_csv(a, c, options).empty());
  const std::string d = "time,Vc\n0,1\n";
  EXPECT_FALSE(ehsim::io::compare_csv(a, d, options).empty());
}

// ---- non-finite values: the writer policy and the compare policy ----------

/// Regression: nan/inf are not JSON tokens. The number constructor rejects
/// them naming the value; measured result quantities opt into null-encoding
/// so a pathological run still yields a parseable document.
TEST(Json, NonFiniteNumbersAreRejectedWithAClearErrorOrNullEncoded) {
  const double nan = std::nan("");
  const double inf = std::numeric_limits<double>::infinity();
  try {
    (void)JsonValue(nan);
    FAIL() << "expected ModelError for a NaN JSON number";
  } catch (const ModelError& error) {
    EXPECT_NE(std::string(error.what()).find("nan"), std::string::npos);
  }
  try {
    (void)JsonValue(-inf);
    FAIL() << "expected ModelError for an infinite JSON number";
  } catch (const ModelError& error) {
    EXPECT_NE(std::string(error.what()).find("-inf"), std::string::npos);
  }
  EXPECT_TRUE(JsonValue::finite_or_null(nan).is_null());
  EXPECT_TRUE(JsonValue::finite_or_null(inf).is_null());
  EXPECT_EQ(JsonValue::finite_or_null(1.5).as_number(), 1.5);
}

TEST(ResultJson, NonFiniteMeasurementsNullEncodeIntoValidJson) {
  ExperimentSpec spec = charging_scenario(0.05);
  spec.trace_interval = 0.0;
  ScenarioResult result = run_experiment(spec);
  result.final_vc = std::nan("");
  result.rms_power_after = std::numeric_limits<double>::infinity();
  const JsonValue json = ehsim::io::to_json(result);
  EXPECT_TRUE(json.at("final_vc").is_null());
  EXPECT_TRUE(json.at("rms_power_after").is_null());
  // The document stays valid JSON end to end.
  EXPECT_EQ(JsonValue::parse(json.dump(2)), json);
}

/// Regression: NaN-vs-NaN used to report a diff on every undefined cell
/// (NaN != NaN and no tolerance inequality holds); both sides agreeing the
/// value is undefined is a match by policy. NaN against a number stays a
/// mismatch.
TEST(Compare, NanAgreesWithNanAndDisagreesWithNumbers) {
  CompareOptions options;
  EXPECT_TRUE(ehsim::io::compare_csv("v\nnan\n", "v\nnan\n", options).empty());
  EXPECT_TRUE(ehsim::io::compare_csv("v\ninf\n", "v\ninf\n", options).empty());
  EXPECT_FALSE(ehsim::io::compare_csv("v\nnan\n", "v\n1.0\n", options).empty());
  EXPECT_FALSE(ehsim::io::compare_csv("v\ninf\n", "v\n-inf\n", options).empty());
}

/// Regression: the CSV compare predates multi-column `time,Vc[,probe...]`
/// traces. It now matches columns by header name — reordered columns
/// compare clean, and a differing column set is reported once as a header
/// diff (with shared columns still compared) instead of drowning the report
/// in positional cell mismatches.
TEST(Compare, CsvComparesProbeColumnsByHeaderName) {
  CompareOptions options;
  // Same data, probe columns in a different order: a match.
  const std::string expected = "time,Vc,P_gen\n0,1,5\n0.5,2,6\n";
  const std::string reordered = "time,P_gen,Vc\n0,5,1\n0.5,6,2\n";
  EXPECT_TRUE(ehsim::io::compare_csv(expected, reordered, options).empty());

  // A probe column missing from actual: one header diff naming the column,
  // and the shared columns are still compared (the Vc mismatch on line 3).
  const std::string missing = "time,Vc\n0,1\n0.5,9\n";
  const auto diffs = ehsim::io::compare_csv(expected, missing, options);
  ASSERT_EQ(diffs.size(), 2u);
  EXPECT_NE(diffs[0].find("'P_gen' missing in actual"), std::string::npos);
  EXPECT_NE(diffs[1].find("column 'Vc'"), std::string::npos);

  // An extra column in actual is reported symmetrically.
  const auto extra = ehsim::io::compare_csv(missing, expected, options);
  ASSERT_EQ(extra.size(), 2u);
  EXPECT_NE(extra[0].find("'P_gen' unexpected in actual"), std::string::npos);

  // Headerless (all-numeric) CSV keeps the positional comparison.
  EXPECT_TRUE(ehsim::io::compare_csv("1,2\n", "1,2\n", options).empty());
  EXPECT_FALSE(ehsim::io::compare_csv("1,2\n", "2,1\n", options).empty());
}

// ---- the checked-in spec files match the canned C++ specs -----------------

TEST(SpecFiles, Scenario1FileEqualsCannedSpec) {
  const auto file =
      ehsim::io::load_spec_file(std::string(EHSIM_SOURCE_DIR) + "/examples/specs/scenario1.json");
  ASSERT_NE(file.get_if<ehsim::experiments::ExperimentSpec>(), nullptr);
  EXPECT_EQ((*file.get_if<ehsim::experiments::ExperimentSpec>()), scenario1());
}

TEST(SpecFiles, Scenario2FileEqualsCannedSpec) {
  const auto file =
      ehsim::io::load_spec_file(std::string(EHSIM_SOURCE_DIR) + "/examples/specs/scenario2.json");
  ASSERT_NE(file.get_if<ehsim::experiments::ExperimentSpec>(), nullptr);
  EXPECT_EQ((*file.get_if<ehsim::experiments::ExperimentSpec>()), scenario2());
}

TEST(SpecFiles, DriftingAmbientFileIsAMultiEventSchedule) {
  const auto file = ehsim::io::load_spec_file(std::string(EHSIM_SOURCE_DIR) +
                                              "/examples/specs/drifting_ambient.json");
  ASSERT_NE(file.get_if<ehsim::experiments::ExperimentSpec>(), nullptr);
  const ExperimentSpec& spec = (*file.get_if<ehsim::experiments::ExperimentSpec>());
  ASSERT_GE(spec.excitation.events.size(), 3u);
  bool has_ramp = false;
  for (const auto& event : spec.excitation.events) {
    has_ramp = has_ramp || event.kind == ExcitationEvent::Kind::kFrequencyRamp;
  }
  EXPECT_TRUE(has_ramp);
  // Round-trips losslessly through text.
  EXPECT_EQ(ehsim::io::experiment_from_json(
                JsonValue::parse(ehsim::io::to_json(spec).dump(2))),
            spec);
}

TEST(SpecFiles, ProbesDemoFileCoversEveryProbeKind) {
  const auto file = ehsim::io::load_spec_file(std::string(EHSIM_SOURCE_DIR) +
                                              "/examples/specs/probes_demo.json");
  ASSERT_NE(file.get_if<ehsim::experiments::ExperimentSpec>(), nullptr);
  const ExperimentSpec& spec = (*file.get_if<ehsim::experiments::ExperimentSpec>());
  ASSERT_GE(spec.probes.size(), 5u);
  for (const auto kind :
       {ProbeSpec::Kind::kNodeVoltage, ProbeSpec::Kind::kStateVariable,
        ProbeSpec::Kind::kGeneratorPower, ProbeSpec::Kind::kHarvestedPower,
        ProbeSpec::Kind::kStoredEnergy, ProbeSpec::Kind::kMcuState}) {
    const bool covered = std::any_of(spec.probes.begin(), spec.probes.end(),
                                     [kind](const ProbeSpec& p) { return p.kind == kind; });
    EXPECT_TRUE(covered) << probe_kind_id(kind);
  }
  EXPECT_EQ(ehsim::io::experiment_from_json(
                JsonValue::parse(ehsim::io::to_json(spec).dump(2))),
            spec);
}

TEST(SpecFiles, Scenario1TuningFileIsAValidOptimiseSpec) {
  const auto file = ehsim::io::load_spec_file(std::string(EHSIM_SOURCE_DIR) +
                                              "/examples/specs/scenario1_tuning.json");
  ASSERT_NE(file.get_if<ehsim::experiments::OptimiseSpec>(), nullptr);
  const OptimiseSpec& spec = (*file.get_if<ehsim::experiments::OptimiseSpec>());
  EXPECT_EQ(spec.variable, "spec.pre_tuned_hz");
  EXPECT_EQ(spec.objective, "P_gen");
  EXPECT_EQ(ehsim::io::optimise_from_json(
                JsonValue::parse(ehsim::io::to_json(spec).dump(2))),
            spec);
}

TEST(SpecFiles, SweepFileExpandsToEightJobs) {
  const auto file = ehsim::io::load_spec_file(std::string(EHSIM_SOURCE_DIR) +
                                              "/examples/specs/stage_count_sweep.json");
  ASSERT_NE(file.get_if<ehsim::experiments::SweepSpec>(), nullptr);
  EXPECT_EQ(file.get_if<ehsim::experiments::SweepSpec>()->job_count(), 8u);
  EXPECT_EQ(ehsim::io::sweep_from_json(
                JsonValue::parse(ehsim::io::to_json((*file.get_if<ehsim::experiments::SweepSpec>())).dump())),
            (*file.get_if<ehsim::experiments::SweepSpec>()));
}

}  // namespace
