/// \file test_json_fuzz.cpp
/// \brief Deterministic seeded fuzzing of the JSON layer and the spec
/// round-trip.
///
/// Three properties, each checked over a few hundred generated cases:
///   1. parse(print(x)) == x for random JsonValue trees and random (valid)
///      ExperimentSpec / SweepSpec / OptimiseSpec instances — the lossless
///      round-trip contract of docs/spec_format.md, on inputs nobody
///      hand-wrote.
///   2. Strict unknown-key rejection: renaming *any* object key anywhere in
///      a spec document makes parsing throw ModelError (either the renamed
///      key is unknown or a required key went missing — never a silent
///      accept).
///   3. The parser never crashes: every strict prefix of a valid document is
///      rejected with ModelError, and random byte strings either parse or
///      throw ModelError — nothing else. The ASan/UBSan CI job runs this
///      suite, so "never crashes" includes "never reads out of bounds".
///
/// All randomness is a seeded splitmix64 stream (the same platform-stable
/// generator the excitation random walk uses) — no wall clock anywhere, so a
/// failure replays exactly from the printed seed.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "experiments/autotune.hpp"
#include "experiments/ensemble.hpp"
#include "experiments/optimise_spec.hpp"
#include "experiments/scenarios.hpp"
#include "experiments/sweep.hpp"
#include "io/json.hpp"
#include "io/spec_json.hpp"

namespace {

using ehsim::ModelError;
using ehsim::io::JsonValue;
using namespace ehsim::experiments;

/// splitmix64 — identical update to the excitation random walk's stream.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() {
    state_ += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = state_;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }

  /// Uniform draw in [0, n).
  std::size_t below(std::size_t n) { return static_cast<std::size_t>(next() % n); }

  /// Uniform draw in [lo, hi).
  double uniform(double lo, double hi) {
    const double unit = static_cast<double>(next() >> 11) * 0x1.0p-53;
    return lo + (hi - lo) * unit;
  }

  bool chance(double p) { return uniform(0.0, 1.0) < p; }

 private:
  std::uint64_t state_;
};

// ---- random JSON documents ------------------------------------------------

std::string random_text(SplitMix64& rng) {
  // Escapes, control characters and multi-byte UTF-8 all round-trip.
  static const std::vector<std::string> pool = {
      "a", "Z", "0", "_", " ", "\"", "\\", "/", "\n", "\t", "\r", "\x01",
      "\x1f", "{", "}", "[", "]", ":", ",", "é", "€", "😀", "\xC2\xA0"};
  std::string text;
  const std::size_t length = rng.below(12);
  for (std::size_t i = 0; i < length; ++i) {
    text += pool[rng.below(pool.size())];
  }
  return text;
}

double random_number(SplitMix64& rng) {
  switch (rng.below(5)) {
    case 0:
      return static_cast<double>(static_cast<std::int64_t>(rng.next())) * 1e-3;
    case 1:
      return rng.uniform(-1.0, 1.0);
    case 2:
      return rng.uniform(-1.0, 1.0) * 1e300;   // near-overflow magnitudes
    case 3:
      return rng.uniform(-1.0, 1.0) * 1e-300;  // subnormal territory
    default:
      return static_cast<double>(rng.below(1000));
  }
}

JsonValue random_json(SplitMix64& rng, std::size_t depth) {
  const std::size_t kinds = depth == 0 ? 4 : 6;  // leaves only at max depth
  switch (rng.below(kinds)) {
    case 0:
      return JsonValue(nullptr);
    case 1:
      return JsonValue(rng.chance(0.5));
    case 2:
      return JsonValue(random_number(rng));
    case 3:
      return JsonValue(random_text(rng));
    case 4: {
      JsonValue array = JsonValue::make_array();
      const std::size_t size = rng.below(5);
      for (std::size_t i = 0; i < size; ++i) {
        array.push_back(random_json(rng, depth - 1));
      }
      return array;
    }
    default: {
      JsonValue object = JsonValue::make_object();
      const std::size_t size = rng.below(5);
      for (std::size_t i = 0; i < size; ++i) {
        // set() replaces duplicates, so keys stay unique by construction.
        object.set("k" + std::to_string(rng.below(16)), random_json(rng, depth - 1));
      }
      return object;
    }
  }
}

TEST(JsonFuzz, RandomDocumentsRoundTripThroughTextExactly) {
  SplitMix64 rng(0xE45157ull);
  for (int i = 0; i < 300; ++i) {
    const JsonValue value = random_json(rng, 4);
    EXPECT_EQ(JsonValue::parse(value.dump()), value) << "case " << i;
    EXPECT_EQ(JsonValue::parse(value.dump(2)), value) << "case " << i;
    // Serialisation itself is deterministic.
    EXPECT_EQ(value.dump(), JsonValue::parse(value.dump()).dump()) << "case " << i;
  }
}

// ---- random (valid) spec documents ----------------------------------------

/// Continuous device-parameter paths with safe value ranges.
struct SafeParam {
  const char* path;
  double lo;
  double hi;
};
const SafeParam kSafeParams[] = {
    {"supercap.initial_voltage", 0.0, 5.0},
    {"generator.proof_mass", 0.012, 0.022},
    {"load.sleep_ohms", 10.0, 1e6},
    {"multiplier.stage_capacitance", 1e-6, 1e-4},
    {"supercap.ci0", 0.1, 0.5},
};

ProbeSpec random_probe(SplitMix64& rng, std::size_t index) {
  ProbeSpec probe;
  probe.label = "p" + std::to_string(index);
  switch (rng.below(7)) {
    case 0:
      probe.kind = ProbeSpec::Kind::kNodeVoltage;
      probe.target = std::vector<std::string>{"Vm", "Im", "Vc", "Ic"}[rng.below(4)];
      break;
    case 1:
      probe.kind = ProbeSpec::Kind::kStateVariable;
      probe.target = "supercap.Vi";
      break;
    case 2:
      probe.kind = ProbeSpec::Kind::kGeneratorPower;
      break;
    case 3:
      probe.kind = ProbeSpec::Kind::kHarvestedPower;
      break;
    case 4:
      probe.kind = ProbeSpec::Kind::kMcuState;
      probe.target =
          std::vector<std::string>{"sleep", "measuring", "tuning", "awake"}[rng.below(4)];
      break;
    case 5:
      probe.kind = ProbeSpec::Kind::kActuator;
      probe.target = std::vector<std::string>{"gap", "speed", "work"}[rng.below(3)];
      break;
    default:
      probe.kind = ProbeSpec::Kind::kStoredEnergy;
      break;
  }
  if (rng.chance(0.4)) {
    probe.window_start = rng.uniform(0.0, 1.0);
    probe.window_end = probe.window_start + rng.uniform(0.1, 5.0);
  }
  if (rng.chance(0.4)) {
    probe.threshold = rng.uniform(-1.0, 1.0);
  }
  probe.record = rng.chance(0.7);
  return probe;
}

ExperimentSpec random_experiment(SplitMix64& rng) {
  ExperimentSpec spec;
  spec.name = "fuzz-" + std::to_string(rng.below(1000000));
  spec.duration = rng.uniform(0.1, 400.0);
  spec.pre_tuned_hz = rng.chance(0.9) ? rng.uniform(60.0, 80.0) : 0.0;
  spec.with_mcu = rng.chance(0.5);
  spec.trace_interval = rng.chance(0.8) ? rng.uniform(0.0, 1.0) : 0.0;
  spec.power_bin_width = rng.uniform(0.1, 5.0);
  spec.engine = std::vector<EngineKind>{EngineKind::kProposed, EngineKind::kSystemVision,
                                        EngineKind::kPspice,
                                        EngineKind::kSystemCA}[rng.below(4)];
  spec.excitation.initial_frequency_hz = rng.uniform(40.0, 90.0);
  if (rng.chance(0.5)) {
    spec.excitation.initial_amplitude = rng.uniform(0.1, 1.0);
  }
  double cursor = rng.uniform(0.1, 10.0);
  const std::size_t events = rng.below(4);
  for (std::size_t i = 0; i < events; ++i) {
    switch (rng.below(4)) {
      case 0:
        spec.excitation.step_frequency(cursor, rng.uniform(40.0, 90.0));
        break;
      case 1: {
        const double duration = rng.uniform(0.5, 10.0);
        spec.excitation.ramp_frequency(cursor, duration, rng.uniform(40.0, 90.0));
        cursor += duration;
        break;
      }
      case 2:
        spec.excitation.step_amplitude(cursor, rng.uniform(0.0, 1.0));
        break;
      default: {
        RandomWalkParams walk;
        walk.step_interval = rng.uniform(0.2, 3.0);
        walk.frequency_sigma = rng.uniform(0.0, 0.5);
        walk.amplitude_sigma = rng.uniform(0.0, 0.05);
        walk.seed = rng.next();  // uint64 range, incl. string-serialised seeds
        walk.min_frequency_hz = 30.0;
        walk.max_frequency_hz = 100.0;
        walk.min_amplitude = 0.05;
        const double duration = rng.uniform(1.0, 20.0);
        spec.excitation.random_walk(cursor, duration, walk);
        cursor += duration;
        break;
      }
    }
    cursor += rng.uniform(0.1, 10.0);
  }
  const std::size_t overrides = rng.below(3);
  for (std::size_t i = 0; i < overrides; ++i) {
    const SafeParam& param = kSafeParams[rng.below(std::size(kSafeParams))];
    spec.overrides.push_back(ParamOverride{param.path, rng.uniform(param.lo, param.hi)});
  }
  const std::size_t probes = rng.below(4);
  for (std::size_t i = 0; i < probes; ++i) {
    spec.probes.push_back(random_probe(rng, i));
  }
  return spec;
}

SweepSpec random_sweep(SplitMix64& rng) {
  SweepSpec sweep;
  sweep.base = random_experiment(rng);
  sweep.mode = rng.chance(0.5) ? SweepSpec::Mode::kGrid : SweepSpec::Mode::kZip;
  sweep.threads = rng.below(5);
  const std::size_t axes = 1 + rng.below(3);
  const std::size_t zip_length = 1 + rng.below(4);
  for (std::size_t a = 0; a < axes; ++a) {
    SweepAxis axis;
    const std::size_t length =
        sweep.mode == SweepSpec::Mode::kZip ? zip_length : 1 + rng.below(4);
    if (a == 0 && rng.chance(0.3)) {
      static const EngineKind kinds[] = {EngineKind::kProposed, EngineKind::kSystemVision,
                                         EngineKind::kPspice, EngineKind::kSystemCA};
      for (std::size_t i = 0; i < length; ++i) {
        axis.engines.push_back(kinds[(rng.below(4) + i) % 4]);
      }
    } else if (rng.chance(0.3)) {
      axis.param = "spec.pre_tuned_hz";
      for (std::size_t i = 0; i < length; ++i) {
        axis.values.push_back(rng.uniform(60.0, 80.0));
      }
    } else {
      const SafeParam& param = kSafeParams[rng.below(std::size(kSafeParams))];
      axis.param = param.path;
      for (std::size_t i = 0; i < length; ++i) {
        axis.values.push_back(rng.uniform(param.lo, param.hi));
      }
    }
    sweep.axes.push_back(std::move(axis));
  }
  return sweep;
}

OptimiseSpec random_optimise(SplitMix64& rng) {
  OptimiseSpec spec;
  spec.name = "fuzz-optimise-" + std::to_string(rng.below(1000000));
  spec.base = random_experiment(rng);
  if (spec.base.probes.empty()) {
    spec.base.probes.push_back(ProbeSpec{"p0", ProbeSpec::Kind::kGeneratorPower});
  }
  const ProbeSpec& objective = spec.base.probes[rng.below(spec.base.probes.size())];
  spec.objective = objective.label;
  if (objective.threshold && rng.chance(0.3)) {
    spec.statistic = rng.chance(0.5) ? "duty_cycle" : "crossings";
  } else {
    static const char* statistics[] = {"final", "min", "max", "mean", "rms"};
    spec.statistic = statistics[rng.below(std::size(statistics))];
  }
  spec.maximise = rng.chance(0.7);
  spec.max_evaluations = 5 + rng.below(40);
  spec.x_tolerance = rng.uniform(1e-4, 0.1);
  const std::size_t axes = 1 + rng.below(3);
  if (axes == 1 && rng.chance(0.5)) {
    // The single-variable alias form.
    const SafeParam& param = kSafeParams[rng.below(std::size(kSafeParams))];
    spec.variable = param.path;
    spec.lower = param.lo;
    spec.upper = param.hi;
  } else {
    for (std::size_t i = 0; i < axes; ++i) {
      // Distinct paths: pick a window of the safe-param table.
      const SafeParam& param = kSafeParams[(rng.below(2) + i) % std::size(kSafeParams)];
      OptimiseVariable axis;
      axis.path = param.path;
      axis.lower = param.lo;
      axis.upper = param.hi;
      if (rng.chance(0.4)) {
        axis.x_tolerance = rng.uniform(1e-3, 0.1);
      }
      bool duplicate = false;
      for (const OptimiseVariable& existing : spec.variables) {
        duplicate = duplicate || existing.path == axis.path;
      }
      if (!duplicate) {
        spec.variables.push_back(std::move(axis));
      }
    }
  }
  return spec;
}

EnsembleSpec random_ensemble(SplitMix64& rng) {
  EnsembleSpec ensemble;
  ensemble.base = random_experiment(rng);
  // An ensemble needs at least one seeded walk to vary; random_experiment's
  // event tail ends well before t = 200 (time monotonicity holds).
  RandomWalkParams walk;
  walk.step_interval = rng.uniform(0.2, 3.0);
  walk.frequency_sigma = rng.uniform(0.0, 0.5);
  walk.seed = rng.next();
  walk.min_frequency_hz = 30.0;
  walk.max_frequency_hz = 100.0;
  ensemble.base.excitation.random_walk(200.0, rng.uniform(1.0, 20.0), walk);
  if (rng.chance(0.5)) {
    const std::size_t count = 2 + rng.below(5);
    for (std::size_t i = 0; i < count; ++i) {
      // Strictly increasing offsets keep the seeds unique by construction.
      const std::uint64_t previous = ensemble.seeds.empty() ? 0 : ensemble.seeds.back();
      ensemble.seeds.push_back(previous + 1 + rng.below(1000));
    }
  } else {
    ensemble.num_seeds = 2 + rng.below(5);
  }
  ensemble.threads = rng.below(5);
  return ensemble;
}

AutotuneSpec random_autotune(SplitMix64& rng) {
  AutotuneSpec spec;
  spec.name = "fuzz-autotune-" + std::to_string(rng.below(1000000));
  spec.base = random_experiment(rng);
  spec.base.engine = EngineKind::kProposed;  // the only tunable engine
  // Ladders over the model-invariant knob paths, values inside each knob's
  // validated range and strictly increasing (so they are duplicate-free).
  struct Ladder {
    const char* path;
    double lo;
    double hi;
    bool integral;
  };
  static const Ladder ladders[] = {
      {"solver.h_max", 5e-4, 4e-3, false},
      {"solver.h_initial", 1e-7, 1e-5, false},
      {"solver.stability_safety", 0.5, 0.9, false},
      {"solver.lle_tolerance", 0.1, 1.0, false},
      {"solver.init_tolerance", 1e-12, 1e-8, false},
      {"multiplier.table_segments", 256.0, 4096.0, true},
  };
  const std::size_t knobs = 1 + rng.below(3);
  for (std::size_t i = 0; i < knobs; ++i) {
    const Ladder& ladder = ladders[(rng.below(2) + 2 * i) % std::size(ladders)];
    AutotuneKnob knob;
    knob.path = ladder.path;
    bool duplicate = false;
    for (const AutotuneKnob& existing : spec.knobs) {
      duplicate = duplicate || existing.path == knob.path;
    }
    if (duplicate) {
      continue;
    }
    const std::size_t rungs = 1 + rng.below(4);
    double value = ladder.lo;
    for (std::size_t r = 0; r < rungs; ++r) {
      knob.values.push_back(ladder.integral ? std::floor(value) : value);
      value += (ladder.hi - ladder.lo) / 3.5 * rng.uniform(0.5, 1.0);
    }
    spec.knobs.push_back(std::move(knob));
  }
  spec.error_budget = rng.uniform(1e-4, 0.1);
  if (rng.chance(0.5)) {
    spec.oracle_step = rng.uniform(1e-5, 1e-3);
  }
  spec.max_evaluations = 5 + rng.below(60);
  return spec;
}

TEST(SpecFuzz, RandomExperimentSpecsRoundTripLosslessly) {
  SplitMix64 rng(0x5EED01ull);
  for (int i = 0; i < 120; ++i) {
    const ExperimentSpec spec = random_experiment(rng);
    ASSERT_NO_THROW(spec.validate()) << "generator bug, case " << i;
    const std::string text = ehsim::io::to_json(spec).dump(2);
    EXPECT_EQ(ehsim::io::experiment_from_json(JsonValue::parse(text)), spec)
        << "case " << i;
  }
}

TEST(SpecFuzz, RandomSweepSpecsRoundTripLosslessly) {
  SplitMix64 rng(0x5EED02ull);
  for (int i = 0; i < 80; ++i) {
    const SweepSpec sweep = random_sweep(rng);
    ASSERT_NO_THROW(sweep.validate()) << "generator bug, case " << i;
    const std::string text = ehsim::io::to_json(sweep).dump(2);
    EXPECT_EQ(ehsim::io::sweep_from_json(JsonValue::parse(text)), sweep) << "case " << i;
  }
}

TEST(SpecFuzz, RandomOptimiseSpecsRoundTripLosslessly) {
  SplitMix64 rng(0x5EED03ull);
  for (int i = 0; i < 80; ++i) {
    const OptimiseSpec spec = random_optimise(rng);
    ASSERT_NO_THROW(spec.validate()) << "generator bug, case " << i;
    const std::string text = ehsim::io::to_json(spec).dump(2);
    EXPECT_EQ(ehsim::io::optimise_from_json(JsonValue::parse(text)), spec) << "case " << i;
  }
}

TEST(SpecFuzz, RandomEnsembleSpecsRoundTripLosslessly) {
  SplitMix64 rng(0x5EED07ull);
  for (int i = 0; i < 80; ++i) {
    const EnsembleSpec spec = random_ensemble(rng);
    ASSERT_NO_THROW(spec.validate()) << "generator bug, case " << i;
    const std::string text = ehsim::io::to_json(spec).dump(2);
    EXPECT_EQ(ehsim::io::ensemble_from_json(JsonValue::parse(text)), spec) << "case " << i;
  }
}

TEST(SpecFuzz, RandomAutotuneSpecsRoundTripLosslessly) {
  SplitMix64 rng(0x5EED08ull);
  for (int i = 0; i < 80; ++i) {
    const AutotuneSpec spec = random_autotune(rng);
    ASSERT_NO_THROW(spec.validate()) << "generator bug, case " << i;
    const std::string text = ehsim::io::to_json(spec).dump(2);
    EXPECT_EQ(ehsim::io::autotune_from_json(JsonValue::parse(text)), spec) << "case " << i;
    // And through the tagged union, preserving the flavour.
    ehsim::io::AnySpec any = ehsim::io::spec_from_json(JsonValue::parse(text));
    const AutotuneSpec* held = any.get_if<AutotuneSpec>();
    ASSERT_NE(held, nullptr) << "case " << i;
    EXPECT_EQ(*held, spec) << "case " << i;
  }
}

// ---- strict unknown-key rejection under key mutation -----------------------

std::size_t count_object_keys(const JsonValue& value) {
  std::size_t count = 0;
  if (value.is_object()) {
    for (const auto& [key, member] : value.as_object()) {
      count += 1 + count_object_keys(member);
    }
  } else if (value.is_array()) {
    for (const JsonValue& member : value.as_array()) {
      count += count_object_keys(member);
    }
  }
  return count;
}

/// Rename the \p index-th object key (pre-order) by appending '~'; returns
/// false when index is past the last key.
bool mutate_key(JsonValue& value, std::size_t& index) {
  if (value.is_object()) {
    for (auto& [key, member] : value.as_object()) {
      if (index == 0) {
        key += '~';
        return true;
      }
      --index;
      if (mutate_key(member, index)) {
        return true;
      }
    }
  } else if (value.is_array()) {
    for (JsonValue& member : value.as_array()) {
      if (mutate_key(member, index)) {
        return true;
      }
    }
  }
  return false;
}

TEST(SpecFuzz, EveryMutatedKeyIsRejected) {
  SplitMix64 rng(0x5EED04ull);
  for (int i = 0; i < 30; ++i) {
    JsonValue document;
    switch (i % 5) {
      case 0:
        document = ehsim::io::to_json(random_experiment(rng));
        break;
      case 1:
        document = ehsim::io::to_json(random_sweep(rng));
        break;
      case 2:
        document = ehsim::io::to_json(random_optimise(rng));
        break;
      case 3:
        document = ehsim::io::to_json(random_autotune(rng));
        break;
      default:
        document = ehsim::io::to_json(random_ensemble(rng));
        break;
    }
    const std::size_t keys = count_object_keys(document);
    ASSERT_GT(keys, 0u);
    for (std::size_t key = 0; key < keys; ++key) {
      JsonValue mutated = document;
      std::size_t cursor = key;
      ASSERT_TRUE(mutate_key(mutated, cursor));
      // Either the renamed key is unknown or a required key went missing —
      // both must throw, never silently parse.
      EXPECT_THROW((void)ehsim::io::spec_from_json(mutated), ModelError)
          << "case " << i << ", key " << key << ": " << mutated.dump();
    }
  }
}

/// Strict-key coverage of the checkpoint document: write a real mid-run
/// checkpoint, then rename *every* object key in it (envelope, workload
/// meta, embedded spec, session payload) — each mutation must make the
/// resume path throw ModelError instead of restoring corrupted state.
TEST(CheckpointFuzz, EveryMutatedCheckpointKeyIsRejected) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "ehsim_ckpt_fuzz";
  fs::remove_all(dir);
  fs::create_directories(dir);

  ExperimentSpec spec;
  spec.name = "ckpt-fuzz";
  spec.duration = 0.4;
  spec.pre_tuned_hz = 70.0;
  spec.with_mcu = true;
  spec.trace_interval = 0.05;
  spec.excitation.initial_frequency_hz = 70.0;

  const auto run = [&spec](const CheckpointOptions& checkpointing) {
    return run_scenario_batch({{spec, std::nullopt}}, {.threads = 1, .checkpoint = checkpointing});
  };
  CheckpointOptions writing;
  writing.every = 0.2;
  writing.dir = dir.string();
  writing.abort_after = 1;
  ASSERT_THROW((void)run(writing), CheckpointAbort);
  const std::string path = checkpoint_file_path(writing, spec.name);
  const JsonValue document = JsonValue::parse(ehsim::io::read_file(path));

  CheckpointOptions resuming;
  resuming.dir = dir.string();
  resuming.resume = true;
  const std::size_t keys = count_object_keys(document);
  ASSERT_GT(keys, 0u);
  for (std::size_t key = 0; key < keys; ++key) {
    JsonValue mutated = document;
    std::size_t cursor = key;
    ASSERT_TRUE(mutate_key(mutated, cursor));
    ehsim::io::write_file(path, mutated.dump(-1));
    EXPECT_THROW((void)run(resuming), ModelError) << "checkpoint key " << key << " of " << keys;
  }

  // And the unmutated document still resumes — the harness itself is sound.
  ehsim::io::write_file(path, document.dump(-1));
  EXPECT_EQ(run(resuming).size(), 1u);
  fs::remove_all(dir);
}

// ---- parser robustness ----------------------------------------------------

TEST(JsonFuzz, EveryStrictPrefixOfAValidDocumentIsRejected) {
  SplitMix64 rng(0x5EED05ull);
  const std::string text = ehsim::io::to_json(random_optimise(rng)).dump(2);
  for (std::size_t cut = 0; cut < text.size(); ++cut) {
    EXPECT_THROW((void)JsonValue::parse(text.substr(0, cut)), ModelError) << "cut " << cut;
  }
  EXPECT_THROW((void)JsonValue::parse(text + " x"), ModelError);
}

TEST(JsonFuzz, GarbageAndBitFlippedInputNeverCrashesTheParser) {
  SplitMix64 rng(0x5EED06ull);
  // Random byte strings over the full byte range.
  for (int i = 0; i < 400; ++i) {
    std::string garbage;
    const std::size_t length = rng.below(64);
    for (std::size_t b = 0; b < length; ++b) {
      garbage.push_back(static_cast<char>(rng.below(256)));
    }
    try {
      (void)JsonValue::parse(garbage);  // a short garbage string may be valid
    } catch (const ModelError&) {
      // rejected with the documented error type — fine
    }
  }
  // Byte-level corruption of an otherwise valid document.
  const std::string text = ehsim::io::to_json(random_experiment(rng)).dump(2);
  for (int i = 0; i < 400; ++i) {
    std::string corrupted = text;
    const std::size_t edits = 1 + rng.below(3);
    for (std::size_t e = 0; e < edits; ++e) {
      corrupted[rng.below(corrupted.size())] = static_cast<char>(rng.below(256));
    }
    try {
      (void)JsonValue::parse(corrupted);
    } catch (const ModelError&) {
    }
  }
}

}  // namespace
