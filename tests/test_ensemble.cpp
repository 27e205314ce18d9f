/// \file test_ensemble.cpp
/// \brief Monte Carlo ensembles: spec validation and expansion, the JSON
/// round trip through the tagged spec union, the Welford reduction, and the
/// thread-count determinism contract (job-order accumulation means the
/// statistics are bit-identical for 1, 2 or 8 workers).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "experiments/ensemble.hpp"
#include "experiments/metrics.hpp"
#include "experiments/scenarios.hpp"
#include "io/json.hpp"
#include "io/spec_json.hpp"

namespace {

using ehsim::ModelError;
using ehsim::experiments::BatchOptions;
using ehsim::experiments::BatchStats;
using ehsim::experiments::EnsembleProbeStats;
using ehsim::experiments::EnsembleResult;
using ehsim::experiments::EnsembleSpec;
using ehsim::experiments::EnsembleStat;
using ehsim::experiments::ExcitationEvent;
using ehsim::experiments::ExperimentSpec;
using ehsim::experiments::ProbeSpec;
using ehsim::experiments::RandomWalkParams;
using ehsim::experiments::WelfordAccumulator;
using ehsim::io::JsonValue;

/// Miniature drifting-ambient experiment: one seeded random walk plus a
/// recorded power probe, short enough to run a dozen replicas per test.
ExperimentSpec walk_spec() {
  ExperimentSpec spec;
  spec.name = "ens-test";
  spec.duration = 1.0;
  spec.pre_tuned_hz = 70.0;
  spec.with_mcu = true;
  spec.power_bin_width = 0.25;
  spec.excitation.initial_frequency_hz = 70.0;
  RandomWalkParams walk;
  walk.step_interval = 0.1;
  walk.frequency_sigma = 0.4;
  walk.seed = 11;
  walk.min_frequency_hz = 60.0;
  walk.max_frequency_hz = 80.0;
  spec.excitation.random_walk(0.2, 0.7, walk);
  ProbeSpec power;
  power.label = "Pgen";
  power.kind = ProbeSpec::Kind::kGeneratorPower;
  power.record = false;
  spec.probes.push_back(power);
  return spec;
}

EnsembleSpec small_ensemble() {
  EnsembleSpec ensemble;
  ensemble.base = walk_spec();
  ensemble.seeds = {3, 1, 7};
  return ensemble;
}

void expect_stat_eq(const EnsembleStat& a, const EnsembleStat& b) {
  EXPECT_EQ(a.mean, b.mean);
  EXPECT_EQ(a.stderr_mean, b.stderr_mean);
  EXPECT_EQ(a.minimum, b.minimum);
  EXPECT_EQ(a.maximum, b.maximum);
}

/// Bitwise equality of the reduced statistics (the determinism contract).
void expect_stats_identical(const EnsembleResult& a, const EnsembleResult& b) {
  EXPECT_EQ(a.name, b.name);
  EXPECT_EQ(a.engine, b.engine);
  EXPECT_EQ(a.seeds, b.seeds);
  expect_stat_eq(a.final_vc, b.final_vc);
  expect_stat_eq(a.final_resonance_hz, b.final_resonance_hz);
  expect_stat_eq(a.rms_power_before, b.rms_power_before);
  expect_stat_eq(a.rms_power_after, b.rms_power_after);
  ASSERT_EQ(a.probes.size(), b.probes.size());
  for (std::size_t i = 0; i < a.probes.size(); ++i) {
    EXPECT_EQ(a.probes[i].label, b.probes[i].label);
    expect_stat_eq(a.probes[i].final_value, b.probes[i].final_value);
    expect_stat_eq(a.probes[i].minimum, b.probes[i].minimum);
    expect_stat_eq(a.probes[i].maximum, b.probes[i].maximum);
    expect_stat_eq(a.probes[i].mean, b.probes[i].mean);
    expect_stat_eq(a.probes[i].rms, b.probes[i].rms);
  }
  ASSERT_EQ(a.runs.size(), b.runs.size());
  for (std::size_t i = 0; i < a.runs.size(); ++i) {
    EXPECT_EQ(a.runs[i].scenario, b.runs[i].scenario);
    EXPECT_EQ(a.runs[i].final_vc, b.runs[i].final_vc);
    EXPECT_EQ(a.runs[i].stats.steps, b.runs[i].stats.steps);
  }
}

// ---- Welford reduction ------------------------------------------------------

TEST(Welford, MatchesDirectFormulas) {
  const std::vector<double> samples = {1.5, -0.25, 3.0, 2.25, 0.5};
  WelfordAccumulator acc;
  double sum = 0.0;
  for (const double x : samples) {
    acc.add(x);
    sum += x;
  }
  const double mean = sum / static_cast<double>(samples.size());
  double ss = 0.0;
  for (const double x : samples) {
    ss += (x - mean) * (x - mean);
  }
  const double variance = ss / static_cast<double>(samples.size() - 1);
  EXPECT_EQ(acc.count(), samples.size());
  EXPECT_NEAR(acc.mean(), mean, 1e-15);
  EXPECT_NEAR(acc.variance(), variance, 1e-14);
  EXPECT_NEAR(acc.standard_error(),
              std::sqrt(variance / static_cast<double>(samples.size())), 1e-14);
  EXPECT_EQ(acc.minimum(), -0.25);
  EXPECT_EQ(acc.maximum(), 3.0);
}

TEST(Welford, SingleSampleHasZeroVariance) {
  WelfordAccumulator acc;
  acc.add(42.0);
  EXPECT_EQ(acc.mean(), 42.0);
  EXPECT_EQ(acc.variance(), 0.0);
  EXPECT_EQ(acc.standard_error(), 0.0);
}

// ---- spec validation and expansion -----------------------------------------

TEST(EnsembleSpecTest, RejectsBaseWithoutRandomWalk) {
  EnsembleSpec ensemble = small_ensemble();
  ensemble.base.excitation.events.clear();
  EXPECT_THROW(ensemble.validate(), ModelError);
}

TEST(EnsembleSpecTest, RejectsBothAndNeitherSeedForms) {
  EnsembleSpec both = small_ensemble();
  both.num_seeds = 4;
  EXPECT_THROW(both.validate(), ModelError);

  EnsembleSpec neither = small_ensemble();
  neither.seeds.clear();
  EXPECT_THROW(neither.validate(), ModelError);
}

TEST(EnsembleSpecTest, RejectsFewerThanTwoReplicasAndDuplicateSeeds) {
  EnsembleSpec one = small_ensemble();
  one.seeds = {5};
  EXPECT_THROW(one.validate(), ModelError);

  EnsembleSpec dup = small_ensemble();
  dup.seeds = {3, 9, 3};
  EXPECT_THROW(dup.validate(), ModelError);
}

TEST(EnsembleSpecTest, NumSeedsGeneratesOneThroughN) {
  EnsembleSpec ensemble = small_ensemble();
  ensemble.seeds.clear();
  ensemble.num_seeds = 4;
  ensemble.validate();
  EXPECT_EQ(ensemble.replica_seeds(), (std::vector<std::uint64_t>{1, 2, 3, 4}));
}

TEST(EnsembleSpecTest, ExpandNamesReplicasAndReseedsEveryWalk) {
  const EnsembleSpec ensemble = small_ensemble();
  const std::vector<ExperimentSpec> replicas = ensemble.expand();
  ASSERT_EQ(replicas.size(), 3u);
  EXPECT_EQ(replicas[0].name, "ens-test/seed=3");
  EXPECT_EQ(replicas[1].name, "ens-test/seed=1");
  EXPECT_EQ(replicas[2].name, "ens-test/seed=7");

  std::vector<std::uint64_t> walk_seeds;
  for (const ExperimentSpec& replica : replicas) {
    for (const ExcitationEvent& event : replica.excitation.events) {
      if (event.kind == ExcitationEvent::Kind::kRandomWalk) {
        walk_seeds.push_back(event.walk.seed);
      }
    }
  }
  ASSERT_EQ(walk_seeds.size(), 3u);
  // Reseeded: distinct across replicas, never the base seed, and stable
  // (expand() twice gives the same seeds — no hidden global state).
  EXPECT_NE(walk_seeds[0], walk_seeds[1]);
  EXPECT_NE(walk_seeds[0], walk_seeds[2]);
  EXPECT_NE(walk_seeds[1], walk_seeds[2]);
  for (const std::uint64_t seed : walk_seeds) {
    EXPECT_NE(seed, 11u);
  }
  const std::vector<ExperimentSpec> again = ensemble.expand();
  for (std::size_t i = 0; i < replicas.size(); ++i) {
    EXPECT_EQ(replicas[i], again[i]);
  }
}

// ---- JSON round trip through the tagged spec union -------------------------

TEST(EnsembleSpecTest, RoundTripsThroughJsonBothSeedForms) {
  EnsembleSpec explicit_seeds = small_ensemble();
  explicit_seeds.threads = 2;
  const JsonValue a = ehsim::io::to_json(explicit_seeds);
  EXPECT_EQ(a.at("type").as_string(), "ensemble");
  EXPECT_EQ(ehsim::io::ensemble_from_json(JsonValue::parse(a.dump(2))), explicit_seeds);

  EnsembleSpec counted = small_ensemble();
  counted.seeds.clear();
  counted.num_seeds = 5;
  const JsonValue b = ehsim::io::to_json(counted);
  EXPECT_FALSE(b.contains("seeds"));
  EXPECT_EQ(ehsim::io::ensemble_from_json(JsonValue::parse(b.dump(2))), counted);
}

TEST(EnsembleSpecTest, SpecUnionDispatchesEnsembleDocuments) {
  const EnsembleSpec ensemble = small_ensemble();
  const ehsim::io::AnySpec any = ehsim::io::spec_from_json(ehsim::io::to_json(ensemble));
  EXPECT_EQ(any.type_id(), std::string("ensemble"));
  ASSERT_NE(any.get_if<EnsembleSpec>(), nullptr);
  EXPECT_EQ(*any.get_if<EnsembleSpec>(), ensemble);
  EXPECT_EQ(any.get_if<ExperimentSpec>(), nullptr);
}

TEST(EnsembleSpecTest, JsonRejectsMalformedSeedLists) {
  const JsonValue document = ehsim::io::to_json(small_ensemble());

  JsonValue unknown = document;
  unknown.set("surprise", JsonValue(1.0));
  EXPECT_THROW((void)ehsim::io::ensemble_from_json(unknown), ModelError);

  JsonValue negative = document;
  JsonValue seeds = JsonValue::make_array();
  seeds.push_back(JsonValue(-3.0));
  negative.set("seeds", seeds);
  EXPECT_THROW((void)ehsim::io::ensemble_from_json(negative), ModelError);

  JsonValue fractional = document;
  seeds = JsonValue::make_array();
  seeds.push_back(JsonValue(1.5));
  fractional.set("seeds", seeds);
  EXPECT_THROW((void)ehsim::io::ensemble_from_json(fractional), ModelError);
}

// ---- the reduction and its determinism contract ----------------------------

TEST(EnsembleRun, StatisticsAgreeWithPerReplicaResults) {
  const EnsembleSpec ensemble = small_ensemble();
  const EnsembleResult result = ehsim::experiments::run_ensemble(ensemble);
  ASSERT_EQ(result.runs.size(), 3u);
  EXPECT_EQ(result.name, "ens-test");
  EXPECT_EQ(result.seeds, (std::vector<std::uint64_t>{3, 1, 7}));

  WelfordAccumulator direct;
  for (const auto& run : result.runs) {
    direct.add(run.final_vc);
  }
  EXPECT_EQ(result.final_vc.mean, direct.mean());
  EXPECT_EQ(result.final_vc.stderr_mean, direct.standard_error());
  EXPECT_EQ(result.final_vc.minimum, direct.minimum());
  EXPECT_EQ(result.final_vc.maximum, direct.maximum());

  // Different walk seeds must actually produce different trajectories, or
  // the "ensemble" is vacuous and stderr collapses to zero.
  EXPECT_GT(result.final_vc.maximum, result.final_vc.minimum);
  EXPECT_GT(result.final_vc.stderr_mean, 0.0);

  ASSERT_EQ(result.probes.size(), 1u);
  EXPECT_EQ(result.probes[0].label, "Pgen");
  WelfordAccumulator probe_mean;
  for (const auto& run : result.runs) {
    probe_mean.add(run.probes[0].mean);
  }
  EXPECT_EQ(result.probes[0].mean.mean, probe_mean.mean());
}

TEST(EnsembleRun, BitIdenticalAcrossWorkerCounts) {
  EnsembleSpec ensemble = small_ensemble();
  ensemble.seeds = {3, 1, 7, 12, 5};

  BatchOptions options;
  options.threads = 1;
  const EnsembleResult serial = ehsim::experiments::run_ensemble(ensemble, options);
  for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
    options.threads = threads;
    const EnsembleResult parallel = ehsim::experiments::run_ensemble(ensemble, options);
    expect_stats_identical(serial, parallel);
  }
}

TEST(EnsembleRun, ReplicasForkTheirSharedPrefixAndMatchSeparateRuns) {
  const EnsembleSpec ensemble = small_ensemble();

  BatchStats stats;
  const EnsembleResult result = ehsim::experiments::run_ensemble(ensemble, {}, &stats);
  EXPECT_EQ(stats.jobs, 3u);
  // Seed replicas differ only in their drift realisation, so the batch
  // marches the span before the walk once and forks the other two replicas
  // from a snapshot of the first.
  EXPECT_EQ(stats.lockstep_groups, 1u);
  EXPECT_EQ(stats.shared_factorisations, 2u);

  // Forking is an implementation detail, not a licence for nondeterminism:
  // a second execution reproduces the statistics bit for bit, and every
  // replica equals its own separate run.
  expect_stats_identical(result, ehsim::experiments::run_ensemble(ensemble));
  const std::vector<ExperimentSpec> replicas = ensemble.expand();
  ASSERT_EQ(result.runs.size(), replicas.size());
  for (std::size_t i = 0; i < replicas.size(); ++i) {
    const ehsim::experiments::ScenarioResult alone =
        ehsim::experiments::run_experiment(replicas[i]);
    EXPECT_EQ(result.runs[i].final_vc, alone.final_vc);
    EXPECT_EQ(result.runs[i].vc, alone.vc);
    EXPECT_EQ(result.runs[i].stats.steps, alone.stats.steps);
    ASSERT_EQ(result.runs[i].probes.size(), alone.probes.size());
    EXPECT_EQ(result.runs[i].probes[0].mean, alone.probes[0].mean);
  }
}

}  // namespace
