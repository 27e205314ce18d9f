/// \file test_accuracy_matrix.cpp
/// \brief Oracle-measured error-bound regression matrix across the engines.
///
/// Runs miniature harvester scenarios against the extended-precision
/// reference oracle (experiments::run_accuracy) across the engine kinds,
/// with the proposed engine on a sweep whose jobs fork a shared prefix, and
/// pins the measured relative-error bounds as regression limits. Until this
/// matrix existed, the repo's accuracy claims were engine-vs-engine. The
/// limits asserted here are ~10x above the values measured at introduction,
/// so they fail on a real regression, not on FP noise:
///
///   proposed engine, Vc trace:                measured ~2e-4 (limit 2e-3)
///   proposed engine, delivered energy:        measured ~4e-2 (limit 6e-2;
///       this is the PWL-table/linearisation modelling floor on the diode
///       multiplier — see docs/accuracy.md — not an integration error)
///   NR baselines, Vc trace:                   measured ~1e-3..1e-2
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "experiments/accuracy.hpp"
#include "experiments/scenarios.hpp"
#include "experiments/sweep.hpp"

namespace {

using ehsim::ModelError;
using ehsim::experiments::AccuracyOptions;
using ehsim::experiments::AccuracyReport;
using ehsim::experiments::EngineKind;
using ehsim::experiments::ExperimentSpec;
using ehsim::experiments::SweepAxis;
using ehsim::experiments::SweepSpec;

/// Miniature scenario-1 variant: 1 s of charging with one mid-run retune,
/// small enough that the oracle (h = 2e-4) stays test-suite fast.
ExperimentSpec short_spec() {
  ExperimentSpec spec = ehsim::experiments::scenario1();
  spec.name = "accuracy-matrix";
  spec.duration = 1.0;
  spec.with_mcu = false;
  spec.trace_interval = 0.02;
  spec.power_bin_width = 0.25;
  spec.excitation.events.clear();
  spec.excitation.step_frequency(0.4, 71.0);
  spec.probes.clear();
  spec.probes.push_back({.label = "P_store",
                         .kind = ehsim::experiments::ProbeSpec::Kind::kHarvestedPower,
                         .target = "",
                         .record = false});
  return spec;
}

AccuracyOptions oracle_options() {
  AccuracyOptions options;
  options.oracle_step = 2e-4;
  return options;
}

// ---- the proposed engine ----------------------------------------------------

TEST(AccuracyMatrix, ProposedEngineStaysWithinMeasuredVcBounds) {
  // A two-job sweep whose members share a prefix and then diverge (distinct
  // retune targets): the second job forks from the first.
  SweepSpec sweep;
  sweep.base = short_spec();
  sweep.axes.push_back(SweepAxis{
      .param = "excitation.event[0].frequency_hz", .values = {70.5, 71.5}, .engines = {}});

  const AccuracyReport report = ehsim::experiments::run_accuracy(sweep, oracle_options());
  ASSERT_EQ(report.jobs.size(), 2u);

  // The Vc trace stays well inside 1e-3 of the oracle on this scenario.
  EXPECT_GT(report.bounds.vc_max_rel_error, 0.0);
  EXPECT_LT(report.bounds.vc_max_rel_error, 2e-3);
  EXPECT_LE(report.bounds.vc_rms_rel_error, report.bounds.vc_max_rel_error);
  EXPECT_LT(report.bounds.final_vc_rel_error, 2e-3);
  // Delivered-energy error sits on the PWL/linearisation modelling floor.
  EXPECT_LT(report.bounds.energy_rel_error, 6e-2);
  // The declared probe is measured per job.
  for (const auto& job : report.jobs) {
    ASSERT_EQ(job.probes.size(), 1u);
    EXPECT_EQ(job.probes.front().label, "P_store");
    EXPECT_LT(job.probes.front().max_rel_error, 6e-2);
  }
  // Oracle bookkeeping: the requested step was honoured and work was done.
  EXPECT_DOUBLE_EQ(report.oracle_step, 2e-4);
  EXPECT_GT(report.oracle_steps, 0u);
  EXPECT_GT(report.steps, 0u);
}

TEST(AccuracyMatrix, BoundsAreMaxOverJobs) {
  SweepSpec sweep;
  sweep.base = short_spec();
  sweep.axes.push_back(SweepAxis{
      .param = "excitation.event[0].frequency_hz", .values = {70.5, 71.5}, .engines = {}});
  const AccuracyReport report = ehsim::experiments::run_accuracy(sweep, oracle_options());
  double worst_vc = 0.0;
  double worst_energy = 0.0;
  for (const auto& job : report.jobs) {
    worst_vc = std::max(worst_vc, job.errors.vc_max_rel_error);
    worst_energy = std::max(worst_energy, job.errors.energy_rel_error);
  }
  EXPECT_DOUBLE_EQ(report.bounds.vc_max_rel_error, worst_vc);
  EXPECT_DOUBLE_EQ(report.bounds.energy_rel_error, worst_energy);
}

// ---- the NR baseline engines ----------------------------------------------

TEST(AccuracyMatrix, BaselineEnginesStayWithinMeasuredVcBounds) {
  for (const EngineKind engine :
       {EngineKind::kSystemVision, EngineKind::kPspice, EngineKind::kSystemCA}) {
    ExperimentSpec spec = short_spec();
    spec.engine = engine;
    const AccuracyReport report = ehsim::experiments::run_accuracy(spec, oracle_options());
    EXPECT_EQ(report.engine, ehsim::experiments::engine_kind_id(engine));
    // The fixed-step NR baselines are coarser than the proposed engine but
    // must still track the oracle: Vc within 3% on this scenario
    // (measured: trapezoid ~1e-3, Gear-2/backward-Euler up to ~1e-2).
    EXPECT_GT(report.bounds.vc_max_rel_error, 0.0)
        << ehsim::experiments::engine_kind_id(engine);
    EXPECT_LT(report.bounds.vc_max_rel_error, 3e-2)
        << ehsim::experiments::engine_kind_id(engine);
    EXPECT_LT(report.bounds.energy_rel_error, 0.12)
        << ehsim::experiments::engine_kind_id(engine);
  }
}

// ---- misuse is rejected ----------------------------------------------------

TEST(AccuracyMatrix, OracleRefusesToJudgeItself) {
  ExperimentSpec spec = short_spec();
  spec.engine = EngineKind::kReference;
  EXPECT_THROW((void)ehsim::experiments::run_accuracy(spec, oracle_options()), ModelError);
}

// ---- oracle-step convergence ----------------------------------------------

TEST(AccuracyMatrix, MeasuredVcErrorIsStableUnderOracleRefinement) {
  // The measurement must be a property of the fast path, not of the oracle.
  // On this scenario the proposed engine tracks the oracle's Vc at roundoff
  // scale (~1e-13 measured) — so the assertion is that halving the oracle
  // step keeps the bound at that scale, orders of magnitude below any
  // budget, rather than revealing an oracle-step-sized artefact.
  ExperimentSpec spec = short_spec();
  const AccuracyReport coarse = ehsim::experiments::run_accuracy(spec, oracle_options());
  AccuracyOptions fine_options = oracle_options();
  fine_options.oracle_step = 1e-4;
  const AccuracyReport fine = ehsim::experiments::run_accuracy(spec, fine_options);
  const double coarse_vc = coarse.bounds.vc_max_rel_error;
  const double fine_vc = fine.bounds.vc_max_rel_error;
  EXPECT_GT(fine_vc, 0.0);
  EXPECT_LT(coarse_vc, 1e-9);
  EXPECT_LT(fine_vc, 1e-9);
}

}  // namespace
