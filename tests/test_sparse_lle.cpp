/// \file test_sparse_lle.cpp
/// \brief The LLE monitor's sparse scan (Eq. 3): each harvester block
/// declares exactly the local Jacobian entries that change within an epoch,
/// and on the real march the solver's drift equals a dense monitor's bit for
/// bit — on every checked-in spec, through MCU epochs, across a checkpoint
/// cut and across a prefix fork, and after a restore that disagrees with
/// the model.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <random>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "core/linearisation_cache.hpp"
#include "core/linearised_solver.hpp"
#include "core/lle_monitor.hpp"
#include "experiments/scenarios.hpp"
#include "harvester/dickson_multiplier.hpp"
#include "harvester/electrostatic_generator.hpp"
#include "harvester/harvester_system.hpp"
#include "harvester/microgenerator.hpp"
#include "harvester/piezo_generator.hpp"
#include "harvester/supercapacitor.hpp"
#include "harvester/tuning.hpp"
#include "harvester/vibration_source.hpp"
#include "io/spec_json.hpp"
#include "io/state_json.hpp"
#include "sim/checkpoint.hpp"
#include "sim/harvester_session.hpp"

namespace {

using ehsim::core::AnalogBlock;
using ehsim::core::JacobianBlock;
using ehsim::core::JacobianEntry;
using ehsim::core::JacobianPattern;
using ehsim::core::Linearisation;
using ehsim::core::LinearisedSolver;
using ehsim::core::LleMonitor;
using ehsim::experiments::ExperimentSpec;
using ehsim::harvester::HarvesterParams;
using ehsim::linalg::Matrix;
using ehsim::sim::HarvesterSession;

std::uint64_t bits(double value) { return std::bit_cast<std::uint64_t>(value); }

// ---- the declarations --------------------------------------------------------

/// A point (t, x, y) of one block.
struct Point {
  double t = 0.0;
  std::vector<double> x;
  std::vector<double> y;
};

/// The block's local Jxx, Jxy, Jyx, Jyy at \p p.
std::array<Matrix, 4> local_jacobians(const AnalogBlock& block, const Point& p) {
  const std::size_t ns = block.num_states();
  const std::size_t nt = block.num_terminals();
  const std::size_t na = block.num_algebraic();
  std::array<Matrix, 4> j{Matrix(ns, ns), Matrix(ns, nt), Matrix(na, ns), Matrix(na, nt)};
  block.jacobians(p.t, p.x, p.y, j[0], j[1], j[2], j[3]);
  return j;
}

using EntrySet = std::array<std::set<std::pair<std::size_t, std::size_t>>, 4>;

/// Over \p samples points from \p draw (all within one epoch): every
/// undeclared local entry stays bit-identical to its value at the first
/// point, and every declared entry changes at some point — the declaration
/// is exactly the set of entries that vary.
template <typename Draw>
void expect_exact_declaration(const AnalogBlock& block, Draw draw, int samples = 400) {
  std::vector<JacobianEntry> entries;
  block.varying_jacobian_entries(entries);
  EntrySet declared;
  for (const JacobianEntry& e : entries) {
    declared[static_cast<std::size_t>(e.block)].insert({e.row, e.col});
  }
  const std::array<Matrix, 4> reference = local_jacobians(block, draw());
  EntrySet changed;
  for (int k = 0; k < samples; ++k) {
    const std::array<Matrix, 4> now = local_jacobians(block, draw());
    for (std::size_t b = 0; b < 4; ++b) {
      for (std::size_t r = 0; r < now[b].rows(); ++r) {
        for (std::size_t c = 0; c < now[b].cols(); ++c) {
          if (bits(now[b](r, c)) == bits(reference[b](r, c))) {
            continue;
          }
          ASSERT_TRUE(declared[b].contains({r, c}))
              << block.name() << ": undeclared entry (" << r << ", " << c << ") of block "
              << b << " changed within an epoch";
          changed[b].insert({r, c});
        }
      }
    }
  }
  EXPECT_EQ(changed, declared) << block.name() << ": a declared entry never changed";
}

TEST(VaryingJacobianEntries, DicksonMultiplierAcrossDiodeBands) {
  for (const std::size_t stages : {1u, 4u, 12u}) {
    ehsim::harvester::MultiplierParams params;
    params.stages = stages;
    const ehsim::harvester::DicksonMultiplier block(params,
                                                    ehsim::harvester::DeviceEvalMode::kPwlTable);
    std::mt19937_64 rng(stages);
    std::uniform_real_distribution<double> volts(-1.0, 1.0);
    // Node voltage differences of up to 3 V either way walk every diode
    // through its reverse, knee and forward conductance bands.
    expect_exact_declaration(block, [&] {
      Point p{0.0, std::vector<double>(stages + 1), std::vector<double>(4)};
      for (double& v : p.x) {
        v = volts(rng);
      }
      for (double& v : p.y) {
        v = volts(rng);
      }
      return p;
    });
  }
}

TEST(VaryingJacobianEntries, SupercapacitorInEachLoadMode) {
  using ehsim::harvester::LoadMode;
  const HarvesterParams params;
  for (const LoadMode mode : {LoadMode::kSleep, LoadMode::kAwake, LoadMode::kTuning}) {
    ehsim::harvester::Supercapacitor block(params.supercap, params.load);
    block.set_load_mode(mode);
    std::mt19937_64 rng(static_cast<std::uint64_t>(mode) + 1);
    std::uniform_real_distribution<double> volts(0.0, 5.0);
    std::uniform_real_distribution<double> amps(-1e-3, 1e-3);
    expect_exact_declaration(block, [&] {
      return Point{0.0, {volts(rng), volts(rng), volts(rng)}, {volts(rng), amps(rng)}};
    });
  }
}

TEST(VaryingJacobianEntries, MicrogeneratorParkedAndWithTheActuatorMoving) {
  for (const double coil_inductance : {0.0, 5e-3}) {
    const HarvesterParams params;
    const ehsim::harvester::VibrationProfile vibration(params.vibration);
    const ehsim::harvester::TuningMechanism tuning(params.tuning, params.generator);
    ehsim::harvester::LinearActuator actuator(params.actuator, params.tuning);
    ehsim::harvester::MicrogeneratorParams generator = params.generator;
    generator.coil_inductance = coil_inductance;
    const ehsim::harvester::Microgenerator block(generator, vibration, tuning, actuator);
    // Parked until 0.1 s, moving to half the gap, parked again after.
    actuator.command(0.5 * params.actuator.initial_gap, 0.1);
    const double arrival = actuator.arrival_time();
    ASSERT_GT(arrival, 0.5);
    std::mt19937_64 rng(7);
    std::uniform_real_distribution<double> time(0.0, arrival + 0.1);
    std::uniform_real_distribution<double> value(-1.0, 1.0);
    expect_exact_declaration(block, [&] {
      Point p{time(rng), std::vector<double>(block.num_states()), {value(rng), value(rng)}};
      for (double& v : p.x) {
        v = value(rng);
      }
      return p;
    });
  }
}

TEST(VaryingJacobianEntries, ElectrostaticGeneratorOnBothSidesOfItsEndStop) {
  const ehsim::harvester::ElectrostaticParams params;
  const ehsim::harvester::VibrationProfile vibration(ehsim::harvester::VibrationParams{});
  const ehsim::harvester::ElectrostaticGenerator block(params, vibration);
  const double g0 = params.nominal_gap;
  const double q0 = params.nominal_capacitance() * params.bias_voltage;
  std::mt19937_64 rng(11);
  // The end stop engages at z = -0.95 g0: about a quarter of the draws.
  std::uniform_real_distribution<double> gap(-1.5 * g0, 0.5 * g0);
  std::uniform_real_distribution<double> charge(0.0, 2.0 * q0);
  std::uniform_real_distribution<double> value(-1.0, 1.0);
  std::size_t at_stop = 0;
  expect_exact_declaration(block, [&] {
    Point p{value(rng), {gap(rng), value(rng), charge(rng)}, {value(rng), value(rng)}};
    at_stop += g0 + p.x[0] <= params.min_gap_fraction * g0 ? 1 : 0;
    return p;
  });
  EXPECT_GT(at_stop, 50u);
}

TEST(VaryingJacobianEntries, PiezoGeneratorIsConstant) {
  const ehsim::harvester::PiezoParams params;
  const ehsim::harvester::VibrationProfile vibration(ehsim::harvester::VibrationParams{});
  const ehsim::harvester::PiezoGenerator block(params, vibration);
  std::mt19937_64 rng(13);
  std::uniform_real_distribution<double> value(-1.0, 1.0);
  expect_exact_declaration(block, [&] {
    return Point{value(rng), {value(rng), value(rng), value(rng)}, {value(rng), value(rng)}};
  });
}

TEST(VaryingJacobianEntries, TheHarvesterScansLinearlyInTheStageCount) {
  // The assembled pattern: the Dickson multiplier's 5 n + 2 (+2 for odd n)
  // conductance entries, Ci(Vi) twice, ks_eff once.
  for (const std::size_t stages : {1u, 5u, 8u, 12u}) {
    HarvesterParams params =
        ehsim::experiments::experiment_params(ehsim::experiments::charging_scenario(1.0));
    params.multiplier.stages = stages;
    ehsim::harvester::HarvesterSystem system(params, ehsim::harvester::DeviceEvalMode::kPwlTable,
                                             false);
    const JacobianPattern& pattern = system.assembler().varying_jacobian_entries();
    EXPECT_EQ(pattern.size(), 5 * stages + 5 + (stages % 2 == 1 ? 2 : 0)) << stages;
    if (stages == 5) {
      // The census of the 11-state model: 32 of 225 entries vary.
      EXPECT_EQ(pattern.size(JacobianBlock::kXX), 26u);
      EXPECT_EQ(pattern.size(JacobianBlock::kXY), 3u);
      EXPECT_EQ(pattern.size(JacobianBlock::kYX), 2u);
      EXPECT_EQ(pattern.size(JacobianBlock::kYY), 1u);
    }
  }
}

// ---- the real march ------------------------------------------------------------

LinearisedSolver& solver_of(HarvesterSession& session) {
  return dynamic_cast<LinearisedSolver&>(session.engine());
}

/// A dense LleMonitor fed every linearisation the solver's own monitor sees.
struct DenseTwin {
  LleMonitor monitor;
  std::uint64_t resets = 0;  // the solver's history_resets at the last sync
  std::vector<double> drifts;
  std::size_t mismatches = 0;

  /// The solver resets its monitor at every discontinuity restart.
  void follow_resets(const LinearisedSolver& s) {
    if (s.stats().history_resets != resets) {
      resets = s.stats().history_resets;
      monitor.reset();
    }
  }
  /// The solver just observed a signature change on s.linearisation().
  void check(const LinearisedSolver& s) {
    const Linearisation& lin = s.linearisation();
    const double drift = monitor.update(lin.jxx, lin.jxy, lin.jyx, lin.jyy);
    if (bits(s.last_lle_drift()) != bits(drift) && mismatches++ == 0) {
      ADD_FAILURE() << "drift update " << drifts.size() << " at t=" << s.time() << ": solver "
                    << s.last_lle_drift() << ", dense monitor " << drift;
    }
    drifts.push_back(drift);
  }
};

/// The solver's own linearisation phase: keep, cache hit, else build.
void own_linearisation(LinearisedSolver& s, bool stable) {
  if (!s.reuse_linearisation(stable)) {
    s.relinearise();
  }
}

/// LinearisedSolver::advance_to spelled out through the public step
/// pipeline, with \p linearise as the linearisation phase and \p twin
/// checked after every drift observation.
template <typename Linearise>
void march(LinearisedSolver& s, double t_end, DenseTwin& twin, Linearise& linearise) {
  s.require_advance(t_end);
  while (true) {
    s.check_for_discontinuity();
    twin.follow_resets(s);
    if (!s.fresh()) {
      const bool stable = s.evaluate();
      linearise(s, stable);
      s.observe_drift(stable);
      if (!stable) {
        twin.check(s);
      }
      s.eliminate();
    }
    s.notify_observers();
    const double remaining = t_end - s.time();
    if (remaining <= 0.0) {
      break;
    }
    if (s.stability_due() && !s.reuse_stability_cap()) {
      s.recompute_stability_cap();
    }
    if (s.snap_sliver(t_end)) {
      continue;
    }
    s.commit_step(s.propose_step(remaining));
  }
}

/// core::MixedSignalSimulator::run_until with march() as the analogue side.
template <typename Linearise = decltype(&own_linearisation)>
void cosimulate(HarvesterSession& session, double t_end, DenseTwin& twin,
                Linearise linearise = &own_linearisation) {
  LinearisedSolver& s = solver_of(session);
  ehsim::digital::Kernel* kernel = session.session().kernel();
  while (s.time() < t_end) {
    double target = t_end;
    if (kernel != nullptr) {
      if (const auto next = kernel->next_event_time()) {
        target = std::min(*next, t_end);
      }
    }
    if (target > s.time()) {
      march(s, target, twin, linearise);
    }
    if (kernel != nullptr) {
      kernel->run_until(target);
    }
    if (target >= t_end) {
      break;
    }
  }
}

/// One checked-in spec file and the experiments it runs on the proposed
/// engine: itself, its sweep points or ensemble replicas, or the base of an
/// optimise/autotune spec.
struct SpecJobs {
  std::string file;
  std::vector<ExperimentSpec> jobs;
};

std::vector<SpecJobs> checked_in_specs() {
  using ehsim::io::overloaded;
  namespace ex = ehsim::experiments;
  std::vector<SpecJobs> specs;
  for (const std::string_view dir : {"/examples/specs", "/tests/golden"}) {
    for (const auto& entry :
         std::filesystem::directory_iterator(std::string(EHSIM_SOURCE_DIR) + std::string(dir))) {
      const std::string name = entry.path().filename().string();
      if (entry.path().extension() != ".json" ||
          (dir == "/tests/golden" && !name.starts_with("golden_"))) {
        continue;  // tests/golden also holds expected outputs
      }
      SpecJobs spec{name, {}};
      ehsim::io::load_spec_file(entry.path().string())
          .dispatch(overloaded{
              [&](const ExperimentSpec& e) { spec.jobs.push_back(e); },
              [&](const ex::SweepSpec& s) { spec.jobs = s.expand(); },
              [&](const ex::EnsembleSpec& e) { spec.jobs = e.expand(); },
              [&](const ex::OptimiseSpec& o) { spec.jobs.push_back(o.base); },
              [&](const ex::AutotuneSpec& a) { spec.jobs.push_back(a.base); },
          });
      std::erase_if(spec.jobs, [](const ExperimentSpec& job) {
        return job.engine != ex::EngineKind::kProposed;
      });
      specs.push_back(std::move(spec));
    }
  }
  std::sort(specs.begin(), specs.end(),
            [](const SpecJobs& a, const SpecJobs& b) { return a.file < b.file; });
  return specs;
}

/// Each checked-in job is marched this far (the MCU's first wake-up is at
/// 60 s; eventful_scenario1 covers its epochs).
constexpr double kHorizon = 1.0;

/// examples/specs/scenario1.json with its MCU events brought into a 2 s
/// window: wake-ups every 0.25 s, and the frequency step moved from 60 s to
/// 0.5 s so the MCU retunes (awake and tuning loads, a moving actuator).
ExperimentSpec eventful_scenario1(double step_hz = 71.0) {
  ExperimentSpec spec = *ehsim::io::load_spec_file(std::string(EHSIM_SOURCE_DIR) +
                                                   "/examples/specs/scenario1.json")
                             .get_if<ExperimentSpec>();
  spec.duration = 2.0;
  spec.excitation.events.at(0).time = 0.5;
  spec.excitation.events.at(0).frequency_hz = step_hz;
  spec.overrides.push_back(ehsim::experiments::ParamOverride{"mcu.watchdog_period", 0.25});
  return spec;
}

TEST(SparseLle, DriftMatchesADenseMonitorOnEveryCheckedInSpec) {
  std::size_t jobs = 0;
  for (const SpecJobs& spec : checked_in_specs()) {
    for (const ExperimentSpec& job : spec.jobs) {
      HarvesterSession session = ehsim::experiments::make_experiment_session(job);
      session.initialise(0.0);
      DenseTwin twin;
      cosimulate(session, std::min(job.duration, kHorizon), twin);
      EXPECT_EQ(twin.mismatches, 0u) << spec.file << ": " << job.name;
      EXPECT_GT(twin.drifts.size(), 1000u) << spec.file << ": " << job.name;
      ++jobs;
    }
  }
  EXPECT_GE(jobs, 30u);
}

TEST(SparseLle, DriftMatchesADenseMonitorThroughMcuEpochs) {
  const ExperimentSpec spec = eventful_scenario1();
  HarvesterSession session = ehsim::experiments::make_experiment_session(spec);
  session.initialise(0.0);
  DenseTwin twin;
  std::size_t actuator_moving = 0;
  cosimulate(session, spec.duration, twin, [&](LinearisedSolver& s, bool stable) {
    own_linearisation(s, stable);
    actuator_moving += ehsim::core::LinearisationCache::cacheable(s.jacobian_signature()) ? 0 : 1;
  });
  EXPECT_EQ(twin.mismatches, 0u);
  // Wake-ups, sleeps and the retune's tuning load and actuator start/stop.
  EXPECT_GE(solver_of(session).stats().history_resets, 8u);
  EXPECT_GT(actuator_moving, 100u);
}

TEST(SparseLle, DriftMatchesADenseMonitorAcrossACheckpointCut) {
  const ExperimentSpec spec = eventful_scenario1();
  HarvesterSession straight = ehsim::experiments::make_experiment_session(spec);
  straight.initialise(0.0);
  DenseTwin straight_twin;
  cosimulate(straight, 0.55, straight_twin);  // mid-retune
  const ehsim::sim::Checkpoint checkpoint = straight.session().save_checkpoint();
  const std::size_t before_cut = straight_twin.drifts.size();

  HarvesterSession restored = ehsim::experiments::make_experiment_session(spec);
  restored.initialise(0.0);
  restored.restore_checkpoint(checkpoint);
  const LinearisedSolver& s = solver_of(restored);
  DenseTwin restored_twin;
  restored_twin.monitor.restore_checkpoint_state(checkpoint.payload.at("engine").at("lle"),
                                                 s.state().size(), s.terminals().size());
  restored_twin.resets = s.stats().history_resets;

  cosimulate(straight, spec.duration, straight_twin);
  cosimulate(restored, spec.duration, restored_twin);
  EXPECT_EQ(straight_twin.mismatches, 0u);
  EXPECT_EQ(restored_twin.mismatches, 0u);
  ASSERT_EQ(restored_twin.drifts.size(), straight_twin.drifts.size() - before_cut);
  EXPECT_TRUE(std::equal(restored_twin.drifts.begin(), restored_twin.drifts.end(),
                         straight_twin.drifts.begin() + static_cast<std::ptrdiff_t>(before_cut)));
  const auto a = straight.state();
  const auto b = restored.state();
  EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()));
}

TEST(SparseLle, DriftMatchesADenseMonitorAcrossAFork) {
  // A batch's prefix fork: a snapshot without a cut, restored into a fresh
  // session together with the leader's cache. The follower's monitor starts
  // from the document and scans every entry first; its drift must still
  // equal the leader's, update for update.
  const ExperimentSpec spec = eventful_scenario1();
  HarvesterSession leader = ehsim::experiments::make_experiment_session(spec);
  leader.initialise(0.0);
  DenseTwin leader_twin;
  cosimulate(leader, 0.55, leader_twin);  // mid-retune
  const ehsim::sim::Checkpoint snapshot = leader.session().snapshot();
  const LinearisedSolver::LinearisationTransplant carried =
      solver_of(leader).linearisation_transplant();
  ASSERT_GT(carried.cache.size(), 0u);
  const std::size_t before_fork = leader_twin.drifts.size();

  HarvesterSession follower = ehsim::experiments::make_experiment_session(spec);
  follower.initialise(0.0);
  follower.restore_checkpoint(snapshot);
  LinearisedSolver& s = solver_of(follower);
  s.transplant(carried);
  DenseTwin follower_twin;
  follower_twin.monitor.restore_checkpoint_state(snapshot.payload.at("engine").at("lle"),
                                                 s.state().size(), s.terminals().size());
  follower_twin.resets = s.stats().history_resets;

  cosimulate(leader, spec.duration, leader_twin);
  cosimulate(follower, spec.duration, follower_twin);
  EXPECT_EQ(leader_twin.mismatches, 0u);
  EXPECT_EQ(follower_twin.mismatches, 0u);
  ASSERT_EQ(follower_twin.drifts.size(), leader_twin.drifts.size() - before_fork);
  EXPECT_TRUE(std::equal(follower_twin.drifts.begin(), follower_twin.drifts.end(),
                         leader_twin.drifts.begin() + static_cast<std::ptrdiff_t>(before_fork)));
  const auto a = leader.state();
  const auto b = follower.state();
  EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()));
  EXPECT_EQ(solver_of(leader).stats().jacobian_builds, s.stats().jacobian_builds);
}

// ---- a restore that disagrees with the model ----------------------------------

/// Flip the sign of every entry of \p m (the \p block of the Jacobians)
/// that \p pattern does not declare varying: the result disagrees with the
/// model's constants.
void flip_undeclared(Matrix& m, const JacobianPattern& pattern, JacobianBlock block) {
  const auto b = static_cast<std::size_t>(block);
  std::set<std::uint32_t> declared;
  std::size_t begin = pattern.first_row(b) == 0 ? 0 : pattern.rows()[pattern.first_row(b) - 1].end;
  for (std::size_t k = pattern.first_row(b); k < pattern.first_row(b + 1); ++k) {
    for (std::size_t i = begin; i < pattern.rows()[k].end; ++i) {
      declared.insert(pattern.indices()[i]);
    }
    begin = pattern.rows()[k].end;
  }
  for (std::uint32_t i = 0; i < m.rows() * m.cols(); ++i) {
    if (!declared.contains(i)) {
      m.data()[i] = -m.data()[i];
    }
  }
}

HarvesterSession charging_session(const HarvesterParams& params) {
  HarvesterSession session(params);
  session.initialise(0.0);
  return session;
}

HarvesterParams charging_params() {
  return ehsim::experiments::experiment_params(ehsim::experiments::charging_scenario(1.0));
}

/// The member \p key of JSON object \p object.
ehsim::io::JsonValue& member(ehsim::io::JsonValue& object, const std::string& key) {
  for (auto& [name, value] : object.as_object()) {
    if (name == key) {
      return value;
    }
  }
  throw ehsim::ModelError("test: no member '" + key + "'");
}

TEST(SparseLle, ARestoredMonitorScansDenselyFirst) {
  // The restored previous Jyx disagrees with the model in its undeclared
  // entries: the first drift after the restore must see it.
  HarvesterSession straight = charging_session(charging_params());
  const JacobianPattern& pattern = straight.system().assembler().varying_jacobian_entries();
  DenseTwin twin;
  cosimulate(straight, 0.1, twin);
  ehsim::sim::Checkpoint checkpoint = straight.session().save_checkpoint();
  ehsim::io::JsonValue& lle = member(member(checkpoint.payload, "engine"), "lle");
  Matrix prev_jyx = ehsim::io::matrix_from_json(lle.at("prev_jyx"), "prev_jyx");
  flip_undeclared(prev_jyx, pattern, JacobianBlock::kYX);
  lle.set("prev_jyx", ehsim::io::matrix_to_json(prev_jyx));

  // Restore into a session that has marched, so its monitor had settled
  // into scanning the pattern.
  HarvesterSession restored = charging_session(charging_params());
  restored.run_until(0.05);
  restored.restore_checkpoint(checkpoint);
  const LinearisedSolver& s = solver_of(restored);
  DenseTwin restored_twin;
  restored_twin.monitor.restore_checkpoint_state(lle, s.state().size(), s.terminals().size());
  restored_twin.resets = s.stats().history_resets;
  cosimulate(restored, 0.2, restored_twin);
  EXPECT_EQ(restored_twin.mismatches, 0u);
  ASSERT_FALSE(restored_twin.drifts.empty());
  EXPECT_EQ(restored_twin.drifts.front(), 2.0);
}

}  // namespace
