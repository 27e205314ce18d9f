/// \file test_step_pass_parity.cpp
/// \brief The one-pass phases of the linearised engine's step equal the
/// two-pass arithmetic they replace, bit for bit.
///
/// * evaluate: AnalogBlock::eval_with_signature against eval() plus
///   jacobian_signature() on every block, and the Dickson multiplier against
///   the per-diode formulas it fused (two node voltages and two table
///   lookups per diode); SystemAssembler::eval_with_signature against a twin
///   assembler making the two calls, kAlwaysRebuild blocks included;
/// * eliminate (Eq. 4): LuFactorization::solve_nonzeros and
///   SparseRows::multiply_add against the dense solve and the dense Jxy
///   product, on every linearisation the Table I run steps with.
///
/// The closed-form AB coefficients and the step controller's zero-drift
/// factor are checked in test_ode_ab_coefficients and test_ode_step_control,
/// the non-zero LU solve on random matrices in test_linalg_lu.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "core/assembler.hpp"
#include "core/linearised_solver.hpp"
#include "experiments/scenarios.hpp"
#include "harvester/dickson_multiplier.hpp"
#include "harvester/electrostatic_generator.hpp"
#include "harvester/harvester_system.hpp"
#include "harvester/microgenerator.hpp"
#include "harvester/piezo_generator.hpp"
#include "harvester/supercapacitor.hpp"
#include "harvester/tuning.hpp"
#include "harvester/vibration_source.hpp"
#include "sim/harvester_session.hpp"
#include "support/test_blocks.hpp"

namespace {

using ehsim::core::AnalogBlock;
using ehsim::harvester::DeviceEvalMode;
using ehsim::harvester::DicksonMultiplier;
using ehsim::harvester::HarvesterParams;

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

void expect_bits_equal(std::span<const double> a, std::span<const double> b,
                       const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(bits(a[i]), bits(b[i])) << what << " entry " << i << ": " << a[i] << " vs "
                                      << b[i];
  }
}

/// A point (t, x, y) of one block.
struct Point {
  double t = 0.0;
  std::vector<double> x;
  std::vector<double> y;
};

/// eval_with_signature at \p p against eval() then jacobian_signature().
void expect_one_pass(const AnalogBlock& block, const Point& p) {
  const double poison = std::numeric_limits<double>::quiet_NaN();
  std::vector<double> fx1(block.num_states(), poison), fy1(block.num_algebraic(), poison);
  std::vector<double> fx2(fx1), fy2(fy1);
  const std::uint64_t one_pass = block.eval_with_signature(p.t, p.x, p.y, fx1, fy1);
  block.eval(p.t, p.x, p.y, fx2, fy2);
  EXPECT_EQ(one_pass, block.jacobian_signature(p.t, p.x, p.y)) << block.name();
  expect_bits_equal(fx1, fx2, block.name() + " fx");
  expect_bits_equal(fy1, fy2, block.name() + " fy");
}

// ---- evaluate: the Dickson multiplier ------------------------------------------

/// The multiplier's residuals and signature as the two-pass code formed
/// them: each diode voltage from two node voltages, each node voltage once
/// per adjacent diode, (G, J) and the conductance band from two lookups.
struct TwoPassDickson {
  const DicksonMultiplier& block;

  [[nodiscard]] double node(std::span<const double> x, std::size_t i) const {
    const double phase = i % 2 == 1 ? 1.0 : 0.0;
    return i == 0 ? 0.0 : x[i - 1] + phase * x[block.stages()];
  }
  [[nodiscard]] double diode_voltage(std::size_t index, std::span<const double> x,
                                     std::span<const double> y) const {
    const std::size_t n = block.stages();
    return index <= n ? node(x, index - 1) - node(x, index)
                      : node(x, n) - y[DicksonMultiplier::kVc];
  }

  void eval(std::span<const double> x, std::span<const double> y, std::span<double> fx,
            std::span<double> fy) const {
    const std::size_t n = block.stages();
    std::vector<double> id(n + 1);
    for (std::size_t i = 1; i <= n + 1; ++i) {
      const double vd = diode_voltage(i, x, y);
      if (block.mode() == DeviceEvalMode::kPwlTable) {
        const auto affine = block.table().conductance_and_source(vd);
        id[i - 1] = affine.slope * vd + affine.intercept;
      } else {
        id[i - 1] = ehsim::pwl::diode_current(block.params().diode, vd);
      }
    }
    const double c = block.params().stage_capacitance;
    for (std::size_t i = 1; i <= n; ++i) {
      fx[i - 1] = (id[i - 1] - id[i]) / c;
    }
    double pump_sum = 0.0;
    for (std::size_t i = 1; i <= n; i += 2) {
      pump_sum += id[i - 1] - id[i];
    }
    fx[n] = (y[DicksonMultiplier::kIm] + pump_sum) / block.params().input_filter_capacitance;
    fy[0] = y[DicksonMultiplier::kVm] - x[n];
    fy[1] = y[DicksonMultiplier::kIc] - id[n];
  }

  [[nodiscard]] std::uint64_t signature(std::span<const double> x,
                                        std::span<const double> y) const {
    if (block.mode() != DeviceEvalMode::kPwlTable) {
      return AnalogBlock::kAlwaysRebuild;
    }
    std::uint64_t hash = 1469598103934665603ull;
    for (std::size_t i = 1; i <= block.stages() + 1; ++i) {
      hash ^= block.table().conductance_band(diode_voltage(i, x, y)) + 1;
      hash *= 1099511628211ull;
    }
    return hash;
  }
};

/// Diode voltages that sit on the table's segment and band edges, one ulp
/// either side of them, and off the table at both ends.
std::vector<double> edge_voltages(const DicksonMultiplier& block) {
  const auto& table = block.table();
  const double v_min = block.params().table_v_min;
  const double dx = (table.v_max() - v_min) / static_cast<double>(table.segments());
  std::vector<double> edges;
  auto add = [&](double v) {
    edges.push_back(v);
    edges.push_back(std::nextafter(v, -1e9));
    edges.push_back(std::nextafter(v, 1e9));
  };
  for (std::size_t k = 0; k <= table.segments(); ++k) {
    const double v = v_min + dx * static_cast<double>(k);
    const bool band_edge =
        k > 0 && k < table.segments() &&
        table.conductance_band(v - 0.5 * dx) != table.conductance_band(v + 0.5 * dx);
    // Every band edge; a sample of the plain segment edges.
    if (band_edge || k % 7 == 0 || k == table.segments()) {
      add(v);
    }
  }
  add(v_min - 1.0);
  add(table.v_max() + 0.5);
  return edges;
}

TEST(OnePass, DicksonMultiplierMatchesItsTwoPassFormulas) {
  for (const DeviceEvalMode mode : {DeviceEvalMode::kPwlTable, DeviceEvalMode::kExactShockley}) {
    for (const std::size_t stages : {1u, 2u, 3u, 5u, 8u}) {
      ehsim::harvester::MultiplierParams params;
      params.stages = stages;
      const DicksonMultiplier block(params, mode);
      const TwoPassDickson two_pass{block};
      const std::vector<double> edges = edge_voltages(block);
      std::mt19937_64 rng(stages * 2 + (mode == DeviceEvalMode::kPwlTable ? 0 : 1));
      std::uniform_real_distribution<double> volts(params.table_v_min - 0.5,
                                                   block.table().v_max() + 0.5);
      std::uniform_real_distribution<double> amps(-1e-2, 1e-2);
      std::uniform_int_distribution<std::size_t> pick(0, edges.size() - 1);
      std::bernoulli_distribution on_edge(0.5);
      std::size_t edge_hits = 0;
      for (int k = 0; k < 2000; ++k) {
        // Choose the diode voltages, then the states and Vc that give them
        // (the one-pass chain rounds them by at most an ulp or so).
        const double vf = k % 4 == 0 ? 0.0 : volts(rng);
        Point p{0.0, std::vector<double>(stages + 1), std::vector<double>(4)};
        double node = 0.0;
        for (std::size_t i = 1; i <= stages + 1; ++i) {
          const bool edge = on_edge(rng);
          edge_hits += edge ? 1 : 0;
          node -= edge ? edges[pick(rng)] : volts(rng);
          if (i <= stages) {
            p.x[i - 1] = node - (i % 2 == 1 ? 1.0 : 0.0) * vf;
          } else {
            p.y[DicksonMultiplier::kVc] = node;
          }
        }
        p.x[stages] = vf;
        p.y[DicksonMultiplier::kVm] = volts(rng);
        p.y[DicksonMultiplier::kIm] = amps(rng);
        p.y[DicksonMultiplier::kIc] = amps(rng);

        expect_one_pass(block, p);
        std::vector<double> fx(stages + 1), fy(2), fx_ref(stages + 1), fy_ref(2);
        const std::uint64_t signature = block.eval_with_signature(0.0, p.x, p.y, fx, fy);
        two_pass.eval(p.x, p.y, fx_ref, fy_ref);
        ASSERT_EQ(signature, two_pass.signature(p.x, p.y)) << stages << " stages, point " << k;
        expect_bits_equal(fx, fx_ref, "fx");
        expect_bits_equal(fy, fy_ref, "fy");
        if (HasFatalFailure()) {
          return;
        }
      }
      EXPECT_GT(edge_hits, 1000u);
    }
  }
}

// ---- evaluate: the other blocks -----------------------------------------------

TEST(OnePass, MicrogeneratorParkedAndWithTheActuatorMoving) {
  for (const double coil_inductance : {0.0, 5e-3}) {
    const HarvesterParams params;
    const ehsim::harvester::VibrationProfile vibration(params.vibration);
    const ehsim::harvester::TuningMechanism tuning(params.tuning, params.generator);
    ehsim::harvester::LinearActuator actuator(params.actuator, params.tuning);
    ehsim::harvester::MicrogeneratorParams generator = params.generator;
    generator.coil_inductance = coil_inductance;
    const ehsim::harvester::Microgenerator block(generator, vibration, tuning, actuator);
    actuator.command(0.5 * params.actuator.initial_gap, 0.1);
    const double arrival = actuator.arrival_time();
    std::mt19937_64 rng(3);
    std::uniform_real_distribution<double> time(0.0, arrival + 0.1);
    std::uniform_real_distribution<double> value(-1.0, 1.0);
    std::size_t moving = 0;
    for (int k = 0; k < 1000; ++k) {
      Point p{time(rng), std::vector<double>(block.num_states()), {value(rng), value(rng)}};
      for (double& v : p.x) {
        v = value(rng);
      }
      moving += actuator.moving(p.t) ? 1 : 0;
      expect_one_pass(block, p);
    }
    EXPECT_GT(moving, 100u);
    EXPECT_LT(moving, 1000u);
  }
}

TEST(OnePass, SupercapacitorInEachLoadMode) {
  using ehsim::harvester::LoadMode;
  const HarvesterParams params;
  for (const LoadMode mode : {LoadMode::kSleep, LoadMode::kAwake, LoadMode::kTuning}) {
    ehsim::harvester::Supercapacitor block(params.supercap, params.load);
    block.set_load_mode(mode);
    std::mt19937_64 rng(static_cast<std::uint64_t>(mode) + 1);
    std::uniform_real_distribution<double> volts(0.0, 5.0);
    std::uniform_real_distribution<double> amps(-1e-3, 1e-3);
    for (int k = 0; k < 1000; ++k) {
      expect_one_pass(block, Point{0.0, {volts(rng), volts(rng), volts(rng)},
                                   {volts(rng), amps(rng)}});
    }
  }
}

TEST(OnePass, ElectrostaticPiezoAndADefaultBlock) {
  const ehsim::harvester::VibrationProfile vibration(ehsim::harvester::VibrationParams{});
  const ehsim::harvester::ElectrostaticParams electrostatic_params;
  const ehsim::harvester::ElectrostaticGenerator electrostatic(electrostatic_params, vibration);
  const ehsim::harvester::PiezoGenerator piezo(ehsim::harvester::PiezoParams{}, vibration);
  const ehsim::testing::CapacitorBlock capacitor(1e-6, 0.5);
  const double g0 = electrostatic_params.nominal_gap;
  std::mt19937_64 rng(5);
  std::uniform_real_distribution<double> value(-1.0, 1.0);
  std::uniform_real_distribution<double> gap(-1.5 * g0, 0.5 * g0);
  for (int k = 0; k < 1000; ++k) {
    expect_one_pass(electrostatic, Point{value(rng), {gap(rng), value(rng), value(rng) * 1e-9},
                                         {value(rng), value(rng)}});
    expect_one_pass(piezo, Point{value(rng), {value(rng), value(rng), value(rng)},
                                 {value(rng), value(rng)}});
    expect_one_pass(capacitor, Point{value(rng), {value(rng)}, {value(rng), value(rng)}});
  }
}

// ---- evaluate: the assembler --------------------------------------------------

/// Two identical harvesters, one evaluated in one pass and one by the two
/// calls, agree call for call: the same residuals and signatures, and while
/// the generator (the first block) reports kAlwaysRebuild the same strictly
/// increasing fresh counter values, with the blocks after it still
/// evaluated.
TEST(OnePass, AssemblerMatchesEvalThenJacobianSignature) {
  HarvesterParams params =
      ehsim::experiments::experiment_params(ehsim::experiments::charging_scenario(1.0));
  ehsim::harvester::HarvesterSystem one_pass(params, DeviceEvalMode::kPwlTable, false);
  ehsim::harvester::HarvesterSystem two_calls(params, DeviceEvalMode::kPwlTable, false);
  for (auto* system : {&one_pass, &two_calls}) {
    system->actuator().command(0.5 * params.actuator.initial_gap, 0.1);
  }
  const double arrival = one_pass.actuator().arrival_time();
  const auto& a = one_pass.assembler();
  const auto& b = two_calls.assembler();
  const std::size_t n = a.num_states();
  const std::size_t m = a.num_nets();
  std::mt19937_64 rng(17);
  std::uniform_real_distribution<double> time(0.0, arrival + 0.1);
  std::uniform_real_distribution<double> volts(-2.0, 2.0);
  std::uniform_real_distribution<double> amps(-1e-2, 1e-2);
  std::uint64_t last_fresh = 0;
  std::size_t fresh = 0;
  for (int k = 0; k < 2000; ++k) {
    const double t = k % 3 == 0 ? 0.05 : time(rng);  // parked before 0.1 s
    std::vector<double> x(n), y(m);
    for (double& v : x) {
      v = volts(rng);
    }
    y[one_pass.vm_index()] = volts(rng);
    y[one_pass.vc_index()] = volts(rng);
    y[one_pass.im_index()] = amps(rng);
    y[one_pass.ic_index()] = amps(rng);
    const double poison = std::numeric_limits<double>::quiet_NaN();
    std::vector<double> fx1(n, poison), fy1(m, poison), fx2(n, poison), fy2(m, poison);
    const std::uint64_t signature = a.eval_with_signature(t, x, y, fx1, fy1);
    b.eval(t, x, y, fx2, fy2);
    ASSERT_EQ(signature, b.jacobian_signature(t, x, y)) << "t = " << t;
    expect_bits_equal(fx1, fx2, "fx");
    expect_bits_equal(fy1, fy2, "fy");
    if (!ehsim::core::LinearisationCache::cacheable(signature)) {
      ASSERT_GT(signature, last_fresh);
      last_fresh = signature;
      ++fresh;
    }
  }
  EXPECT_GT(fresh, 100u);
  EXPECT_LT(fresh, 2000u);
}

// ---- eliminate (Eq. 4) ---------------------------------------------------------

/// At every point of the Table I run, the current linearisation's non-zero
/// Jyy solve and Jxy product equal the dense ones for the point's own
/// right-hand side -fy, the same with entries replaced by +0 and -0, and a
/// random one.
TEST(Eq4Elimination, NonzerosMatchDenseOnEveryTable1Linearisation) {
  using ehsim::linalg::Matrix;
  ehsim::sim::HarvesterSession session(
      ehsim::experiments::experiment_params(ehsim::experiments::charging_scenario(1.0)));
  auto& solver = dynamic_cast<ehsim::core::LinearisedSolver&>(session.engine());
  const auto& system = session.session().engine().system();
  const std::size_t n = system.num_states();
  const std::size_t m = system.num_nets();
  std::mt19937_64 rng(23);
  std::uniform_real_distribution<double> value(-1.0, 1.0);
  std::bernoulli_distribution zero(0.3);
  std::vector<double> fx(n), fy(m), rhs(m), dense(m), nonzeros(m);
  std::vector<double> f_dense(n), f_nonzeros(n);
  std::size_t points = 0;
  std::size_t zero_entries = 0;
  session.add_observer([&](double t, std::span<const double> x, std::span<const double> y) {
    const ehsim::core::Linearisation& lin = solver.linearisation();
    system.eval(t, x, y, fx, fy);
    for (int variant = 0; variant < 3; ++variant) {
      for (std::size_t i = 0; i < m; ++i) {
        rhs[i] = variant == 2 ? value(rng) : -fy[i];
        if (variant == 1 && zero(rng)) {
          rhs[i] = value(rng) < 0.0 ? -0.0 : 0.0;
          ++zero_entries;
        }
      }
      lin.jyy_lu.solve(rhs, dense);
      lin.jyy_lu.solve_nonzeros(rhs, nonzeros);
      expect_bits_equal(dense, nonzeros, "Jyy solve at t = " + std::to_string(t));
      for (std::size_t r = 0; r < n; ++r) {
        double acc = 0.0;
        for (std::size_t c = 0; c < m; ++c) {
          acc += lin.jxy(r, c) * dense[c];
        }
        f_dense[r] = fx[r] + acc;
        f_nonzeros[r] = fx[r];
      }
      lin.jxy_nonzeros.multiply_add(dense, f_nonzeros);
      expect_bits_equal(f_dense, f_nonzeros, "Jxy product at t = " + std::to_string(t));
    }
    ++points;
  });
  session.initialise(0.0);
  session.run_until(1.0);
  EXPECT_GT(points, 20000u);
  EXPECT_GT(solver.stats().jacobian_builds, 500u);
  EXPECT_GT(zero_entries, 10000u);
}

}  // namespace
