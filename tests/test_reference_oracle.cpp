/// \file test_reference_oracle.cpp
/// \brief The extended-precision reference oracle against closed forms.
///
/// Two layers of evidence that src/ref is fit to judge the fast engines:
///   1. The compensated accumulator survives pathological cancellation that
///      provably defeats naive double (and classic Kahan) summation — the
///      bit-level foundation.
///   2. The ReferenceEngine integrator reproduces analytic solutions
///      (decaying RC, sinusoidally driven RC, damped oscillator) to
///      tolerances at the discretisation limit, converges at the trapezoid's
///      O(h^2), and honours the engine contract (stats, observers,
///      checkpoint refusal).
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <span>
#include <vector>

#include "common/error.hpp"
#include "core/assembler.hpp"
#include "ref/compensated.hpp"
#include "ref/reference_engine.hpp"
#include "support/test_blocks.hpp"

namespace {

using ehsim::ModelError;
using ehsim::core::SystemAssembler;
using ehsim::ref::BasicCompensatedAccumulator;
using ehsim::ref::ReferenceConfig;
using ehsim::ref::ReferenceEngine;
using ehsim::testing::CapacitorBlock;
using ehsim::testing::OscillatorBlock;
using ehsim::testing::SourceResistorBlock;

// ---- compensated summation ------------------------------------------------

TEST(CompensatedAccumulator, RecoversBitsLostToCatastrophicCancellation) {
  // 1e16 + 1.0 rounds away the 1.0 in double (ulp(1e16) = 2): a naive sum of
  // 1e16, then 1.0 a thousand times, then -1e16 keeps almost nothing of the
  // thousand. The compensation term carries every lost bit.
  BasicCompensatedAccumulator<double> acc;
  acc.add(1e16);
  for (int i = 0; i < 1000; ++i) {
    acc.add(1.0);
  }
  acc.add(-1e16);
  EXPECT_DOUBLE_EQ(acc.value(), 1000.0);
  // The raw (naive) running sum demonstrably lost mass.
  EXPECT_NE(acc.raw_sum(), 1000.0);
  EXPECT_GT(std::fabs(acc.raw_sum() - 1000.0), 100.0);
}

TEST(CompensatedAccumulator, NeumaierHandlesAddendLargerThanSum) {
  // The classic Kahan counter-example: [1, huge, 1, -huge] sums to 2.
  // Kahan's compensation derives from the *sum*, so the huge addend wipes
  // it; Neumaier branches on which operand is larger and stays exact.
  BasicCompensatedAccumulator<double> acc;
  acc.add(1.0);
  acc.add(1e100);
  acc.add(1.0);
  acc.add(-1e100);
  EXPECT_DOUBLE_EQ(acc.value(), 2.0);
  EXPECT_DOUBLE_EQ(acc.raw_sum(), 0.0);  // naive summation loses everything
}

TEST(CompensatedAccumulator, MillionsOfSubUlpIncrementsStayExact) {
  // The oracle's actual workload shape: a state near 2.5 V accumulating
  // per-step increments far below its ulp (2^-51). Naive addition rounds
  // every single increment of 2^-60 away — 2.5 + 2^-60 IS 2.5 in double —
  // while the compensation term collects them until they amount to a
  // representable 2^-40.
  const double increment = std::ldexp(1.0, -60);
  const int n = 1 << 20;
  BasicCompensatedAccumulator<double> acc(2.5);
  double naive = 2.5;
  for (int i = 0; i < n; ++i) {
    acc.add(increment);
    naive += increment;
  }
  const double exact = 2.5 + std::ldexp(1.0, -40);  // representable exactly
  EXPECT_DOUBLE_EQ(acc.value(), exact);
  EXPECT_DOUBLE_EQ(naive, 2.5);  // naive summation never moved at all
}

TEST(CompensatedAccumulator, ResetClearsCompensation) {
  BasicCompensatedAccumulator<double> acc;
  acc.add(1e16);
  acc.add(1.0);
  acc.reset(5.0);
  EXPECT_DOUBLE_EQ(acc.value(), 5.0);
  EXPECT_DOUBLE_EQ(acc.compensation(), 0.0);
}

TEST(CompensatedSum, SpanHelpersMatchTheAccumulator) {
  const std::vector<double> values = {1.0, 1e100, 1.0, -1e100};
  EXPECT_DOUBLE_EQ(ehsim::ref::compensated_sum<double>(values), 2.0);
  const std::vector<double> a = {1e8, 1.0, -1e8};
  const std::vector<double> b = {1e8, 1.0, 1e8};
  // <a, b> = 1e16 + 1 - 1e16 = 1 — pure cancellation across products.
  EXPECT_DOUBLE_EQ(ehsim::ref::compensated_dot<double>(a, b), 1.0);
}

// ---- the reference integrator vs closed forms ------------------------------

/// Series RC driven by Vs(t) through R into a grounded capacitor C.
struct RcOracle {
  SystemAssembler assembler;
  std::unique_ptr<ReferenceEngine> engine;

  RcOracle(std::function<double(double)> vs, double r, double c, double vc0,
           ReferenceConfig config) {
    const auto source = assembler.add_block(
        std::make_unique<SourceResistorBlock>(std::move(vs), r));
    const auto cap = assembler.add_block(std::make_unique<CapacitorBlock>(c, vc0));
    const auto v = assembler.net("V");
    const auto i = assembler.net("I");
    assembler.bind(source, 0, v);
    assembler.bind(source, 1, i);
    assembler.bind(cap, 0, v);
    assembler.bind(cap, 1, i);
    assembler.elaborate();
    engine = std::make_unique<ReferenceEngine>(assembler, config);
    engine->initialise(0.0);
  }

  [[nodiscard]] double vc() const { return engine->state()[0]; }
};

/// Max relative error of the oracle vc against vc(t) = Vs + (vc0-Vs)e^{-t/RC},
/// sampled at \p checks points over \p duration.
double rc_decay_error(double h, double duration, int checks) {
  const double r = 10.0;
  const double c = 0.05;  // tau = 0.5 s
  const double vs = 1.0;
  const double vc0 = 2.5;
  ReferenceConfig config;
  config.fixed_step = h;
  RcOracle rc([vs](double) { return vs; }, r, c, vc0, config);
  double worst = 0.0;
  for (int k = 1; k <= checks; ++k) {
    const double t = duration * k / checks;
    rc.engine->advance_to(t);
    const double exact = vs + (vc0 - vs) * std::exp(-t / (r * c));
    worst = std::max(worst, std::fabs(rc.vc() - exact) / std::fabs(exact));
  }
  return worst;
}

TEST(ReferenceOracle, RcDecayMatchesClosedFormAtDiscretisationLimit) {
  // tau = 0.5 s marched for two time constants at h = 1e-4: 10k trapezoid
  // steps. Global error must sit at the h^2 discretisation scale (measured
  // 1.3e-9) with no roundoff floor on top — a naive double accumulation of
  // 10k steps would already contribute ~1e-12 of drift; the compensated
  // long double state keeps the h^2 term the only one visible.
  EXPECT_LT(rc_decay_error(1e-4, 1.0, 8), 3e-9);
}

TEST(ReferenceOracle, RcDecayConvergesAtSecondOrder) {
  const double coarse = rc_decay_error(4e-4, 1.0, 4);
  const double fine = rc_decay_error(1e-4, 1.0, 4);
  // Trapezoid halving error by 16x for a 4x step refinement; allow slack
  // for the sampling of the max but insist on clearly-better-than-first
  // order (> 6x) and no superstitious exactness (< 30x).
  EXPECT_GT(coarse / fine, 6.0);
  EXPECT_LT(coarse / fine, 30.0);
}

TEST(ReferenceOracle, DrivenRcMatchesPhasorSolution) {
  // vc' = (A sin(w t) - vc)/tau from vc0 = 0:
  //   vc(t) = A [sin(w t) - w tau cos(w t) + w tau e^{-t/tau}] / (1+(w tau)^2).
  const double r = 100.0;
  const double c = 1e-4;  // tau = 10 ms
  const double tau = r * c;
  const double amplitude = 0.75;
  const double omega = 2.0 * M_PI * 50.0;
  ReferenceConfig config;
  config.fixed_step = 2e-6;  // 10k steps per 50 Hz period
  RcOracle rc([amplitude, omega](double t) { return amplitude * std::sin(omega * t); }, r,
              c, 0.0, config);
  const double wt = omega * tau;
  const double denom = 1.0 + wt * wt;
  for (int k = 1; k <= 6; ++k) {
    const double t = 0.01 * k;  // through the transient into steady state
    rc.engine->advance_to(t);
    const double exact = amplitude *
                         (std::sin(omega * t) - wt * std::cos(omega * t) +
                          wt * std::exp(-t / tau)) /
                         denom;
    EXPECT_NEAR(rc.vc(), exact, amplitude * 2e-8) << "t = " << t;
  }
}

TEST(ReferenceOracle, DampedOscillatorMatchesClosedForm) {
  // x'' + 2 zeta w x' + w^2 x = 0, x(0) = x0, x'(0) = 0:
  //   x(t) = x0 e^{-zeta w t} [cos(wd t) + (zeta w / wd) sin(wd t)].
  const double omega = 2.0 * M_PI * 50.0;
  const double zeta = 0.05;
  const double x0 = 1e-3;
  SystemAssembler assembler;
  assembler.add_block(std::make_unique<OscillatorBlock>(omega, zeta, x0));
  assembler.elaborate();
  ReferenceConfig config;
  config.fixed_step = 1e-6;
  ReferenceEngine engine(assembler, config);
  engine.initialise(0.0);
  const double wd = omega * std::sqrt(1.0 - zeta * zeta);
  for (int k = 1; k <= 5; ++k) {
    const double t = 0.02 * k;  // one 50 Hz period per check, 5 periods total
    engine.advance_to(t);
    const double envelope = x0 * std::exp(-zeta * omega * t);
    const double exact =
        envelope * (std::cos(wd * t) + zeta * omega / wd * std::sin(wd * t));
    EXPECT_NEAR(engine.state()[0], exact, x0 * 1e-7) << "t = " << t;
  }
}

// ---- engine contract ------------------------------------------------------

TEST(ReferenceOracle, FixedStepStatsAreExact) {
  ReferenceConfig config;
  config.fixed_step = 1e-4;
  RcOracle rc([](double) { return 1.0; }, 10.0, 0.05, 0.0, config);
  rc.engine->advance_to(0.1);
  const ehsim::core::SolverStats& stats = rc.engine->stats();
  EXPECT_EQ(stats.steps, 1000u);
  EXPECT_EQ(stats.step_rejections, 0u);  // nothing adaptive to reject
  EXPECT_DOUBLE_EQ(stats.min_step, 1e-4);
  EXPECT_DOUBLE_EQ(stats.max_step, 1e-4);
  EXPECT_DOUBLE_EQ(stats.last_step, 1e-4);
  EXPECT_GT(stats.newton_iterations, 0u);
  EXPECT_GT(stats.lu_factorisations, 0u);
}

TEST(ReferenceOracle, ObserversSeeEveryStepInOrder) {
  ReferenceConfig config;
  config.fixed_step = 1e-3;
  RcOracle rc([](double) { return 1.0; }, 10.0, 0.05, 0.0, config);
  std::vector<double> times;
  rc.engine->add_observer(
      [&times](double t, std::span<const double>, std::span<const double>) {
        times.push_back(t);
      });
  rc.engine->advance_to(0.01);
  // The initial state at t = 0 plus one observation per fixed step.
  ASSERT_EQ(times.size(), 11u);
  EXPECT_DOUBLE_EQ(times.front(), 0.0);
  for (std::size_t i = 1; i < times.size(); ++i) {
    EXPECT_GT(times[i], times[i - 1]);
  }
  EXPECT_NEAR(times.back(), 0.01, 1e-12);
}

TEST(ReferenceOracle, CheckpointingIsRefusedLoudly) {
  ReferenceConfig config;
  RcOracle rc([](double) { return 1.0; }, 10.0, 0.05, 0.0, config);
  EXPECT_THROW((void)rc.engine->checkpoint_state(), ModelError);
  EXPECT_THROW(rc.engine->restore_checkpoint_state(ehsim::io::JsonValue::make_object()),
               ModelError);
}

}  // namespace
