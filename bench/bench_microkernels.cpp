/// \file bench_microkernels.cpp
/// \brief Ablation A5: micro-kernel costs behind the Tables I/II story.
///
/// Times the primitive operations whose balance decides the engine
/// comparison: the dense LU factorisation the Newton-Raphson baseline pays
/// at every iteration (cubic in the model size), the Eq. 4 elimination
/// solve, the Adams-Bashforth update, table lookups, and the full-system
/// eval/jacobian assembly of the 11-state harvester model, the Eq. 3
/// LLE drift update over every Jacobian entry against the solver's scan of
/// the declared varying ones, and the Eq. 7 cap per recompute.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <random>
#include <string>
#include <span>
#include <vector>

#include "core/assembler.hpp"
#include "core/linearised_solver.hpp"
#include "core/lle_monitor.hpp"
#include "experiments/scenarios.hpp"
#include "harvester/harvester_system.hpp"
#include "sim/harvester_session.hpp"
#include "linalg/eigen.hpp"
#include "linalg/lu.hpp"
#include "ode/ab_coefficients.hpp"
#include "ode/explicit_integrators.hpp"
#include "ode/stability.hpp"

namespace {

ehsim::linalg::Matrix random_dominant(std::size_t n, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  ehsim::linalg::Matrix a(n, n);
  for (std::size_t r = 0; r < n; ++r) {
    double sum = 0.0;
    for (std::size_t c = 0; c < n; ++c) {
      a(r, c) = dist(rng);
      sum += std::abs(a(r, c));
    }
    a(r, r) = sum + 1.0;
  }
  return a;
}

/// Dense LU — the per-Newton-iteration cost of the baseline engines.
void BM_LuFactor(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto a = random_dominant(n, 7);
  ehsim::linalg::LuFactorization lu;
  for (auto _ : state) {
    benchmark::DoNotOptimize(lu.factor(a));
  }
  state.SetLabel("n=" + std::to_string(n));
}
BENCHMARK(BM_LuFactor)->Arg(4)->Arg(8)->Arg(11)->Arg(15)->Arg(22)->Arg(32);

/// The Eq. 4 elimination solve of the proposed engine (4x4 for the full
/// harvester).
void BM_Eq4Solve(benchmark::State& state) {
  const auto a = random_dominant(4, 11);
  ehsim::linalg::LuFactorization lu(a);
  std::vector<double> rhs{1.0, -2.0, 0.5, 3.0};
  std::vector<double> x(4);
  for (auto _ : state) {
    lu.solve(rhs, x);
    benchmark::DoNotOptimize(x.data());
  }
}
BENCHMARK(BM_Eq4Solve);

/// Variable-step AB coefficient computation + state update (11 states).
void BM_AbStep(benchmark::State& state) {
  ehsim::ode::AbHistory history(11, 2);
  std::vector<double> f(11, 0.1);
  history.push(0.0, f);
  history.push(1e-5, f);
  std::vector<double> x(11, 1.0);
  double t = 1e-5;
  for (auto _ : state) {
    t += 1e-5;
    history.step(t, x);
    history.push(t, f);
    benchmark::DoNotOptimize(x.data());
  }
}
BENCHMARK(BM_AbStep);

/// Full-system eval + Jacobian assembly of the 11-state harvester.
void BM_HarvesterAssembly(benchmark::State& state) {
  using namespace ehsim;
  const auto params = experiments::experiment_params(experiments::charging_scenario(1.0));
  harvester::HarvesterSystem system(params, harvester::DeviceEvalMode::kPwlTable, false);
  auto& assembler = system.assembler();
  linalg::Vector x(assembler.num_states());
  linalg::Vector y(assembler.num_nets());
  linalg::Vector fx(assembler.num_states());
  linalg::Vector fy(assembler.num_nets());
  linalg::Matrix jxx, jxy, jyx, jyy;
  assembler.jacobians(0.0, x.span(), y.span(), jxx, jxy, jyx, jyy);
  double t = 0.0;
  for (auto _ : state) {
    t += 1e-5;
    assembler.eval(t, x.span(), y.span(), fx.span(), fy.span());
    assembler.jacobians(t, x.span(), y.span(), jxx, jxy, jyx, jyy);
    benchmark::DoNotOptimize(fx.data());
  }
}
BENCHMARK(BM_HarvesterAssembly);

/// Jacobian signature check — the cost of certifying Jacobian reuse.
void BM_JacobianSignature(benchmark::State& state) {
  using namespace ehsim;
  const auto params = experiments::experiment_params(experiments::charging_scenario(1.0));
  harvester::HarvesterSystem system(params, harvester::DeviceEvalMode::kPwlTable, false);
  auto& assembler = system.assembler();
  linalg::Vector x(assembler.num_states());
  linalg::Vector y(assembler.num_nets());
  for (auto _ : state) {
    benchmark::DoNotOptimize(assembler.jacobian_signature(0.0, x.span(), y.span()));
  }
}
BENCHMARK(BM_JacobianSignature);

/// The linearisations the Table I run (1 s, 70 Hz, no MCU) feeds its LLE
/// monitor — one per signature change, in march order — and the model's
/// declared varying entries.
struct LleSequence {
  std::vector<std::array<ehsim::linalg::Matrix, 4>> jacobians;
  ehsim::core::JacobianPattern varying;
  std::size_t entries = 0;
};

const LleSequence& table1_lle_sequence() {
  static const LleSequence sequence = [] {
    using namespace ehsim;
    LleSequence out;
    sim::HarvesterSession session(experiments::experiment_params(
        experiments::charging_scenario(1.0)));
    auto& solver = dynamic_cast<core::LinearisedSolver&>(session.engine());
    // No MCU, so no discontinuity: every signature change reaches an
    // observer, with the linearisation the monitor was just fed.
    bool first = true;
    std::uint64_t signature = 0;
    session.add_observer([&](double, std::span<const double>, std::span<const double>) {
      if (first || solver.jacobian_signature() != signature) {
        const core::Linearisation& lin = solver.linearisation();
        out.jacobians.push_back({lin.jxx, lin.jxy, lin.jyx, lin.jyy});
      }
      first = false;
      signature = solver.jacobian_signature();
    });
    session.initialise(0.0);
    session.run_until(1.0);
    const core::SystemAssembler& system = session.session().engine().system();
    out.varying = system.varying_jacobian_entries();
    out.entries = (system.num_states() + system.num_nets()) *
                  (system.num_states() + system.num_nets());
    return out;
  }();
  return sequence;
}

/// LleMonitor::update per signature change of the Table I run: Arg 0 scans
/// every entry (a default-constructed monitor), Arg 1 only the declared
/// varying ones, as the solver does. Both report identical drifts.
void BM_LleUpdate(benchmark::State& state) {
  const bool sparse = state.range(0) == 1;
  const LleSequence& sequence = table1_lle_sequence();
  for (auto _ : state) {
    ehsim::core::LleMonitor monitor;
    for (const auto& j : sequence.jacobians) {
      benchmark::DoNotOptimize(
          monitor.update(j[0], j[1], j[2], j[3], sparse ? &sequence.varying : nullptr));
    }
  }
  const auto updates = static_cast<double>(sequence.jacobians.size());
  state.counters["updates"] = updates;
  state.counters["per_update"] = benchmark::Counter(
      updates, benchmark::Counter::kIsIterationInvariantRate | benchmark::Counter::kInvert);
  state.SetLabel(sparse ? std::to_string(sequence.varying.size()) + " of " +
                              std::to_string(sequence.entries) + " entries"
                        : "every entry");
}
BENCHMARK(BM_LleUpdate)->Arg(0)->Arg(1);

/// The eliminated matrices A = Jxx - Jxy Jyy^-1 Jyx at which the Fig. 9 run
/// (Scenario 2 cut to 1 s, MCU on, the 64 -> 78 Hz step at 0.75 s, watchdog
/// 0.3 s) recomputes its Eq. 7 cap, in march order, and the run's solver
/// settings.
struct CapSequence {
  std::vector<ehsim::linalg::Matrix> matrices;
  ehsim::core::SolverConfig config;
  std::uint64_t recomputes = 0;  ///< the run's own count, for the label
};

const CapSequence& fig9_cap_sequence() {
  static const CapSequence sequence = [] {
    using namespace ehsim;
    CapSequence out;
    experiments::ExperimentSpec spec = experiments::scenario2();
    spec.duration = 1.0;
    spec.excitation.events.front().time = 0.75;
    spec.excitation.events.front().frequency_hz = 78.0;
    spec.overrides.push_back(experiments::ParamOverride{"mcu.watchdog_period", 0.3});
    sim::HarvesterSession session = experiments::make_experiment_session(spec);
    auto& solver = dynamic_cast<core::LinearisedSolver&>(session.engine());
    // The solver recomputes right after this observer when the cap is due
    // and the current linearisation has none (a digital event at a chunk
    // end can swap the linearisation first, hence the recompute count in
    // the label).
    session.add_observer([&](double, std::span<const double>, std::span<const double>) {
      if (solver.stability_due() && !solver.linearisation().stability_cap) {
        out.matrices.push_back(solver.eliminated_matrix());
      }
    });
    session.initialise(0.0);
    session.run_until(spec.duration);
    out.config = solver.config();
    out.recomputes = solver.stats().stability_recomputes;
    return out;
  }();
  return sequence;
}

/// The Eq. 7 cap as LinearisedSolver::recompute_stability_cap evaluates it,
/// per recompute of the Fig. 9 run: Arg 0 runs ode::max_stable_step then
/// ode::refine_stable_step, Arg 1 only the linalg::eigenvalues inside it.
void BM_StabilityCap(benchmark::State& state) {
  const bool qr_only = state.range(0) == 1;
  const CapSequence& sequence = fig9_cap_sequence();
  const ehsim::core::SolverConfig& config = sequence.config;
  const std::size_t order = config.max_ab_order;
  const double h_request_max = 10.0 * std::max(config.h_max, config.fixed_step);
  for (auto _ : state) {
    for (const auto& a : sequence.matrices) {
      if (qr_only) {
        benchmark::DoNotOptimize(ehsim::linalg::eigenvalues(a));
        continue;
      }
      const auto limit = ehsim::ode::max_stable_step(a, order, 1.0);
      double candidate = std::min(limit.h_max, h_request_max);
      if (candidate > 0.0) {
        candidate = ehsim::ode::refine_stable_step(a, order, candidate, config.h_min);
      }
      benchmark::DoNotOptimize(candidate);
    }
  }
  const auto caps = static_cast<double>(sequence.matrices.size());
  state.counters["caps"] = caps;
  state.counters["per_cap"] = benchmark::Counter(
      caps, benchmark::Counter::kIsIterationInvariantRate | benchmark::Counter::kInvert);
  state.SetLabel(std::string(qr_only ? "eigenvalues only" : "max_stable_step + refine") +
                 ", run recomputes " + std::to_string(sequence.recomputes));
}
BENCHMARK(BM_StabilityCap)->Arg(0)->Arg(1);

/// QR eigenvalues of the 11x11 eliminated system — the Eq. 7 stability
/// recomputation (amortised over hundreds of steps).
void BM_Eigenvalues11(benchmark::State& state) {
  const auto a = random_dominant(11, 23);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ehsim::linalg::eigenvalues(a));
  }
}
BENCHMARK(BM_Eigenvalues11);

}  // namespace

BENCHMARK_MAIN();
