/// \file bench_microkernels.cpp
/// \brief Ablation A5: micro-kernel costs behind the Tables I/II story.
///
/// Times the primitive operations whose balance decides the engine
/// comparison: the dense LU factorisation the Newton-Raphson baseline pays
/// at every iteration (cubic in the model size), the Eq. 4 elimination
/// solve, the Adams-Bashforth update, table lookups, and the full-system
/// eval/jacobian assembly of the 11-state harvester model, the Eq. 3
/// LLE drift update over every Jacobian entry against the solver's scan of
/// the declared varying ones, the Eq. 7 cap per recompute, and the step
/// pass on the Table I run's own points: evaluate (one pass against eval
/// plus jacobian_signature) and the Eq. 4 elimination (non-zero entries
/// against dense).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <span>
#include <unordered_map>
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

/// The points the Table I run (1 s, 70 Hz, no MCU) evaluates and
/// eliminates at, in march order: the evaluate phase's (t, x, y_prev), and
/// the Eq. 4 elimination's right-hand side -fy and derivative sample base fx
/// there, with the linearisation it solves with (one copy per signature).
struct StepSequence {
  std::unique_ptr<ehsim::harvester::HarvesterSystem> system;  ///< evaluates the points
  std::vector<double> t;
  std::vector<double> x;       ///< n per point
  std::vector<double> y_prev;  ///< m per point
  std::vector<double> rhs;     ///< m per point
  std::vector<double> fx;      ///< n per point
  std::vector<std::size_t> lin;  ///< per point, into linearisations
  std::vector<ehsim::core::Linearisation> linearisations;
  std::size_t n = 0;
  std::size_t m = 0;
};

const StepSequence& table1_step_sequence() {
  static const StepSequence sequence = [] {
    using namespace ehsim;
    StepSequence out;
    const auto params = experiments::experiment_params(experiments::charging_scenario(1.0));
    sim::HarvesterSession session(params);
    auto& solver = dynamic_cast<core::LinearisedSolver&>(session.engine());
    const core::SystemAssembler& system = session.session().engine().system();
    out.n = system.num_states();
    out.m = system.num_nets();
    std::vector<double> y_prev(out.m), fx(out.n), fy(out.m);
    std::unordered_map<std::uint64_t, std::size_t> index;
    bool first = true;
    // Each point was evaluated at (t, x, y_prev) and eliminated with the
    // current linearisation; no MCU, so every signature is certified.
    session.add_observer([&](double t, std::span<const double> x, std::span<const double> y) {
      if (!first) {
        system.eval(t, x, y_prev, fx, fy);
        out.t.push_back(t);
        out.x.insert(out.x.end(), x.begin(), x.end());
        out.y_prev.insert(out.y_prev.end(), y_prev.begin(), y_prev.end());
        for (double v : fy) {
          out.rhs.push_back(-v);
        }
        out.fx.insert(out.fx.end(), fx.begin(), fx.end());
        const auto [it, added] =
            index.try_emplace(solver.jacobian_signature(), out.linearisations.size());
        if (added) {
          out.linearisations.push_back(solver.linearisation());
        }
        out.lin.push_back(it->second);
      }
      first = false;
      std::copy(y.begin(), y.end(), y_prev.begin());
    });
    session.initialise(0.0);
    session.run_until(1.0);
    out.system = std::make_unique<harvester::HarvesterSystem>(
        params, harvester::DeviceEvalMode::kPwlTable, false);
    return out;
  }();
  return sequence;
}

/// The evaluate phase per step point of the Table I run: Arg 0 calls
/// SystemAssembler::eval then jacobian_signature, Arg 1 eval_with_signature
/// (what the solver runs). Both give the same residuals and signatures.
void BM_StepEvaluate(benchmark::State& state) {
  const bool one_pass = state.range(0) == 1;
  const StepSequence& sequence = table1_step_sequence();
  const ehsim::core::SystemAssembler& system = sequence.system->assembler();
  const std::size_t n = sequence.n;
  const std::size_t m = sequence.m;
  std::vector<double> fx(n), fy(m);
  for (auto _ : state) {
    for (std::size_t k = 0; k < sequence.t.size(); ++k) {
      const std::span<const double> x(sequence.x.data() + k * n, n);
      const std::span<const double> y(sequence.y_prev.data() + k * m, m);
      if (one_pass) {
        benchmark::DoNotOptimize(system.eval_with_signature(sequence.t[k], x, y, fx, fy));
      } else {
        system.eval(sequence.t[k], x, y, fx, fy);
        benchmark::DoNotOptimize(system.jacobian_signature(sequence.t[k], x, y));
      }
      benchmark::DoNotOptimize(fy.data());
    }
  }
  const auto points = static_cast<double>(sequence.t.size());
  state.counters["points"] = points;
  state.counters["per_point"] = benchmark::Counter(
      points, benchmark::Counter::kIsIterationInvariantRate | benchmark::Counter::kInvert);
  state.SetLabel(one_pass ? "eval_with_signature" : "eval + jacobian_signature");
}
BENCHMARK(BM_StepEvaluate)->Arg(0)->Arg(1);

/// The Eq. 4 elimination per step point of the Table I run, on the
/// harvester's own Jyy and Jxy: the solve of Jyy dy = -fy and the
/// derivative sample fx + Jxy dy. Arg 0 runs LuFactorization::solve and the
/// dense row-by-row product over every entry, Arg 1 solve_nonzeros and
/// SparseRows::multiply_add (what the solver runs). Both give the same bits.
void BM_Eq4Elimination(benchmark::State& state) {
  const bool nonzeros = state.range(0) == 1;
  const StepSequence& sequence = table1_step_sequence();
  const std::size_t n = sequence.n;
  const std::size_t m = sequence.m;
  std::vector<double> dy(m), f(n);
  for (auto _ : state) {
    for (std::size_t k = 0; k < sequence.lin.size(); ++k) {
      const ehsim::core::Linearisation& lin = sequence.linearisations[sequence.lin[k]];
      const std::span<const double> rhs(sequence.rhs.data() + k * m, m);
      std::copy_n(sequence.fx.data() + k * n, n, f.begin());
      if (nonzeros) {
        lin.jyy_lu.solve_nonzeros(rhs, dy);
        lin.jxy_nonzeros.multiply_add(dy, f);
      } else {
        lin.jyy_lu.solve(rhs, dy);
        for (std::size_t r = 0; r < n; ++r) {
          double acc = 0.0;
          for (std::size_t c = 0; c < m; ++c) {
            acc += lin.jxy(r, c) * dy[c];
          }
          f[r] += acc;
        }
      }
      benchmark::DoNotOptimize(f.data());
      benchmark::ClobberMemory();
    }
  }
  const auto points = static_cast<double>(sequence.lin.size());
  state.counters["points"] = points;
  state.counters["linearisations"] = static_cast<double>(sequence.linearisations.size());
  state.counters["per_point"] = benchmark::Counter(
      points, benchmark::Counter::kIsIterationInvariantRate | benchmark::Counter::kInvert);
  state.SetLabel(nonzeros ? "non-zero entries" : "dense");
}
BENCHMARK(BM_Eq4Elimination)->Arg(0)->Arg(1);

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
