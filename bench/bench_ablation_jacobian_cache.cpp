/// \file bench_ablation_jacobian_cache.cpp
/// \brief Ablation A6: Jacobian reuse through signatures and the linearisation cache.
///
/// The paper saves computation by retrieving linearised device values from
/// look-up tables instead of evaluating physical equations (§III-B). This
/// library takes the idea to its natural end point: a piecewise-linear
/// model's Jacobians are piecewise *constant*, so blocks certify unchanged
/// linearisations through cheap signatures (diode conductance bands,
/// quantised operating points) and the engine skips Jacobian assembly, the
/// LLE update and the Jyy factorisation entirely between segment crossings;
/// at a crossing into a piece it has linearised before, the solver's
/// signature-keyed cache hands back that piece's Jacobians, Jyy LU and Eq. 7
/// cap. This bench measures what that is worth on the full harvester model
/// and asserts the A6 contract:
///
///  * the reuse-off arm never touches the cache (no reuses of any kind);
///  * both arms take the same number of steps: the step controller observes
///    the same signature-driven drift sequence in both;
///  * the reuse-on arm's final Vc stays within the 1e-3 bound documented for
///    adopting a same-signature linearisation (the cache returns a
///    signature's first-visit Jacobians, so step times and states differ in
///    the last digits);
///  * the reuse-on arm does at most a tenth of the reuse-off arm's builds.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>

#include "core/linearised_solver.hpp"
#include "experiments/scenarios.hpp"
#include "experiments/table_printer.hpp"
#include "sim/harvester_session.hpp"

namespace {

struct Outcome {
  double cpu = 0.0;
  std::uint64_t steps = 0;
  std::uint64_t builds = 0;
  std::uint64_t reuses = 0;
  std::uint64_t cap_evaluations = 0;
  std::uint64_t cap_reuses = 0;
  std::size_t cache_entries = 0;
  double vc = 0.0;
};

Outcome run(bool reuse, double span) {
  using namespace ehsim;
  const auto params = experiments::experiment_params(experiments::charging_scenario(span));
  sim::HarvesterSession::Options options;
  options.solver.enable_jacobian_reuse = reuse;
  sim::HarvesterSession session(params, options);
  session.run_until(span);
  const auto& solver = dynamic_cast<const core::LinearisedSolver&>(session.engine());
  Outcome out;
  out.cpu = session.cpu_seconds();
  out.steps = session.stats().steps;
  out.builds = session.stats().jacobian_builds;
  out.reuses = session.stats().jacobian_reuses;
  out.cap_evaluations = session.stats().stability_recomputes;
  out.cap_reuses = session.stats().stability_reuses;
  out.cache_entries = solver.linearisation_cache().size();
  out.vc = session.terminals()[session.system().vc_index()];
  return out;
}

}  // namespace

int main() {
  using namespace ehsim::experiments;

  const bool full = std::getenv("EHSIM_BENCH_FULL") != nullptr;
  const double span = full ? 30.0 : 8.0;

  std::printf("=== Ablation A6: Jacobian reuse and the linearisation cache (paper sec. III-B) ===\n");
  std::printf("supercap charging, %.0f s simulated span\n\n", span);

  const Outcome on = run(true, span);
  const Outcome off = run(false, span);

  TablePrinter table({"configuration", "CPU", "steps", "Jacobian builds", "reuses",
                      "Eq. 7 evaluations", "cap reuses", "Vc [V]"});
  table.add_row({"reuse on (default)", format_duration(on.cpu), std::to_string(on.steps),
                 std::to_string(on.builds), std::to_string(on.reuses),
                 std::to_string(on.cap_evaluations), std::to_string(on.cap_reuses),
                 format_double(on.vc, 6)});
  table.add_row({"reuse off (rebuild every step)", format_duration(off.cpu),
                 std::to_string(off.steps), std::to_string(off.builds),
                 std::to_string(off.reuses), std::to_string(off.cap_evaluations),
                 std::to_string(off.cap_reuses), format_double(off.vc, 6)});
  table.print(std::cout);

  std::printf("\nreuse skips %.1f%% of builds and %.1f%% of Eq. 7 evaluations (%.2fx end-to-end\n"
              "on this 11-state model; the cache holds %zu linearisations).\n",
              100.0 * (1.0 - static_cast<double>(on.builds) / static_cast<double>(off.builds)),
              100.0 * (1.0 - static_cast<double>(on.cap_evaluations) /
                                 static_cast<double>(off.cap_evaluations)),
              off.cpu / on.cpu, on.cache_entries);

  const bool off_untouched = off.reuses == 0 && off.cap_reuses == 0 && off.cache_entries == 0;
  const bool same_steps = on.steps == off.steps;
  const double vc_error = std::abs(on.vc - off.vc) / std::max(1.0, std::abs(off.vc));
  const bool within_bound = vc_error <= 1e-3;
  const bool few_builds = on.builds * 10 <= off.builds;
  std::printf("reuse-off arm never touches the cache: %s\n", off_untouched ? "YES" : "NO");
  std::printf("both arms take the same steps: %s (%llu vs %llu)\n", same_steps ? "YES" : "NO",
              static_cast<unsigned long long>(on.steps),
              static_cast<unsigned long long>(off.steps));
  std::printf("final Vc within the 1e-3 adoption bound: %s (%.1e)\n",
              within_bound ? "YES" : "NO", vc_error);
  std::printf("reuse-on builds at most 1/10 of reuse-off: %s (%llu vs %llu)\n",
              few_builds ? "YES" : "NO", static_cast<unsigned long long>(on.builds),
              static_cast<unsigned long long>(off.builds));
  return off_untouched && same_steps && within_bound && few_builds ? EXIT_SUCCESS : EXIT_FAILURE;
}
