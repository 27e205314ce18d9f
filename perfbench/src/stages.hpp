/// \file stages.hpp
/// \brief Workload plans and the measured operations of the benchmark.
///
/// Every workload runs the same five user-facing operations on inputs drawn
/// from its own scenario family: one transient on the proposed engine
/// (`run_s`, with its set-up `setup_s`), the same transient on the
/// SystemVision Newton-Raphson profile (`nr_run_s`), the family's sweep on
/// the thread-pool kernel (`sweep_s`) and on the lockstep kernel
/// (`lockstep_sweep_s`), and a closed-loop serve session (`serve_p50_ms`,
/// `serve_p75_ms`). What differs per workload is the family — which layers
/// the inputs exercise — and how much of the run each operation gets.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"
#include "experiments/sweep.hpp"

namespace perfbench {

/// How many times one measurement round repeats each operation.
struct RoundShape {
  std::size_t setup_reps = 0;  ///< extra set-up-only samples
  std::size_t run_reps = 1;
  std::size_t nr_reps = 1;
  std::size_t sweep_reps = 1;     ///< each kernel
  std::size_t serve_sessions = 1;
};

struct WorkloadPlan {
  std::string name;
  /// The proposed-engine transient (run_s / setup_s / the traced pass).
  ehsim::experiments::ExperimentSpec run_spec;
  /// run_spec on the SystemVision NR profile.
  ehsim::experiments::ExperimentSpec nr_spec;
  ehsim::experiments::SweepSpec sweep;
  std::size_t threads = 1;  ///< T for the kJobs sweep
  /// Serve run requests in release order (ids 1..N).
  std::vector<ehsim::experiments::ExperimentSpec> serve_requests;
  /// setup_s is Server construction -> `ready` instead of prepare_run.
  bool serve_setup = false;
  RoundShape round;
};

/// The inputs of \p workload for \p seed; throws std::invalid_argument for
/// an unknown workload.
[[nodiscard]] WorkloadPlan make_plan(const std::string& workload, std::uint64_t seed);

/// The workload names make_plan accepts.
[[nodiscard]] const std::vector<std::string>& workload_names();

struct WorkloadResult {
  Metrics end_to_end;
  Metrics per_layer;
  Checks checks;
  std::size_t rounds = 0;
  /// Every timing sample per end-to-end metric (the report line's
  /// statistics); serve_latency_ms holds the per-position best replays.
  Samples samples;
};

/// Measure \p plan for at least \p seconds of rounds; with \p trace also run
/// the traced pass and fill the per-layer metrics.
[[nodiscard]] WorkloadResult run_workload(const WorkloadPlan& plan, double seconds, bool trace);

}  // namespace perfbench
