/// \file bench_json.hpp
/// \brief Shared bench plumbing: span selection and the CI perf artifact.
///
/// The table benches honour two environment variables:
///   EHSIM_BENCH_SMOKE=1  — seconds-scale spans for the CI bench-smoke job,
///   EHSIM_BENCH_FULL=1   — the paper's full durations.
/// EHSIM_BENCH_JSON=<path> additionally writes the measured rows as a JSON
/// document (uploaded as a BENCH_*.json workflow artifact, so the perf
/// trajectory is recorded per push).
#pragma once

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "experiments/cpu_timer.hpp"
#include "io/json.hpp"
#include "io/spec_json.hpp"

namespace ehsim::benchio {

enum class BenchSpan { kSmoke, kDefault, kFull };

/// EHSIM_BENCH_SMOKE wins over EHSIM_BENCH_FULL when both are set (CI sets
/// only the former).
inline BenchSpan bench_span() {
  if (std::getenv("EHSIM_BENCH_SMOKE") != nullptr) {
    return BenchSpan::kSmoke;
  }
  if (std::getenv("EHSIM_BENCH_FULL") != nullptr) {
    return BenchSpan::kFull;
  }
  return BenchSpan::kDefault;
}

/// Runs per arm of a wall-clock gate, alternating the arms. Other tenants
/// of a shared host only ever slow a run down, so the fastest repetition
/// tracks the program's own cost where a single shot can land in a burst.
inline constexpr int kGateRepeats = 3;

/// Run \p body once and fold its wall time into \p best (the fastest so
/// far); returns what \p body returns.
template <typename Body>
auto timed_min(double& best, Body&& body) {
  const experiments::WallTimer timer;
  auto result = body();
  best = std::min(best, timer.elapsed_seconds());
  return result;
}

/// Write \p document to $EHSIM_BENCH_JSON when set; no-op otherwise.
inline void maybe_write_bench_json(const io::JsonValue& document) {
  const char* path = std::getenv("EHSIM_BENCH_JSON");
  if (path == nullptr || *path == '\0') {
    return;
  }
  io::write_file(path, document.dump(2) + "\n");
  std::printf("\nbench JSON written to %s\n", path);
}

}  // namespace ehsim::benchio
