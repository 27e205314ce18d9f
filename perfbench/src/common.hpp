/// \file common.hpp
/// \brief Shared helpers of the ehsim benchmark: wall clocks, order
/// statistics, run digests and the check/metric ledgers every stage writes.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "experiments/scenarios.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

[[nodiscard]] inline double seconds_since(Clock::time_point from) {
  return seconds_between(from, Clock::now());
}

/// Quantile with linear interpolation between order statistics (q in [0,1]).
[[nodiscard]] inline double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

[[nodiscard]] inline double median(const std::vector<double>& values) {
  return quantile(values, 0.5);
}

[[nodiscard]] inline std::uint64_t bits_of(double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof bits);
  return bits;
}

/// Deterministic fingerprint of one transient: step/rebuild counts, the bits
/// of the final supercapacitor voltage and an FNV-1a hash over the bits of
/// the whole decimated Vc trace. Two runs of one spec on one build must
/// produce equal digests.
struct Digest {
  std::uint64_t steps = 0;
  std::uint64_t jacobian_builds = 0;
  std::uint64_t final_vc_bits = 0;
  std::uint64_t trace_hash = 0;

  [[nodiscard]] bool operator==(const Digest&) const = default;
};

[[nodiscard]] inline std::uint64_t trace_hash(const std::vector<double>& trace) {
  std::uint64_t hash = 1469598103934665603ULL;
  for (const double value : trace) {
    hash ^= bits_of(value);
    hash *= 1099511628211ULL;
  }
  return hash;
}

[[nodiscard]] inline Digest digest_of(const ehsim::experiments::ScenarioResult& result) {
  return Digest{result.stats.steps, result.stats.jacobian_builds, bits_of(result.final_vc),
                trace_hash(result.vc)};
}

/// Correctness ledger: every timed operation is one attempt; a failed check
/// or an exception marks it failed and is described on stderr.
class Checks {
 public:
  void attempt(std::size_t n = 1) { attempted_ += n; }
  /// Records a check; returns \p ok.
  bool expect(bool ok, const std::string& what) {
    if (!ok) fail(what);
    return ok;
  }
  void fail(const std::string& what) {
    ++failed_;
    std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
  }
  [[nodiscard]] std::size_t attempted() const noexcept { return attempted_; }
  [[nodiscard]] std::size_t failed() const noexcept { return failed_; }

 private:
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
};

/// Named metric values with units, in insertion order of first set().
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit) {
    for (auto& entry : entries_) {
      if (entry.name == name) {
        entry.value = value;
        entry.unit = unit;
        return;
      }
    }
    entries_.push_back({name, value, unit});
  }
  struct Entry {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  [[nodiscard]] const std::vector<Entry>& entries() const noexcept { return entries_; }

 private:
  std::vector<Entry> entries_;
};

/// Timing samples per end-to-end metric, reduced to medians at the end.
using Samples = std::map<std::string, std::vector<double>>;

}  // namespace perfbench
