/// \file table_cache.hpp
/// \brief Process-wide cache of immutable PWL diode tables.
///
/// Scenario sweeps build one model per job; with identical model structure
/// every job used to rebuild the same 512-segment diode table (chord
/// construction evaluates the Shockley exponential per breakpoint). Tables
/// are immutable after construction, so jobs with identical
/// (DiodeParams, segments, v_min, g_max) keys can share one instance — the
/// ROADMAP "share across batch jobs" hot-path item. The cache is
/// thread-safe (BatchRunner workers construct models concurrently), keyed
/// on the exact parameter bits, and bounded (FIFO eviction) so parameter
/// sweeps over the diode itself cannot grow it without limit.
#pragma once

#include <cstddef>
#include <memory>

#include "pwl/diode_table.hpp"

namespace ehsim::pwl {

/// Cache hit/miss counters (cumulative since process start or reset).
struct TableCacheStats {
  std::size_t hits = 0;
  std::size_t misses = 0;
  std::size_t entries = 0;  ///< tables currently cached
};

/// Fetch (or build and cache) the table for the given construction key.
/// Sharing is safe because DiodeTable is deeply immutable; a shared table is
/// bit-identical to a privately constructed one.
[[nodiscard]] std::shared_ptr<const DiodeTable> shared_diode_table(const DiodeParams& params,
                                                                   std::size_t segments,
                                                                   double v_min, double g_max);

[[nodiscard]] TableCacheStats diode_table_cache_stats();

/// Drop every cached table and zero the counters (tests).
void reset_diode_table_cache();

}  // namespace ehsim::pwl
