#include "pwl/table_cache.hpp"

#include <cstring>
#include <deque>

#include "core/thread_annotations.hpp"

namespace ehsim::pwl {

namespace {

/// Exact construction key: raw bits of every input the table build reads.
struct TableKey {
  double saturation_current;
  double emission_coefficient;
  double thermal_voltage;
  double g_min;
  std::size_t segments;
  double v_min;
  double g_max;

  [[nodiscard]] bool operator==(const TableKey& other) const noexcept {
    return std::memcmp(this, &other, sizeof(TableKey)) == 0;
  }
};

struct CacheEntry {
  TableKey key;
  std::shared_ptr<const DiodeTable> table;
};

/// Process-wide cache state. Everything is guarded by the one mutex; the
/// expensive table construction happens strictly outside it.
struct Cache {
  core::Mutex mutex;
  std::deque<CacheEntry> entries EHSIM_GUARDED_BY(mutex);  // FIFO eviction order
  std::size_t hits EHSIM_GUARDED_BY(mutex) = 0;
  std::size_t misses EHSIM_GUARDED_BY(mutex) = 0;
};

Cache& cache() {
  static Cache instance;
  return instance;
}

/// Distinct diode configurations alive at once in any realistic sweep; the
/// bound only matters when the sweep axis is the diode itself.
constexpr std::size_t kMaxEntries = 32;

/// Linear scan for \p key (32 entries max — a map would be overkill).
/// Returns the shared instance and counts the hit, or nullptr.
std::shared_ptr<const DiodeTable> find_locked(Cache& c, const TableKey& key)
    EHSIM_REQUIRES(c.mutex) {
  for (const CacheEntry& entry : c.entries) {
    if (entry.key == key) {
      ++c.hits;
      return entry.table;
    }
  }
  return nullptr;
}

}  // namespace

std::shared_ptr<const DiodeTable> shared_diode_table(const DiodeParams& params,
                                                     std::size_t segments, double v_min,
                                                     double g_max) {
  const TableKey key{params.saturation_current, params.emission_coefficient,
                     params.thermal_voltage,   params.g_min,
                     segments,                 v_min,
                     g_max};
  Cache& c = cache();
  {
    const core::MutexLock lock(c.mutex);
    if (auto table = find_locked(c, key)) {
      return table;
    }
  }
  // Build outside the lock: table construction is the expensive part and
  // may throw. A racing builder of the same key wastes one build, nothing
  // worse — both results are bit-identical.
  auto table = std::make_shared<const DiodeTable>(params, segments, v_min, g_max);
  const core::MutexLock lock(c.mutex);
  if (auto incumbent = find_locked(c, key)) {
    // Lost the race; share the incumbent so concurrent callers converge
    // on one instance.
    return incumbent;
  }
  ++c.misses;
  if (c.entries.size() >= kMaxEntries) {
    c.entries.pop_front();
  }
  c.entries.push_back(CacheEntry{key, table});
  return table;
}

TableCacheStats diode_table_cache_stats() {
  Cache& c = cache();
  const core::MutexLock lock(c.mutex);
  return TableCacheStats{c.hits, c.misses, c.entries.size()};
}

void reset_diode_table_cache() {
  Cache& c = cache();
  const core::MutexLock lock(c.mutex);
  c.entries.clear();
  c.hits = 0;
  c.misses = 0;
}

}  // namespace ehsim::pwl
