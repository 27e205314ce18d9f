/// \file batch_runner.hpp
/// \brief Deterministic parallel execution of independent simulation jobs.
///
/// Design-space exploration — the paper's stated motivation ("the best
/// topology and optimal parameters of energy harvester are obtained
/// iteratively using multiple simulations", §V) — is embarrassingly
/// parallel: every candidate builds its own model, engine and traces.
/// BatchRunner fans such jobs out over a fixed thread pool and returns the
/// results in job order. Because jobs share no mutable state, the parallel
/// results are bit-identical to a serial run of the same jobs: slot i is
/// written only by job i, and each job's floating-point work is unaffected
/// by scheduling.
///
/// Synchronisation contract (docs/concurrency.md): BatchRunner itself owns
/// no lock-guarded state — result and error slots are disjoint per job, and
/// their cross-thread visibility is ordered by the completion latch (every
/// slot write happens-before latch.count_down(), which happens-before the
/// caller's latch.wait() returning). The only mutex involved is the
/// ThreadPool's own annotated queue mutex, a leaf in the lock hierarchy.
/// Jobs that touch shared caches (e.g. the diode-table cache) rely on those
/// caches' internal mutexes instead.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "sim/thread_pool.hpp"

namespace ehsim::sim {

class BatchRunner {
 public:
  /// \param threads worker count; 0 picks std::thread::hardware_concurrency,
  ///        1 runs jobs inline on the calling thread (the serial reference
  ///        path — no pool is created).
  explicit BatchRunner(std::size_t threads = 0);
  ~BatchRunner();

  BatchRunner(const BatchRunner&) = delete;
  BatchRunner& operator=(const BatchRunner&) = delete;

  /// Effective parallelism (1 when running inline).
  [[nodiscard]] std::size_t thread_count() const noexcept;

  /// Invoke body(i) for i in [0, count) across the pool. Blocks until every
  /// job finished. If jobs threw, the exception of the lowest job index is
  /// rethrown after the whole batch drained (so no job is silently torn
  /// down mid-run).
  void for_each_index(std::size_t count, const std::function<void(std::size_t)>& body);

  /// Run job(item, index) over \p items and collect results in item order.
  template <typename Item, typename Job>
  [[nodiscard]] auto map_items(const std::vector<Item>& items, Job&& job) {
    using R = std::decay_t<decltype(job(items.front(), std::size_t{0}))>;
    std::vector<R> results(items.size());
    for_each_index(items.size(), [&](std::size_t i) { results[i] = job(items[i], i); });
    return results;
  }

 private:
  std::unique_ptr<ThreadPool> pool_;  // null: inline serial execution
};

}  // namespace ehsim::sim
