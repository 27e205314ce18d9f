/// \file thread_pool.hpp
/// \brief Fixed-size worker pool behind the sim batch runner.
///
/// The pool is deliberately minimal: a FIFO task queue drained by a fixed
/// set of workers. Scenario sweeps submit coarse-grained jobs (whole
/// transient runs, seconds each), so queue contention is irrelevant and
/// work stealing would buy nothing.
///
/// Concurrency contract (machine-checked on the clang CI leg, see
/// docs/concurrency.md): the queue and the stop flag are guarded by
/// `mutex_`; `mutex_` is a leaf lock — no other ehsim mutex is ever
/// acquired while it is held (submitted tasks run strictly outside it).
#pragma once

#include <cstddef>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "core/thread_annotations.hpp"

namespace ehsim::sim {

class ThreadPool {
 public:
  /// Spawns exactly \p threads workers (>= 1). When the system cannot start
  /// one, joins the workers already started and throws ModelError naming the
  /// requested and started counts and the system error.
  explicit ThreadPool(std::size_t threads);
  /// Drains outstanding tasks, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueue a task; thread-safe. Tasks must not throw out of the callable
  /// (the batch runner wraps user jobs and captures their exceptions).
  void submit(std::function<void()> task) EHSIM_EXCLUDES(mutex_);

  [[nodiscard]] std::size_t size() const noexcept { return workers_.size(); }

 private:
  void worker_loop() EHSIM_EXCLUDES(mutex_);
  /// Wake every worker to drain the queue and exit, then join them.
  void stop_and_join() EHSIM_EXCLUDES(mutex_);

  std::vector<std::thread> workers_;
  core::Mutex mutex_;
  core::CondVar wake_;
  std::deque<std::function<void()>> queue_ EHSIM_GUARDED_BY(mutex_);
  bool stopping_ EHSIM_GUARDED_BY(mutex_) = false;
};

}  // namespace ehsim::sim
