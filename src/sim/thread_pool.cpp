#include "sim/thread_pool.hpp"

#include <string>
#include <system_error>

#include "common/error.hpp"

namespace ehsim::sim {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    throw ModelError("ThreadPool: need at least one worker");
  }
  workers_.reserve(threads);
  try {
    for (std::size_t i = 0; i < threads; ++i) {
      workers_.emplace_back([this] { worker_loop(); });
    }
  } catch (const std::system_error& error) {
    // No destructor runs for a half-built pool: the started workers must be
    // joined before the condition variable they wait on is destroyed.
    stop_and_join();
    throw ModelError("ThreadPool: started " + std::to_string(workers_.size()) + " of " +
                     std::to_string(threads) + " requested workers: " + error.what());
  }
}

ThreadPool::~ThreadPool() { stop_and_join(); }

void ThreadPool::stop_and_join() {
  {
    const core::MutexLock lock(mutex_);
    stopping_ = true;
  }
  wake_.notify_all();
  for (auto& worker : workers_) {
    worker.join();
  }
}

void ThreadPool::submit(std::function<void()> task) {
  {
    const core::MutexLock lock(mutex_);
    queue_.push_back(std::move(task));
  }
  wake_.notify_one();
}

void ThreadPool::worker_loop() {
  while (true) {
    std::function<void()> task;
    {
      core::MutexLock lock(mutex_);
      while (!stopping_ && queue_.empty()) {
        wake_.wait(mutex_);
      }
      if (queue_.empty()) {
        return;  // stopping and drained
      }
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

}  // namespace ehsim::sim
