/// \file thread_annotations.hpp
/// \brief Clang thread-safety capability wrappers for every lock in ehsim.
///
/// The repo's headline contract — every parallel batch, forked batch,
/// serve response and resumed checkpoint is bit-identical to a serial cold
/// run — rests on data-race freedom in a handful of locked subsystems
/// (ThreadPool, JobQueue, Server, the diode-table cache). This header makes
/// that freedom machine-checked:
/// it defines the Clang `-Wthread-safety` annotation macros and annotated
/// Mutex / CondVar / MutexLock wrappers, so an unguarded access to a
/// `EHSIM_GUARDED_BY` field is a *build break* on the clang CI leg
/// (`-Werror=thread-safety`), not a latent race. On GCC the annotations
/// compile away and the wrappers are zero-cost shims over the standard
/// primitives.
///
/// Conventions (see docs/concurrency.md for the lock hierarchy and how to
/// read an analysis failure):
///   - every mutex in src/ is a `core::Mutex` (the determinism lint rejects
///     raw `std::mutex` / `std::condition_variable` outside this header);
///   - every field a mutex protects carries `EHSIM_GUARDED_BY(mutex_)`;
///   - private helpers that expect the lock held declare
///     `EHSIM_REQUIRES(mutex_)`; public locking entry points declare
///     `EHSIM_EXCLUDES(mutex_)` (they are not re-entrant);
///   - lock ordering between mutexes that may nest is encoded with
///     `EHSIM_ACQUIRED_BEFORE` on the mutex declaration.
#pragma once

#include <condition_variable>  // lint:allow raw-mutex (the annotated wrapper itself)
#include <mutex>               // lint:allow raw-mutex (the annotated wrapper itself)

#if defined(__clang__)
#define EHSIM_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define EHSIM_THREAD_ANNOTATION(x)  // no-op: GCC has no thread-safety analysis
#endif

#define EHSIM_CAPABILITY(x) EHSIM_THREAD_ANNOTATION(capability(x))
#define EHSIM_SCOPED_CAPABILITY EHSIM_THREAD_ANNOTATION(scoped_lockable)
#define EHSIM_GUARDED_BY(x) EHSIM_THREAD_ANNOTATION(guarded_by(x))
#define EHSIM_PT_GUARDED_BY(x) EHSIM_THREAD_ANNOTATION(pt_guarded_by(x))
#define EHSIM_ACQUIRED_BEFORE(...) EHSIM_THREAD_ANNOTATION(acquired_before(__VA_ARGS__))
#define EHSIM_ACQUIRED_AFTER(...) EHSIM_THREAD_ANNOTATION(acquired_after(__VA_ARGS__))
#define EHSIM_REQUIRES(...) EHSIM_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#define EHSIM_ACQUIRE(...) EHSIM_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define EHSIM_TRY_ACQUIRE(...) EHSIM_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))
#define EHSIM_RELEASE(...) EHSIM_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define EHSIM_EXCLUDES(...) EHSIM_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))
#define EHSIM_RETURN_CAPABILITY(x) EHSIM_THREAD_ANNOTATION(lock_returned(x))
#define EHSIM_NO_THREAD_SAFETY_ANALYSIS EHSIM_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace ehsim::core {

/// std::mutex with the `capability` annotation the analysis tracks.
class EHSIM_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() EHSIM_ACQUIRE() { mutex_.lock(); }
  void unlock() EHSIM_RELEASE() { mutex_.unlock(); }
  [[nodiscard]] bool try_lock() EHSIM_TRY_ACQUIRE(true) { return mutex_.try_lock(); }

 private:
  friend class CondVar;
  std::mutex mutex_;  // lint:allow raw-mutex (the annotated wrapper itself)
};

/// RAII scoped lock over core::Mutex. Supports early release (and relock)
/// for the notify-outside-the-lock pattern; the analysis tracks both.
class EHSIM_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mutex) EHSIM_ACQUIRE(mutex) : mutex_(mutex) { mutex_.lock(); }
  ~MutexLock() EHSIM_RELEASE() {
    if (owned_) mutex_.unlock();
  }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  /// Release before scope end (e.g. to notify a condition variable without
  /// holding the lock). The destructor then does nothing.
  void unlock() EHSIM_RELEASE() {
    mutex_.unlock();
    owned_ = false;
  }

  /// Reacquire after an early unlock().
  void lock() EHSIM_ACQUIRE() {
    mutex_.lock();
    owned_ = true;
  }

 private:
  Mutex& mutex_;
  bool owned_ = true;
};

/// std::condition_variable over core::Mutex. wait() atomically releases the
/// mutex, sleeps and reacquires; from the caller's perspective the
/// capability is held across the call (`EHSIM_REQUIRES`), exactly the
/// std::condition_variable contract. Spurious wakeups are possible — always
/// wait in a `while (!predicate)` loop *in the annotated caller* (a lambda
/// predicate would escape the analysis context and trip `-Wthread-safety`
/// on its guarded-field reads).
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void wait(Mutex& mutex) EHSIM_REQUIRES(mutex) {
    std::unique_lock<std::mutex> lock(mutex.mutex_, std::adopt_lock);  // lint:allow raw-mutex
    cv_.wait(lock);
    lock.release();  // ownership stays with the caller's MutexLock
  }

  void notify_one() noexcept { cv_.notify_one(); }
  void notify_all() noexcept { cv_.notify_all(); }

 private:
  std::condition_variable cv_;  // lint:allow raw-mutex (the annotated wrapper itself)
};

}  // namespace ehsim::core
