/// \file test_thread_pool_spawn.cpp
/// \brief ThreadPool when the system refuses to start a worker.
///
/// This suite is its own binary because it replaces pthread_create: the
/// interposer below forwards to the next definition (libc's, or a
/// sanitizer's) until armed, then fails every call like a process that has
/// run out of threads. Each case runs in a death-test child under a 10 s
/// alarm, so a constructor that hangs fails the test instead of the suite.
#include <gtest/gtest.h>

#include <dlfcn.h>
#include <pthread.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>

#include "common/error.hpp"
#include "sim/thread_pool.hpp"

namespace {

/// Calls still allowed through before the interposer fails them; negative
/// when disarmed. Only the test's own thread starts threads, so a load and a
/// store need no compare-and-swap.
std::atomic<int> calls_before_failure{-1};

}  // namespace

extern "C" int pthread_create(pthread_t* thread, const pthread_attr_t* attr,
                              void* (*start)(void*), void* arg) noexcept {
  using Create = int (*)(pthread_t*, const pthread_attr_t*, void* (*)(void*), void*);
  static const auto next = reinterpret_cast<Create>(dlsym(RTLD_NEXT, "pthread_create"));
  const int allowed = calls_before_failure.load();
  if (allowed == 0) {
    return EAGAIN;
  }
  if (allowed > 0) {
    calls_before_failure = allowed - 1;
  }
  return next(thread, attr, start, arg);
}

namespace {

using ehsim::ModelError;
using ehsim::sim::ThreadPool;

// Builds a pool of three workers whose third fails to start, prints the
// error, then builds a working pool with the interposer disarmed.
[[noreturn]] void spawn_failure_child() {
  alarm(10);
  calls_before_failure = 2;
  try {
    const ThreadPool pool(3);
    std::fputs("no error thrown\n", stderr);
    std::exit(1);
  } catch (const ModelError& error) {
    std::fprintf(stderr, "%s\n", error.what());
  }
  calls_before_failure = -1;
  std::atomic<int> ran{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 8; ++i) {
      pool.submit([&ran] { ++ran; });
    }
  }  // the destructor drains the queue
  std::exit(ran == 8 ? 0 : 2);
}

TEST(ThreadPoolSpawnDeathTest, FailedWorkerStartJoinsTheStartedOnesAndThrows) {
  EXPECT_EXIT(spawn_failure_child(), ::testing::ExitedWithCode(0),
              "ThreadPool: started 2 of 3 requested workers: .+");
}

TEST(ThreadPoolSpawnDeathTest, FirstWorkerFailingThrows) {
  EXPECT_EXIT(
      {
        alarm(10);
        calls_before_failure = 0;
        try {
          const ThreadPool pool(2);
        } catch (const ModelError& error) {
          std::fprintf(stderr, "%s\n", error.what());
          std::exit(0);
        }
        std::exit(1);
      },
      ::testing::ExitedWithCode(0), "ThreadPool: started 0 of 2 requested workers");
}

}  // namespace
