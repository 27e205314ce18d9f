/// \file test_concurrency_stress.cpp
/// \brief Cross-thread stress for every shared structure in the repo: the
/// serve JobQueue, the process-wide diode-table cache and the ThreadPool
/// itself.
///
/// These tests assert *invariants under contention* (counters balance,
/// pointer identity per key), not timings. They are the
/// workload the TSan CI job runs: a data race anywhere in the annotated
/// subsystems shows up here as a sanitizer report, a lost update or a hang.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "pwl/table_cache.hpp"
#include "serve/job_queue.hpp"
#include "serve/protocol.hpp"
#include "sim/thread_pool.hpp"

namespace {

using namespace ehsim;

constexpr std::size_t kThreads = 8;

serve::Request stats_request(std::uint64_t id) {
  serve::Request request;
  request.id = id;
  request.type = serve::RequestType::kStats;
  return request;
}

// ---- JobQueue ---------------------------------------------------------------

TEST(ConcurrencyStress, JobQueueEnqueueDequeueDrainBalances) {
  serve::JobQueue queue(4);  // deliberately smaller than the thread count:
                             // producers must block on the full ring
  constexpr std::size_t kPerProducer = 200;
  constexpr std::size_t kProducers = kThreads / 2;
  constexpr std::size_t kConsumers = kThreads - kProducers;

  std::atomic<std::size_t> consumed{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t p = 0; p < kProducers; ++p) {
    threads.emplace_back([&queue, p] {
      for (std::size_t i = 0; i < kPerProducer; ++i) {
        ASSERT_TRUE(queue.enqueue(stats_request(p * kPerProducer + i)));
      }
    });
  }
  for (std::size_t c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&queue, &consumed] {
      while (queue.dequeue().has_value()) {
        consumed.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (std::size_t p = 0; p < kProducers; ++p) {
    threads[p].join();  // all enqueues accepted before the close
  }
  queue.close();
  for (std::size_t c = kProducers; c < kThreads; ++c) {
    threads[c].join();
  }

  const serve::JobQueue::Stats stats = queue.stats();
  EXPECT_EQ(stats.enqueued, kProducers * kPerProducer);
  EXPECT_EQ(stats.dequeued, kProducers * kPerProducer);
  EXPECT_EQ(consumed.load(), kProducers * kPerProducer);
  EXPECT_EQ(stats.depth, 0u);
  EXPECT_LE(stats.max_depth, stats.capacity);
  EXPECT_EQ(stats.state, serve::JobQueue::State::kClosed);
}

TEST(ConcurrencyStress, JobQueueCloseWakesBlockedProducers) {
  serve::JobQueue queue(1);
  ASSERT_TRUE(queue.enqueue(stats_request(0)));  // ring now full

  std::atomic<std::size_t> rejected{0};
  std::vector<std::thread> producers;
  for (std::size_t p = 0; p < kThreads; ++p) {
    producers.emplace_back([&queue, &rejected] {
      // Blocks on the full ring until close() turns it away.
      if (!queue.enqueue(stats_request(1))) {
        rejected.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  // Let the producers pile up on not_full_, then close. A sleep would only
  // hide a lost-wakeup bug; close() must wake ALL of them regardless.
  queue.close();
  for (std::thread& producer : producers) {
    producer.join();
  }
  // Whatever raced into the single freed slot is bounded by the ring:
  // everyone else must have been rejected rather than left blocked forever.
  EXPECT_GE(rejected.load(), kThreads - 1);

  // The backlog accepted before/at the close still drains.
  std::size_t drained = 0;
  while (queue.dequeue().has_value()) {
    ++drained;
  }
  EXPECT_EQ(drained, queue.stats().enqueued);
  EXPECT_EQ(queue.stats().state, serve::JobQueue::State::kClosed);
}

TEST(ConcurrencyStress, JobQueueDestructorAfterDrainUnderContention) {
  // The queue must be destructible right after close+drain even when
  // consumers only just returned — no waiter may still touch the freed
  // condition variables. Loop to give TSan interleavings to chew on.
  for (int round = 0; round < 20; ++round) {
    auto queue = std::make_unique<serve::JobQueue>(2);
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < 3; ++c) {
      threads.emplace_back([&queue] {
        while (queue->dequeue().has_value()) {
        }
      });
    }
    threads.emplace_back([&queue] {
      for (std::uint64_t i = 0; i < 8; ++i) {
        (void)queue->enqueue(stats_request(i));
      }
      queue->close();
    });
    for (std::thread& thread : threads) {
      thread.join();
    }
    queue.reset();  // destruct immediately after the last waiter left
  }
}

// ---- process-wide diode-table cache ----------------------------------------

TEST(ConcurrencyStress, DiodeTableCacheSharesOneInstancePerKey) {
  pwl::reset_diode_table_cache();
  constexpr std::size_t kKeys = 3;

  std::vector<std::vector<std::shared_ptr<const pwl::DiodeTable>>> seen(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&seen, t] {
      for (std::size_t i = 0; i < 12; ++i) {
        pwl::DiodeParams params;
        const std::size_t key = (t + i) % kKeys;
        params.saturation_current = 1e-7 * static_cast<double>(key + 1);
        seen[t].push_back(pwl::shared_diode_table(params, 64, -1.0, 10.0));
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }

  // All tables for one key must be the same immutable instance — with one
  // caveat the cache documents: two threads that both miss concurrently may
  // each build a table, and the loser of the publish race keeps its private
  // copy. So per key, at most 1 + (threads - 1) distinct pointers, and the
  // cached instance identity is stable once published.
  for (std::size_t key = 0; key < kKeys; ++key) {
    pwl::DiodeParams params;
    params.saturation_current = 1e-7 * static_cast<double>(key + 1);
    const std::shared_ptr<const pwl::DiodeTable> cached =
        pwl::shared_diode_table(params, 64, -1.0, 10.0);
    const std::shared_ptr<const pwl::DiodeTable> again =
        pwl::shared_diode_table(params, 64, -1.0, 10.0);
    EXPECT_EQ(cached.get(), again.get());
  }
  const pwl::TableCacheStats stats = pwl::diode_table_cache_stats();
  EXPECT_EQ(stats.entries, kKeys);
  EXPECT_GT(stats.hits, 0u);
}

// ---- ThreadPool -------------------------------------------------------------

TEST(ConcurrencyStress, ThreadPoolSubmitStormFromManyThreads) {
  std::atomic<std::size_t> executed{0};
  {
    sim::ThreadPool pool(4);
    std::vector<std::thread> submitters;
    for (std::size_t t = 0; t < kThreads; ++t) {
      submitters.emplace_back([&pool, &executed] {
        for (int i = 0; i < 100; ++i) {
          pool.submit([&executed] { executed.fetch_add(1, std::memory_order_relaxed); });
        }
      });
    }
    for (std::thread& submitter : submitters) {
      submitter.join();
    }
    // The destructor drains the backlog before joining its workers.
  }
  EXPECT_EQ(executed.load(), kThreads * 100);
}

}  // namespace
