/// \file test_digital.cpp
/// \brief Digital kernel and watchdog tests (SystemC-lite semantics).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/error.hpp"
#include "digital/kernel.hpp"
#include "digital/timer.hpp"

namespace {

using ehsim::ModelError;
using ehsim::SolverError;
using ehsim::digital::Kernel;
using ehsim::digital::WatchdogTimer;

TEST(Kernel, StartsAtZero) {
  Kernel kernel;
  EXPECT_EQ(kernel.now(), 0.0);
  EXPECT_FALSE(kernel.next_event_time().has_value());
}

TEST(Kernel, ExecutesEventsInTimeOrder) {
  Kernel kernel;
  std::vector<int> order;
  kernel.schedule_at(2.0, [&] { order.push_back(2); });
  kernel.schedule_at(1.0, [&] { order.push_back(1); });
  kernel.schedule_at(3.0, [&] { order.push_back(3); });
  kernel.run_until(5.0);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(kernel.now(), 5.0);
}

TEST(Kernel, SameTimeEventsKeepInsertionOrder) {
  Kernel kernel;
  std::vector<int> order;
  kernel.schedule_at(1.0, [&] { order.push_back(1); });
  kernel.schedule_at(1.0, [&] { order.push_back(2); });
  kernel.schedule_at(1.0, [&] { order.push_back(3); });
  kernel.run_until(1.0);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Kernel, RunUntilStopsBeforeLaterEvents) {
  Kernel kernel;
  int fired = 0;
  kernel.schedule_at(1.0, [&] { ++fired; });
  kernel.schedule_at(2.0, [&] { ++fired; });
  kernel.run_until(1.5);
  EXPECT_EQ(fired, 1);
  ASSERT_TRUE(kernel.next_event_time().has_value());
  EXPECT_EQ(*kernel.next_event_time(), 2.0);
}

TEST(Kernel, HandlerMayScheduleSameTimeDelta) {
  Kernel kernel;
  std::vector<std::string> log;
  kernel.schedule_at(1.0, [&] {
    log.push_back("a");
    kernel.schedule_in(0.0, [&] { log.push_back("a-delta"); });
  });
  kernel.run_until(1.0);
  EXPECT_EQ(log, (std::vector<std::string>{"a", "a-delta"}));
}

TEST(Kernel, HandlerSchedulesFutureEventWithinRun) {
  Kernel kernel;
  std::vector<double> times;
  kernel.schedule_at(1.0, [&] {
    times.push_back(kernel.now());
    kernel.schedule_in(0.5, [&] { times.push_back(kernel.now()); });
  });
  kernel.run_until(2.0);
  ASSERT_EQ(times.size(), 2u);
  EXPECT_DOUBLE_EQ(times[0], 1.0);
  EXPECT_DOUBLE_EQ(times[1], 1.5);
}

TEST(Kernel, CancelPreventsExecution) {
  Kernel kernel;
  int fired = 0;
  const auto id = kernel.schedule_at(1.0, [&] { ++fired; });
  EXPECT_TRUE(kernel.cancel(id));
  EXPECT_FALSE(kernel.cancel(id));  // double cancel
  kernel.run_until(2.0);
  EXPECT_EQ(fired, 0);
}

TEST(Kernel, CancelledHeadSkippedInNextEventTime) {
  Kernel kernel;
  const auto id = kernel.schedule_at(1.0, [] {});
  kernel.schedule_at(2.0, [] {});
  kernel.cancel(id);
  ASSERT_TRUE(kernel.next_event_time().has_value());
  EXPECT_EQ(*kernel.next_event_time(), 2.0);
}

TEST(Kernel, RejectsPastScheduling) {
  Kernel kernel;
  kernel.run_until(5.0);
  EXPECT_THROW(kernel.schedule_at(1.0, [] {}), ModelError);
  EXPECT_THROW(kernel.schedule_in(-1.0, [] {}), ModelError);
  EXPECT_THROW(kernel.run_until(4.0), ModelError);
}

TEST(Kernel, NullHandlerRejected) {
  Kernel kernel;
  EXPECT_THROW(kernel.schedule_at(1.0, nullptr), ModelError);
}

TEST(Kernel, DeltaLoopGuardThrows) {
  Kernel kernel;
  std::function<void()> loop = [&] { kernel.schedule_in(0.0, loop); };
  kernel.schedule_at(0.0, loop);
  EXPECT_THROW(kernel.run_until(0.0), SolverError);
}

TEST(Kernel, EventCountTracksExecutions) {
  Kernel kernel;
  kernel.schedule_at(1.0, [] {});
  kernel.schedule_at(2.0, [] {});
  kernel.run_until(3.0);
  EXPECT_EQ(kernel.events_executed(), 2u);
}

TEST(Watchdog, FiresPeriodically) {
  Kernel kernel;
  int fired = 0;
  WatchdogTimer timer(kernel, 1.0, [&] { ++fired; });
  timer.start();
  kernel.run_until(3.5);
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(timer.expiries(), 3u);
}

TEST(Watchdog, StartAfterDelaysFirstExpiry) {
  Kernel kernel;
  std::vector<double> times;
  WatchdogTimer timer(kernel, 1.0, [&] { times.push_back(kernel.now()); });
  timer.start_after(0.25);
  kernel.run_until(2.5);
  ASSERT_EQ(times.size(), 3u);
  EXPECT_DOUBLE_EQ(times[0], 0.25);
  EXPECT_DOUBLE_EQ(times[1], 1.25);
  EXPECT_DOUBLE_EQ(times[2], 2.25);
}

TEST(Watchdog, StopHaltsExpiry) {
  Kernel kernel;
  int fired = 0;
  WatchdogTimer timer(kernel, 1.0, [&] { ++fired; });
  timer.start();
  kernel.run_until(1.5);
  timer.stop();
  kernel.run_until(5.0);
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(timer.running());
}

TEST(Watchdog, CallbackMayStopTimer) {
  Kernel kernel;
  int fired = 0;
  WatchdogTimer* self = nullptr;
  WatchdogTimer timer(kernel, 1.0, [&] {
    ++fired;
    self->stop();
  });
  self = &timer;
  timer.start();
  kernel.run_until(10.0);
  EXPECT_EQ(fired, 1);
}

TEST(Watchdog, InvalidConstruction) {
  Kernel kernel;
  EXPECT_THROW(WatchdogTimer(kernel, 0.0, [] {}), ModelError);
  EXPECT_THROW(WatchdogTimer(kernel, 1.0, nullptr), ModelError);
}

}  // namespace
