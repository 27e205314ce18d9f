/// \file test_sim_batch.cpp
/// \brief Session lifecycle and BatchRunner determinism tests.
///
/// The contract under test: a parallel sweep produces results *bit-identical*
/// to the serial run of the same jobs, in job order, because every job owns
/// its model/engine/trace and slot i is written only by job i.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "core/linearised_solver.hpp"
#include "experiments/scenarios.hpp"
#include "sim/batch_runner.hpp"
#include "sim/harvester_session.hpp"
#include "sim/session.hpp"
#include "support/test_blocks.hpp"

namespace {

using ehsim::ModelError;
using ehsim::core::LinearisedSolver;
using ehsim::core::SystemAssembler;
using ehsim::sim::BatchRunner;
using ehsim::sim::HarvesterSession;
using ehsim::sim::Session;
using ehsim::testing::CapacitorBlock;
using ehsim::testing::SourceResistorBlock;

// ---- BatchRunner ----------------------------------------------------------

TEST(BatchRunner, MapPreservesJobOrder) {
  BatchRunner runner(4);
  EXPECT_EQ(runner.thread_count(), 4u);
  // Earlier jobs sleep longer, so completion order inverts submission order;
  // the result vector must still be indexed by job.
  const auto results = runner.map<int>(16, [](std::size_t i) {
    std::this_thread::sleep_for(std::chrono::milliseconds((16 - i) % 4));
    return static_cast<int>(i * i);
  });
  ASSERT_EQ(results.size(), 16u);
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i], static_cast<int>(i * i));
  }
}

TEST(BatchRunner, SerialRunnerExecutesInline) {
  BatchRunner runner(1);
  EXPECT_EQ(runner.thread_count(), 1u);
  std::vector<std::size_t> order;
  runner.for_each_index(5, [&order](std::size_t i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(BatchRunner, SerialRunnerDrainsBeforeRethrowLikeParallel) {
  // Error-case side effects must match the parallel path: every
  // non-throwing job runs, then the lowest-index exception surfaces.
  BatchRunner runner(1);
  std::vector<std::size_t> ran;
  try {
    runner.for_each_index(5, [&ran](std::size_t i) {
      if (i == 1) {
        throw std::runtime_error("one");
      }
      ran.push_back(i);
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& error) {
    EXPECT_STREQ(error.what(), "one");
  }
  EXPECT_EQ(ran, (std::vector<std::size_t>{0, 2, 3, 4}));
}

TEST(BatchRunner, LowestIndexExceptionWinsAfterDrain) {
  BatchRunner runner(4);
  std::atomic<int> completed{0};
  try {
    runner.for_each_index(8, [&completed](std::size_t i) {
      if (i == 5) {
        throw std::runtime_error("five");
      }
      if (i == 2) {
        throw std::runtime_error("two");
      }
      ++completed;
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& error) {
    EXPECT_STREQ(error.what(), "two");  // lowest job index
  }
  EXPECT_EQ(completed.load(), 6);  // every non-throwing job still ran
  // The pool survives a failed batch.
  const auto results = runner.map<int>(3, [](std::size_t i) { return static_cast<int>(i); });
  EXPECT_EQ(results, (std::vector<int>{0, 1, 2}));
}

TEST(BatchRunner, EmptyBatchIsANoOp) {
  BatchRunner runner(2);
  runner.for_each_index(0, [](std::size_t) { FAIL() << "no jobs expected"; });
}

// ---- parallel == serial on real scenario sweeps ---------------------------

TEST(BatchRunner, FourWayParallelSweepBitIdenticalToSerial) {
  using namespace ehsim::experiments;
  std::vector<ScenarioJob> jobs;
  for (const double v0 : {0.5, 1.5, 2.5, 3.3}) {
    ScenarioJob job;
    job.spec = charging_scenario(1.5);
    job.params = experiment_params(job.spec);
    job.params->supercap.initial_voltage = v0;
    jobs.push_back(std::move(job));
  }

  const auto serial = run_scenario_batch(jobs, {.threads = 1});
  const auto parallel = run_scenario_batch(jobs, {.threads = 4});

  ASSERT_EQ(serial.size(), jobs.size());
  ASSERT_EQ(parallel.size(), jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(serial[i].stats.steps, parallel[i].stats.steps) << "job " << i;
    EXPECT_EQ(serial[i].time, parallel[i].time) << "job " << i;
    EXPECT_EQ(serial[i].vc, parallel[i].vc) << "job " << i;  // bit-identical
    EXPECT_EQ(serial[i].final_vc, parallel[i].final_vc) << "job " << i;
    EXPECT_EQ(serial[i].power_mean, parallel[i].power_mean) << "job " << i;
  }
  // The sweep actually varied: different initial voltages, different traces.
  EXPECT_NE(parallel[0].final_vc, parallel[3].final_vc);
}

// ---- Session lifecycle ----------------------------------------------------

struct RcModel {
  SystemAssembler assembler;
  RcModel() {
    const auto source = assembler.add_block(
        std::make_unique<SourceResistorBlock>([](double) { return 1.0; }, 10.0));
    const auto cap = assembler.add_block(std::make_unique<CapacitorBlock>(0.05, 0.0));
    const auto v = assembler.net("V");
    const auto i = assembler.net("I");
    assembler.bind(source, 0, v);
    assembler.bind(source, 1, i);
    assembler.bind(cap, 0, v);
    assembler.bind(cap, 1, i);
    assembler.elaborate();
  }
};

TEST(Session, MatchesDirectSolverBitForBit) {
  RcModel direct;
  LinearisedSolver solver(direct.assembler);
  solver.initialise(0.0);
  solver.advance_to(1.0);

  RcModel managed;
  Session session(managed.assembler);
  session.run_until(1.0);  // auto-initialises at t = 0

  ASSERT_EQ(solver.state().size(), session.engine().state().size());
  EXPECT_EQ(solver.state()[0], session.engine().state()[0]);
  EXPECT_EQ(solver.stats().steps, session.stats().steps);
  EXPECT_EQ(solver.stats().jacobian_builds, session.stats().jacobian_builds);
}

TEST(Session, TraceAndObserversRecord) {
  RcModel model;
  Session session(model.assembler);
  auto& trace = session.enable_trace(0.01);
  trace.probe_state("cap.vc");
  std::size_t observed = 0;
  session.add_observer(
      [&observed](double, std::span<const double>, std::span<const double>) { ++observed; });
  session.run_until(0.5);
  EXPECT_GT(trace.size(), 10u);
  EXPECT_GT(observed, trace.size());  // observer sees every accepted point
  EXPECT_GT(session.cpu_seconds(), 0.0);
}

TEST(Session, LifecycleMisuseThrows) {
  RcModel model;
  Session session(model.assembler);
  EXPECT_THROW((void)session.trace(), ModelError);
  session.initialise(0.0);
  EXPECT_THROW(session.initialise(0.0), ModelError);
  EXPECT_THROW(session.on_initialised([](ehsim::core::AnalogEngine&) {}), ModelError);
  session.enable_trace(0.01);
  EXPECT_THROW(session.enable_trace(0.01), ModelError);
}

TEST(Session, ReadyHooksRunOnInitialise) {
  RcModel model;
  Session session(model.assembler);
  bool hook_ran = false;
  session.on_initialised([&hook_ran](ehsim::core::AnalogEngine& engine) {
    hook_ran = true;
    EXPECT_EQ(engine.time(), 0.25);
  });
  session.initialise(0.25);
  EXPECT_TRUE(hook_ran);
}

TEST(HarvesterSession, RunsTheFullModelWithMcu) {
  using namespace ehsim;
  const auto params =
      experiments::experiment_params(experiments::charging_scenario(1.0));
  HarvesterSession::Options options;
  options.with_mcu = true;
  HarvesterSession session(params, options);
  EXPECT_EQ(session.system().assembler().num_states(), 11u);
  session.run_until(0.5);
  EXPECT_GT(session.stats().steps, 0u);
  EXPECT_GT(session.session().sync_points(), 0u);  // MCU watchdog fired
}

TEST(HarvesterSession, BaselineEngineFactoryPlugsIn) {
  using namespace ehsim;
  HarvesterSession::Options options;
  options.mode = harvester::DeviceEvalMode::kExactShockley;
  options.engine_factory = [](core::SystemAssembler& system) {
    return experiments::make_engine(experiments::EngineKind::kSystemVision, system);
  };
  HarvesterSession session(harvester::HarvesterParams{}, options);
  session.run_until(0.01);
  EXPECT_GT(session.stats().newton_iterations, 0u);
}

}  // namespace
