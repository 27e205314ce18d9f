/// \file test_serve.cpp
/// \brief The `ehsim serve` subsystem: protocol envelopes, the bounded job
/// queue and the daemon driven in-process.
///
/// The load-bearing assertions are the determinism ones: every response the
/// daemon streams must be bit-identical (rtol 0, atol 0) to a one-shot
/// execution of the same spec, ignoring only the run-dependent keys
/// cpu_seconds / shared_diode_table.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <mutex>
#include <optional>
#include <sstream>
#include <streambuf>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "experiments/ensemble.hpp"
#include "experiments/optimise_spec.hpp"
#include "experiments/scenarios.hpp"
#include "experiments/sweep.hpp"
#include "io/compare.hpp"
#include "io/json.hpp"
#include "io/spec_json.hpp"
#include "serve/job_queue.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"

namespace {

using namespace ehsim;
using namespace ehsim::serve;
using ehsim::experiments::ExperimentSpec;
using ehsim::io::JsonValue;

ExperimentSpec tiny_spec(const std::string& name) {
  ExperimentSpec spec = experiments::charging_scenario(0.05);
  spec.name = name;
  spec.trace_interval = 0.01;
  return spec;
}

std::string envelope(std::uint64_t id, const char* type, const JsonValue& spec) {
  JsonValue json = JsonValue::make_object();
  json.set("id", static_cast<double>(id));
  json.set("type", type);
  json.set("spec", spec);
  return json.dump(-1);
}

std::string control(std::uint64_t id, const char* type) {
  JsonValue json = JsonValue::make_object();
  json.set("id", static_cast<double>(id));
  json.set("type", type);
  return json.dump(-1);
}

/// Run a daemon over the script in-process and parse every emitted event.
std::vector<JsonValue> serve_session(const std::string& script,
                                     ServerOptions options = {}) {
  std::istringstream in(script);
  std::ostringstream out;
  Server server(in, out, options);
  EXPECT_EQ(server.run(), 0);
  std::vector<JsonValue> events;
  std::istringstream lines(out.str());
  std::string line;
  while (std::getline(lines, line)) {
    events.push_back(JsonValue::parse(line));
  }
  return events;
}

std::vector<JsonValue> events_of(const std::vector<JsonValue>& events, const char* kind,
                                 std::uint64_t id) {
  std::vector<JsonValue> matching;
  for (const JsonValue& event : events) {
    if (event.at("event").as_string() == kind && event.contains("id") &&
        event.at("id").as_number() == static_cast<double>(id)) {
      matching.push_back(event);
    }
  }
  return matching;
}

/// Bit-identity modulo the documented run-dependent keys.
void expect_identical(const JsonValue& expected, const JsonValue& actual) {
  io::CompareOptions options;
  options.rtol = 0.0;
  options.atol = 0.0;
  options.ignore_keys = {"cpu_seconds", "shared_diode_table"};
  const std::vector<std::string> diffs = io::compare_json(expected, actual, options);
  for (const std::string& diff : diffs) {
    ADD_FAILURE() << diff;
  }
}

// ---- protocol ---------------------------------------------------------------

TEST(ServeProtocol, ParsesJobAndControlEnvelopes) {
  const ExperimentSpec spec = tiny_spec("proto");
  const Request run = parse_request(envelope(7, "run", io::to_json(spec)));
  EXPECT_EQ(run.id, 7u);
  EXPECT_EQ(run.type, RequestType::kRun);
  ASSERT_NE(run.spec.get_if<ExperimentSpec>(), nullptr);
  EXPECT_EQ(*run.spec.get_if<ExperimentSpec>(), spec);

  const Request stats = parse_request(control(3, "stats"));
  EXPECT_EQ(stats.type, RequestType::kStats);
  EXPECT_EQ(parse_request(control(0, "shutdown")).type, RequestType::kShutdown);
  EXPECT_EQ(parse_request(control(9, "cancel")).type, RequestType::kCancel);
}

TEST(ServeProtocol, RejectionsNameTheOffendingKey) {
  const auto key_of = [](const std::string& line) {
    try {
      (void)parse_request(line);
    } catch (const ProtocolError& error) {
      return std::string(error.key());
    }
    return std::string("<accepted>");
  };

  EXPECT_EQ(key_of("this is not json"), "");
  EXPECT_EQ(key_of("[1, 2]"), "");
  EXPECT_EQ(key_of(R"({"type": "stats"})"), "id");
  EXPECT_EQ(key_of(R"({"id": -1, "type": "stats"})"), "id");
  EXPECT_EQ(key_of(R"({"id": 1.5, "type": "stats"})"), "id");
  EXPECT_EQ(key_of(R"({"id": "one", "type": "stats"})"), "id");
  EXPECT_EQ(key_of(R"({"id": 1})"), "type");
  EXPECT_EQ(key_of(R"({"id": 1, "type": "launch"})"), "type");
  EXPECT_EQ(key_of(R"({"id": 1, "type": "stats", "specc": 1})"), "specc");
  // A repeated key is malformed JSON, not "first copy wins".
  EXPECT_EQ(key_of(R"({"id": 1, "id": 2, "type": "stats"})"), "");
  EXPECT_EQ(key_of(R"({"id": 1, "type": "run"})"), "spec");
  EXPECT_EQ(key_of(R"({"id": 1, "type": "run", "spec": {}, "spec_path": "x"})"), "spec");
  EXPECT_EQ(key_of(R"({"id": 1, "type": "stats", "spec": {}})"), "spec");
  EXPECT_EQ(key_of(R"({"id": 1, "type": "run", "spec_path": "/no/such/file.json"})"),
            "spec_path");
  // A malformed payload names "spec"; a well-formed payload of the wrong
  // flavour names it too (a run envelope cannot carry a sweep spec).
  EXPECT_EQ(key_of(R"({"id": 1, "type": "run", "spec": {"type": "experiment", "nme": 1}})"),
            "spec");
  experiments::SweepSpec sweep;
  sweep.base = tiny_spec("zip");
  sweep.axes.push_back(experiments::SweepAxis{"spec.pre_tuned_hz", {69.0, 70.0}, {}});
  EXPECT_EQ(key_of(envelope(1, "run", io::to_json(sweep))), "spec");
  EXPECT_EQ(key_of(envelope(1, "sweep", io::to_json(tiny_spec("x")))), "spec");
}

// ---- job queue --------------------------------------------------------------

TEST(ServeJobQueue, FifoOrderAndCounters) {
  JobQueue queue(4);
  for (std::uint64_t id = 1; id <= 3; ++id) {
    Request request;
    request.id = id;
    request.type = RequestType::kStats;
    EXPECT_TRUE(queue.enqueue(std::move(request)));
  }
  JobQueue::Stats stats = queue.stats();
  EXPECT_EQ(stats.depth, 3u);
  EXPECT_EQ(stats.max_depth, 3u);
  EXPECT_EQ(stats.state, JobQueue::State::kAccepting);

  for (std::uint64_t id = 1; id <= 3; ++id) {
    const std::optional<Request> request = queue.dequeue();
    ASSERT_TRUE(request.has_value());
    EXPECT_EQ(request->id, id);  // strict FIFO through the ring
  }
  stats = queue.stats();
  EXPECT_EQ(stats.enqueued, 3u);
  EXPECT_EQ(stats.dequeued, 3u);
  EXPECT_EQ(stats.depth, 0u);
}

TEST(ServeJobQueue, CloseDrainsBacklogThenSignalsClosed) {
  JobQueue queue(4);
  Request request;
  request.type = RequestType::kStats;
  request.id = 1;
  EXPECT_TRUE(queue.enqueue(request));
  request.id = 2;
  EXPECT_TRUE(queue.enqueue(request));

  queue.close();
  EXPECT_EQ(queue.stats().state, JobQueue::State::kDraining);
  request.id = 3;
  EXPECT_FALSE(queue.enqueue(request));  // turned away, not blocked

  EXPECT_EQ(queue.dequeue()->id, 1u);  // backlog still served
  EXPECT_EQ(queue.dequeue()->id, 2u);
  EXPECT_FALSE(queue.dequeue().has_value());  // drained -> closed sentinel
  EXPECT_EQ(queue.stats().state, JobQueue::State::kClosed);
}

TEST(ServeJobQueue, BoundedRingBlocksProducerUntilSlotFrees) {
  JobQueue queue(1);
  std::atomic<int> produced{0};
  std::thread producer([&] {
    for (std::uint64_t id = 1; id <= 16; ++id) {
      Request request;
      request.id = id;
      request.type = RequestType::kStats;
      ASSERT_TRUE(queue.enqueue(std::move(request)));  // blocks while full
      produced.fetch_add(1);
    }
  });
  for (std::uint64_t id = 1; id <= 16; ++id) {
    const std::optional<Request> request = queue.dequeue();
    ASSERT_TRUE(request.has_value());
    EXPECT_EQ(request->id, id);
  }
  producer.join();
  EXPECT_EQ(produced.load(), 16);
  EXPECT_EQ(queue.stats().max_depth, 1u);  // the ring never grew past capacity
}

TEST(ServeJobQueue, ZeroCapacityIsRejected) {
  EXPECT_THROW(JobQueue queue(0), ModelError);
}

// The contended state-machine edges (close() racing a *blocked* enqueue,
// destruction right after the drain) live in test_concurrency_stress.cpp,
// where the TSan CI job hammers them from 8 threads. The two below pin the
// deterministic halves of those transitions.

TEST(ServeJobQueue, CloseWakesABlockedDequeueToTheClosedSentinel) {
  JobQueue queue(2);
  std::optional<Request> got;
  std::atomic<bool> returned{false};
  std::thread consumer([&] {
    got = queue.dequeue();  // blocks: empty but still accepting
    returned.store(true);
  });
  // Whether close() lands before or after the consumer parks on not_empty_,
  // the dequeue must return the closed sentinel — never hang.
  queue.close();
  consumer.join();
  EXPECT_TRUE(returned.load());
  EXPECT_FALSE(got.has_value());
  EXPECT_EQ(queue.stats().state, JobQueue::State::kClosed);
}

TEST(ServeJobQueue, CloseTurnsAwayABlockedEnqueueWithoutLosingTheBacklog) {
  JobQueue queue(1);
  Request request;
  request.type = RequestType::kStats;
  request.id = 1;
  ASSERT_TRUE(queue.enqueue(request));  // ring now full

  std::atomic<int> accepted{-1};
  std::thread producer([&] {
    Request blocked;
    blocked.type = RequestType::kStats;
    blocked.id = 2;
    accepted.store(queue.enqueue(std::move(blocked)) ? 1 : 0);
  });
  // No dequeue ever frees the slot, so the producer can only leave via
  // close(): it must be turned away (false), not block forever.
  queue.close();
  producer.join();
  EXPECT_EQ(accepted.load(), 0);

  EXPECT_EQ(queue.dequeue()->id, 1u);  // the accepted backlog still drains
  EXPECT_FALSE(queue.dequeue().has_value());
}

// ---- the daemon in-process --------------------------------------------------

TEST(ServeServer, RepeatedRunIsBitIdenticalToOneShot) {
  const ExperimentSpec spec = tiny_spec("repeat");
  const std::string script = envelope(1, "run", io::to_json(spec)) + "\n" +
                             envelope(2, "run", io::to_json(spec)) + "\n" +
                             control(3, "stats") + "\n" + control(4, "shutdown") + "\n";
  const std::vector<JsonValue> events = serve_session(script);

  ASSERT_EQ(events_of(events, "result", 1).size(), 1u);
  ASSERT_EQ(events_of(events, "result", 2).size(), 1u);
  const JsonValue cold = io::to_json(experiments::run_experiment(spec));
  expect_identical(cold, events_of(events, "result", 1)[0].at("result"));
  expect_identical(cold, events_of(events, "result", 2)[0].at("result"));

  const std::vector<JsonValue> stats = events_of(events, "stats", 3);
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].at("requests").at("completed").as_number(), 2.0);
  EXPECT_EQ(stats[0].at("queue").at("dequeued").as_number(), 3.0);
  EXPECT_TRUE(stats[0].at("diode_table").contains("hits"));
  ASSERT_EQ(events_of(events, "shutdown", 4).size(), 1u);
}

/// A request whose parameters differ from an earlier one must answer with
/// its own run — bit-identical to its one-shot run, and observably
/// different from the original's.
TEST(ServeServer, MutatedSpecIsAnsweredWithItsOwnRun) {
  const ExperimentSpec base = tiny_spec("split");
  ExperimentSpec mutated = base;
  mutated.overrides.push_back(
      experiments::ParamOverride{"supercap.initial_voltage", 0.5});

  const std::string script = envelope(1, "run", io::to_json(base)) + "\n" +
                             envelope(2, "run", io::to_json(mutated)) + "\n" +
                             control(3, "shutdown") + "\n";
  const std::vector<JsonValue> events = serve_session(script);

  const std::vector<JsonValue> first_events = events_of(events, "result", 1);
  const std::vector<JsonValue> second_events = events_of(events, "result", 2);
  ASSERT_EQ(first_events.size(), 1u);
  ASSERT_EQ(second_events.size(), 1u);
  const JsonValue first = first_events[0].at("result");
  const JsonValue second = second_events[0].at("result");
  expect_identical(io::to_json(experiments::run_experiment(base)), first);
  expect_identical(io::to_json(experiments::run_experiment(mutated)), second);
  // And the mutation is physically observable, so a reused answer could not
  // have produced the matching result by accident.
  EXPECT_NE(first.at("final_vc").as_number(), second.at("final_vc").as_number());
}

TEST(ServeServer, SweepStreamsPerJobResultsBitIdenticalToOneShot) {
  experiments::SweepSpec sweep;
  sweep.base = tiny_spec("serve-sweep");
  sweep.base.probes.push_back(experiments::ProbeSpec{
      "P_gen", experiments::ProbeSpec::Kind::kGeneratorPower});
  sweep.mode = experiments::SweepSpec::Mode::kZip;
  sweep.axes.push_back(experiments::SweepAxis{"spec.pre_tuned_hz", {69.5, 70.5}, {}});

  const std::string script =
      envelope(1, "sweep", io::to_json(sweep)) + "\n" + control(2, "shutdown") + "\n";
  const std::vector<JsonValue> events = serve_session(script);

  const std::vector<JsonValue> progress = events_of(events, "progress", 1);
  ASSERT_EQ(progress.size(), 1u);
  EXPECT_EQ(progress[0].at("jobs").as_number(), 2.0);

  const std::vector<JsonValue> results = events_of(events, "result", 1);
  ASSERT_EQ(results.size(), 2u);
  const std::vector<experiments::ScenarioResult> cold = experiments::run_sweep(sweep);
  ASSERT_EQ(cold.size(), 2u);
  for (std::size_t i = 0; i < cold.size(); ++i) {
    EXPECT_EQ(results[i].at("job").as_number(), static_cast<double>(i));
    expect_identical(io::to_json(cold[i]), results[i].at("result"));
  }
  // Probe summaries ride along per job.
  EXPECT_EQ(events_of(events, "probes", 1).size(), 2u);
}

TEST(ServeServer, RepeatedOptimiseIsBitIdenticalToOneShot) {
  experiments::OptimiseSpec spec;
  spec.name = "serve-optimise";
  spec.base = tiny_spec("serve-optimise-point");
  spec.base.probes.push_back(experiments::ProbeSpec{
      "P_gen", experiments::ProbeSpec::Kind::kGeneratorPower});
  spec.variable = "spec.pre_tuned_hz";
  spec.lower = 69.0;
  spec.upper = 71.0;
  spec.objective = "P_gen";
  spec.statistic = "mean";
  spec.max_evaluations = 4;
  spec.x_tolerance = 0.2;

  const std::string script = envelope(1, "optimise", io::to_json(spec)) + "\n" +
                             envelope(2, "optimise", io::to_json(spec)) + "\n" +
                             control(3, "shutdown") + "\n";
  const std::vector<JsonValue> events = serve_session(script);

  const JsonValue cold = io::to_json(experiments::run_optimise(spec));
  expect_identical(cold, events_of(events, "result", 1)[0].at("result"));
  expect_identical(cold, events_of(events, "result", 2)[0].at("result"));
}

TEST(ServeServer, MalformedEnvelopeEmitsErrorEventAndKeepsServing) {
  const ExperimentSpec spec = tiny_spec("after-error");
  const std::string script = std::string(R"({"id": 1, "type": "run", "speck": {}})") +
                             "\n" + envelope(2, "run", io::to_json(spec)) + "\n" +
                             control(3, "stats") + "\n" + control(4, "shutdown") + "\n";
  const std::vector<JsonValue> events = serve_session(script);

  const std::vector<JsonValue> errors = events_of(events, "error", 1);
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_EQ(errors[0].at("key").as_string(), "speck");  // names the bad field
  ASSERT_EQ(events_of(events, "result", 2).size(), 1u);  // daemon kept serving
  const std::vector<JsonValue> stats = events_of(events, "stats", 3);
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].at("requests").at("errors").as_number(), 1.0);
}

/// An envelope whose id is out of range (beyond 2^53, or beyond uint64)
/// gets an error event without an id: it must not be blamed on id 0.
TEST(ServeServer, OutOfRangeIdErrorsCarryNoId) {
  const std::string script = std::string(R"({"id": 1e300, "type": "run", "speck": {}})") +
                             "\n" +
                             R"({"id": 18446744073709551616, "type": "run", "speck": {}})" +
                             "\n" + R"({"id": 9007199254740994, "type": "stats"})" + "\n" +
                             R"({"id": 0, "type": "run", "speck": {}})" + "\n" +
                             control(5, "shutdown") + "\n";
  const std::vector<JsonValue> events = serve_session(script);

  std::size_t anonymous = 0;
  for (const JsonValue& event : events) {
    if (event.at("event").as_string() == "error" && !event.contains("id")) {
      ++anonymous;
    }
  }
  EXPECT_EQ(anonymous, 3u);
  // The one recoverable id is reported as itself.
  const std::vector<JsonValue> zero = events_of(events, "error", 0);
  ASSERT_EQ(zero.size(), 1u);
  EXPECT_EQ(zero[0].at("key").as_string(), "speck");
}

TEST(ServeServer, CancelSkipsAQueuedJob) {
  const ExperimentSpec spec = tiny_spec("cancel-me");
  // The cancel line precedes the jobs, so id 2 is marked before the worker
  // can reach it — it must be skipped with a cancelled event, no result.
  const std::string script = control(2, "cancel") + "\n" +
                             envelope(1, "run", io::to_json(spec)) + "\n" +
                             envelope(2, "run", io::to_json(spec)) + "\n" +
                             control(3, "shutdown") + "\n";
  const std::vector<JsonValue> events = serve_session(script);
  EXPECT_EQ(events_of(events, "result", 1).size(), 1u);
  EXPECT_EQ(events_of(events, "result", 2).size(), 0u);
  EXPECT_EQ(events_of(events, "cancelled", 2).size(), 1u);
}

/// An input streambuf the test feeds incrementally: the daemon's reader
/// blocks in getline until the next chunk arrives, which lets a test pin a
/// protocol line to a moment in the worker's timeline (e.g. "this cancel
/// arrives while job 1 is already running").
class PacedScript : public std::streambuf {
 public:
  void feed(const std::string& text) {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      pending_.append(text);
    }
    ready_.notify_all();
  }

  void finish() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      done_ = true;
    }
    ready_.notify_all();
  }

 protected:
  int_type underflow() override {
    std::unique_lock<std::mutex> lock(mutex_);
    ready_.wait(lock, [this] { return consumed_ < pending_.size() || done_; });
    if (consumed_ >= pending_.size()) {
      return traits_type::eof();
    }
    current_ = pending_[consumed_++];
    setg(&current_, &current_, &current_ + 1);
    return traits_type::to_int_type(current_);
  }

 private:
  std::mutex mutex_;
  std::condition_variable ready_;
  std::string pending_;
  std::size_t consumed_ = 0;
  bool done_ = false;
  char current_ = 0;
};

/// The daemon's output stream as the test sees it: the worker writes event
/// lines from its own thread while the test waits for a particular one.
class WatchedOutput : public std::streambuf {
 public:
  /// Wait up to \p limit for a complete line for which \p match holds;
  /// false on timeout.
  template <typename Match>
  bool wait_for_line(Match match, std::chrono::seconds limit) {
    std::unique_lock<std::mutex> lock(mutex_);
    return ready_.wait_for(lock, limit, [&] {
      for (std::size_t end; (end = text_.find('\n', scanned_)) != std::string::npos;) {
        const std::string line = text_.substr(scanned_, end - scanned_);
        scanned_ = end + 1;
        if (match(line)) {
          matched_ = true;
        }
      }
      return matched_;
    });
  }

  [[nodiscard]] std::string text() {
    const std::lock_guard<std::mutex> lock(mutex_);
    return text_;
  }

 protected:
  int_type overflow(int_type ch) override {
    if (!traits_type::eq_int_type(ch, traits_type::eof())) {
      const char c = traits_type::to_char_type(ch);
      xsputn(&c, 1);
    }
    return traits_type::not_eof(ch);
  }

  std::streamsize xsputn(const char* data, std::streamsize count) override {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      text_.append(data, static_cast<std::size_t>(count));
    }
    ready_.notify_all();
    return count;
  }

 private:
  std::mutex mutex_;
  std::condition_variable ready_;
  std::string text_;
  std::size_t scanned_ = 0;
  bool matched_ = false;
};

TEST(ServeServer, CancelOfARunningJobDoesNotLeakOntoALaterSameIdRequest) {
  // Regression: a cancel envelope that arrives while its id is already
  // *executing* used to stay in the cancel set forever, spuriously
  // cancelling the next request that reused the id. The cancel is fed only
  // once job 1 has emitted its `started` event, so it lands while job 1
  // runs, whatever the engine's speed: job 1 simulates 20 s of model time,
  // far longer than the cancel takes to reach the reader.
  ExperimentSpec slow = tiny_spec("stale-cancel-first");
  slow.duration = 20.0;
  const ExperimentSpec second = tiny_spec("stale-cancel-second");

  PacedScript script;
  std::istream in(&script);
  WatchedOutput watched;
  std::ostream out(&watched);
  ServerOptions options;
  Server server(in, out, options);

  bool saw_started = false;
  std::thread feeder([&script, &watched, &slow, &second, &saw_started] {
    script.feed(envelope(1, "run", io::to_json(slow)) + "\n");
    saw_started = watched.wait_for_line(
        [](const std::string& line) {
          const JsonValue event = JsonValue::parse(line);
          return event.at("event").as_string() == "started" && event.contains("id") &&
                 event.at("id").as_number() == 1.0;
        },
        std::chrono::seconds(120));
    script.feed(control(1, "cancel") + "\n" +
                envelope(1, "run", io::to_json(second)) + "\n" +
                control(9, "shutdown") + "\n");
    script.finish();
  });
  EXPECT_EQ(server.run(), 0);
  feeder.join();
  ASSERT_TRUE(saw_started) << "job 1 never reported started";

  std::vector<JsonValue> events;
  std::istringstream lines(watched.text());
  std::string line;
  while (std::getline(lines, line)) {
    events.push_back(JsonValue::parse(line));
  }

  // The second id-1 request must complete: the stale cancel consumed (or
  // raced into) job 1 never outlives it.
  bool second_completed = false;
  for (const JsonValue& event : events_of(events, "result", 1)) {
    if (event.at("result").at("scenario").as_string() == "stale-cancel-second") {
      second_completed = true;
    }
  }
  EXPECT_TRUE(second_completed);
  // And the one cancel envelope can cancel at most one job.
  EXPECT_LE(events_of(events, "cancelled", 1).size(), 1u);
}

TEST(ServeServer, EndOfInputDrainsWithoutShutdownEvent) {
  const ExperimentSpec spec = tiny_spec("eof");
  const std::vector<JsonValue> events =
      serve_session(envelope(1, "run", io::to_json(spec)) + "\n");
  EXPECT_EQ(events_of(events, "result", 1).size(), 1u);
  for (const JsonValue& event : events) {
    EXPECT_NE(event.at("event").as_string(), "shutdown");
  }
}

// ---- checkpoint / resume / ensemble envelopes -------------------------------

/// Scratch directory for the checkpoint serve tests.
struct ScratchDir {
  std::filesystem::path path;
  explicit ScratchDir(const std::string& name)
      : path(std::filesystem::temp_directory_path() / ("ehsim_serve_" + name)) {
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~ScratchDir() { std::filesystem::remove_all(path); }
  [[nodiscard]] std::string str() const { return path.string(); }
};

/// tiny_spec plus a seeded drift walk (the variation an ensemble needs).
ExperimentSpec tiny_walk_spec(const std::string& name) {
  ExperimentSpec spec = tiny_spec(name);
  experiments::RandomWalkParams walk;
  walk.step_interval = 0.005;
  walk.frequency_sigma = 0.3;
  walk.seed = 5;
  walk.min_frequency_hz = 60.0;
  walk.max_frequency_hz = 80.0;
  spec.excitation.random_walk(0.01, 0.03, walk);
  return spec;
}

std::string envelope_checkpointed(std::uint64_t id, const char* type, const JsonValue& spec,
                                  const std::string& dir, double every) {
  JsonValue json = JsonValue::make_object();
  json.set("id", static_cast<double>(id));
  json.set("type", type);
  json.set("spec", spec);
  JsonValue checkpoint = JsonValue::make_object();
  checkpoint.set("dir", dir);
  if (every > 0.0) {
    checkpoint.set("every", every);
  }
  json.set("checkpoint", checkpoint);
  return json.dump(-1);
}

TEST(ServeProtocol, ParsesEnsembleResumeAndCheckpointEnvelopes) {
  experiments::EnsembleSpec ensemble;
  ensemble.base = tiny_walk_spec("proto-ens");
  ensemble.seeds = {1, 2};
  const Request parsed = parse_request(envelope(11, "ensemble", io::to_json(ensemble)));
  EXPECT_EQ(parsed.type, RequestType::kEnsemble);
  ASSERT_NE(parsed.spec.get_if<experiments::EnsembleSpec>(), nullptr);
  EXPECT_EQ(*parsed.spec.get_if<experiments::EnsembleSpec>(), ensemble);
  EXPECT_FALSE(parsed.checkpoint.has_value());

  const ExperimentSpec spec = tiny_spec("proto-ckpt");
  const Request run =
      parse_request(envelope_checkpointed(12, "run", io::to_json(spec), "ckpt", 2.5));
  ASSERT_TRUE(run.checkpoint.has_value());
  EXPECT_EQ(run.checkpoint->dir, "ckpt");
  EXPECT_EQ(run.checkpoint->every, 2.5);

  // Resume may omit "every": finish the run without writing more files.
  const Request resume =
      parse_request(envelope_checkpointed(13, "resume", io::to_json(spec), "ckpt", 0.0));
  EXPECT_EQ(resume.type, RequestType::kResume);
  ASSERT_TRUE(resume.checkpoint.has_value());
  EXPECT_EQ(resume.checkpoint->every, 0.0);
  // ...and accepts a sweep spec too (a checkpointed sweep resumes as one).
  experiments::SweepSpec sweep;
  sweep.base = tiny_spec("proto-resume-sweep");
  sweep.axes.push_back(experiments::SweepAxis{"spec.pre_tuned_hz", {69.0, 70.0}, {}});
  EXPECT_EQ(parse_request(envelope_checkpointed(14, "resume", io::to_json(sweep), "ckpt", 0.0))
                .type,
            RequestType::kResume);
}

TEST(ServeProtocol, CheckpointRejectionsNameTheOffendingKey) {
  const auto key_of = [](const std::string& line) {
    try {
      (void)parse_request(line);
    } catch (const ProtocolError& error) {
      return std::string(error.key());
    }
    return std::string("<accepted>");
  };
  const JsonValue spec = io::to_json(tiny_spec("ckpt-reject"));
  experiments::EnsembleSpec ensemble;
  ensemble.base = tiny_walk_spec("ckpt-reject-ens");
  ensemble.seeds = {1, 2};

  // Malformed checkpoint blocks: not an object, missing "every" on run,
  // unknown key, non-positive cadence.
  const auto with_checkpoint = [&](const JsonValue& block) {
    JsonValue json = JsonValue::make_object();
    json.set("id", 1.0);
    json.set("type", "run");
    json.set("spec", spec);
    json.set("checkpoint", block);
    return json.dump(-1);
  };
  EXPECT_EQ(key_of(with_checkpoint(JsonValue(7.0))), "checkpoint");
  EXPECT_EQ(key_of(envelope_checkpointed(1, "run", spec, "ckpt", 0.0)), "checkpoint");
  {
    JsonValue block = JsonValue::make_object();
    block.set("dir", "ckpt");
    block.set("evry", 1.0);
    EXPECT_EQ(key_of(with_checkpoint(block)), "checkpoint");
    block = JsonValue::make_object();
    block.set("dir", "ckpt");
    block.set("every", -1.0);
    EXPECT_EQ(key_of(with_checkpoint(block)), "checkpoint");
    block = JsonValue::make_object();
    block.set("every", 1.0);
    EXPECT_EQ(key_of(with_checkpoint(block)), "checkpoint");
  }
  // Checkpointing only applies to run/sweep/resume.
  EXPECT_EQ(key_of(envelope_checkpointed(1, "ensemble", io::to_json(ensemble), "ckpt", 1.0)),
            "checkpoint");
  // Resume cannot work without a checkpoint directory.
  EXPECT_EQ(key_of(envelope(1, "resume", spec)), "checkpoint");
  // Payload/type mismatches for the new job types still name the spec.
  EXPECT_EQ(key_of(envelope(1, "ensemble", spec)), "spec");
  EXPECT_EQ(key_of(envelope(1, "run", io::to_json(ensemble))), "spec");
}

TEST(ServeServer, CheckpointedRunStreamsCheckpointEventsAndMatchesDirect) {
  const ExperimentSpec spec = tiny_spec("serve-ckpt");
  ScratchDir serve_dir("run_events");
  ScratchDir direct_dir("run_events_direct");

  const std::string script =
      envelope_checkpointed(1, "run", io::to_json(spec), serve_dir.str(), 0.02) + "\n" +
      control(2, "shutdown") + "\n";
  const std::vector<JsonValue> events = serve_session(script);

  // 0.05 s at a 0.02 s cadence: checkpoints at 0.02, 0.04 and 0.05.
  const std::vector<JsonValue> checkpoints = events_of(events, "checkpoint", 1);
  ASSERT_EQ(checkpoints.size(), 3u);
  EXPECT_EQ(checkpoints[0].at("sim_time").as_number(), 0.02);
  EXPECT_EQ(checkpoints[1].at("sim_time").as_number(), 0.04);
  EXPECT_EQ(checkpoints[2].at("sim_time").as_number(), 0.05);
  for (const JsonValue& event : checkpoints) {
    EXPECT_EQ(event.at("job").as_string(), "serve-ckpt");
    EXPECT_TRUE(std::filesystem::exists(event.at("path").as_string()));
  }

  // The result is the checkpointed trajectory, bit for bit.
  experiments::CheckpointOptions direct;
  direct.every = 0.02;
  direct.dir = direct_dir.str();
  const auto cold =
      run_experiment_checkpointed(spec, direct);
  ASSERT_TRUE(cold.has_value());
  const std::vector<JsonValue> results = events_of(events, "result", 1);
  ASSERT_EQ(results.size(), 1u);
  expect_identical(io::to_json(*cold), results[0].at("result"));
}

TEST(ServeServer, ResumeContinuesKilledRunBitIdentically) {
  const ExperimentSpec spec = tiny_spec("serve-resume");
  ScratchDir kill_dir("resume_kill");
  ScratchDir full_dir("resume_full");

  // Kill the run out of band after its first checkpoint...
  experiments::CheckpointOptions kill;
  kill.every = 0.02;
  kill.dir = kill_dir.str();
  kill.abort_after = 1;
  ASSERT_FALSE(
      run_experiment_checkpointed(spec, kill).has_value());

  // ...and let the daemon finish it from the files left on disk.
  const std::string script =
      envelope_checkpointed(1, "resume", io::to_json(spec), kill_dir.str(), 0.02) + "\n" +
      control(2, "shutdown") + "\n";
  const std::vector<JsonValue> events = serve_session(script);

  experiments::CheckpointOptions full;
  full.every = 0.02;
  full.dir = full_dir.str();
  const auto uninterrupted =
      run_experiment_checkpointed(spec, full);
  ASSERT_TRUE(uninterrupted.has_value());
  const std::vector<JsonValue> results = events_of(events, "result", 1);
  ASSERT_EQ(results.size(), 1u);
  expect_identical(io::to_json(*uninterrupted), results[0].at("result"));
  // The daemon resumed mid-run instead of starting over: the remaining
  // boundaries (0.04, 0.05) fire, the already-written 0.02 one does not.
  EXPECT_EQ(events_of(events, "checkpoint", 1).size(), 2u);
}

TEST(ServeServer, EnsembleStreamsStatisticsBitIdenticalToDirect) {
  experiments::EnsembleSpec ensemble;
  ensemble.base = tiny_walk_spec("serve-ensemble");
  ensemble.seeds = {4, 9, 2};

  const std::string script =
      envelope(1, "ensemble", io::to_json(ensemble)) + "\n" + control(2, "shutdown") + "\n";
  const std::vector<JsonValue> events = serve_session(script);

  const std::vector<JsonValue> progress = events_of(events, "progress", 1);
  ASSERT_EQ(progress.size(), 1u);
  EXPECT_EQ(progress[0].at("jobs").as_number(), 3.0);

  const std::vector<JsonValue> results = events_of(events, "result", 1);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].at("type").as_string(), "ensemble");
  EXPECT_EQ(results[0].at("replicas").as_number(), 3.0);
  const experiments::EnsembleResult cold = experiments::run_ensemble(ensemble);
  expect_identical(io::to_json(cold), results[0].at("result"));
}

}  // namespace
