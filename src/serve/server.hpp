/// \file server.hpp
/// \brief The `ehsim serve` daemon: a long-lived simulation service.
///
/// One Server instance reads newline-delimited request envelopes (see
/// protocol.hpp) from an input stream, schedules the job types through a
/// bounded JobQueue onto a single simulation worker thread, and streams
/// newline-delimited JSON events back: progress, per-probe summaries, full
/// result documents and counters, each tagged with the request id.
///
/// Every job request runs through serve::execute (execute.hpp), the same
/// executor `ehsim <verb>` calls, so every response is the one-shot
/// document of the same spec — modulo the run-dependent field
/// "cpu_seconds" (the golden serve ctest pins exactly this with
/// `compare --ignore`). The only state requests share is the process-wide
/// PWL diode-table cache (pwl/table_cache.hpp). Wire protocol reference:
/// docs/serve_protocol.md.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <unordered_set>

#include "core/thread_annotations.hpp"
#include "io/json.hpp"
#include "serve/job_queue.hpp"

namespace ehsim::serve {

struct ServerOptions {
  /// Sweep, ensemble and accuracy worker threads (0: the spec's own
  /// setting, then hardware concurrency). Runs and optimise/autotune
  /// searches are inherently serial.
  std::size_t threads = 0;
  /// Non-empty: also write each request's files exactly as the one-shot CLI
  /// would (<stem>.result.json / .trace.csv / .<verb>.json under this
  /// directory).
  std::string out_dir{};
  /// Job-queue ring capacity (blocking back-pressure past this depth).
  std::size_t queue_capacity = 16;
};

/// The daemon. Construct over any istream/ostream pair (the CLI passes
/// stdin/stdout; tests and benchmarks drive it in-process over
/// stringstreams).
class Server {
 public:
  Server(std::istream& in, std::ostream& out, ServerOptions options = {});

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Serve until a shutdown request or end of input; returns the process
  /// exit code (0). The calling thread becomes the protocol reader; one
  /// internal worker thread executes jobs strictly in queue order.
  int run();

 private:
  void emit(const io::JsonValue& event) EHSIM_EXCLUDES(out_mutex_);
  void emit_error(std::uint64_t id, bool has_id, const std::string& message,
                  const std::string& key) EHSIM_EXCLUDES(stats_mutex_, out_mutex_);
  /// Executed on the worker thread in queue order, so the emitted snapshot
  /// is linearised with job execution: it reflects every job dequeued
  /// before this stats request, and none after (docs/serve_protocol.md).
  void emit_stats(std::uint64_t id) EHSIM_EXCLUDES(stats_mutex_, out_mutex_);

  /// Count one completed request (`completed` in the stats event).
  void count_completed() EHSIM_EXCLUDES(stats_mutex_);

  void worker_loop();
  /// Run one dequeued request: control types here, job types through
  /// serve::execute with an NDJSON event sink.
  void handle(const Request& request);

  std::istream& in_;
  ServerOptions options_;

  JobQueue queue_;

  // Lock hierarchy (docs/concurrency.md): cancel_mutex_ and stats_mutex_
  // are bookkeeping locks acquired strictly before (never inside) the
  // out_mutex_ emission lock; no two server locks are ever held together.
  // All three are leaves with respect to JobQueue internals.
  core::Mutex out_mutex_ EHSIM_ACQUIRED_AFTER(cancel_mutex_, stats_mutex_);
  std::ostream& out_ EHSIM_GUARDED_BY(out_mutex_);

  /// Ids whose queued (not yet started) job should be dropped. Written by
  /// the reader on a cancel envelope, consumed by the worker.
  core::Mutex cancel_mutex_;
  std::unordered_set<std::uint64_t> cancel_set_ EHSIM_GUARDED_BY(cancel_mutex_);

  /// Request counters. One mutex guards them all so a `stats` snapshot is
  /// atomic with respect to both the reader thread (received/errors) and
  /// the worker thread (completed/cancelled).
  mutable core::Mutex stats_mutex_;
  std::size_t received_ EHSIM_GUARDED_BY(stats_mutex_) = 0;
  std::size_t completed_ EHSIM_GUARDED_BY(stats_mutex_) = 0;
  std::size_t errors_ EHSIM_GUARDED_BY(stats_mutex_) = 0;
  std::size_t cancelled_ EHSIM_GUARDED_BY(stats_mutex_) = 0;
};

}  // namespace ehsim::serve
