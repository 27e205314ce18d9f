#include "serve/server.hpp"

#include <exception>
#include <functional>
#include <istream>
#include <optional>
#include <ostream>
#include <thread>
#include <utility>
#include <vector>

#include "experiments/probes.hpp"
#include "io/spec_json.hpp"
#include "pwl/table_cache.hpp"
#include "serve/execute.hpp"

namespace ehsim::serve {
namespace {

/// A line that failed full validation may still be well-formed enough to
/// carry an id — recover it (under the same check parse_request applies) so
/// the error event can be correlated with the request that caused it.
std::optional<std::uint64_t> best_effort_id(const std::string& line) {
  try {
    return envelope_id(io::JsonValue::parse(line));
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

io::JsonValue event_base(const char* event, std::uint64_t id) {
  io::JsonValue json = io::JsonValue::make_object();
  json.set("id", static_cast<double>(id));
  json.set("event", event);
  return json;
}

/// Per-probe summary block of the "probes" event: the reduced statistics
/// only, not the trace — clients wanting the column read the result event.
io::JsonValue probes_summary(const std::vector<experiments::ProbeResult>& probes) {
  io::JsonValue array = io::JsonValue::make_array();
  for (const auto& probe : probes) {
    io::JsonValue entry = io::JsonValue::make_object();
    entry.set("label", probe.label);
    entry.set("final", io::JsonValue::finite_or_null(probe.final_value));
    entry.set("mean", io::JsonValue::finite_or_null(probe.mean));
    entry.set("rms", io::JsonValue::finite_or_null(probe.rms));
    entry.set("min", io::JsonValue::finite_or_null(probe.minimum));
    entry.set("max", io::JsonValue::finite_or_null(probe.maximum));
    array.push_back(std::move(entry));
  }
  return array;
}

/// Streams one request's execution as NDJSON events.
class EventSink final : public ExecuteSink {
 public:
  EventSink(const Request& request, std::function<void(const io::JsonValue&)> emit)
      : request_(request), emit_(std::move(emit)) {}

  void started(const std::string& name) override {
    io::JsonValue event = base("started");
    event.set("type", type());
    event.set("name", name);
    emit_(event);
  }

  void progress(std::size_t jobs) override {
    io::JsonValue event = base("progress");
    event.set("jobs", static_cast<double>(jobs));
    emit_(event);
  }

  void checkpoint(const std::string& path, const std::string& job, double sim_time) override {
    io::JsonValue event = base("checkpoint");
    event.set("job", job);
    event.set("path", path);
    event.set("sim_time", sim_time);
    emit_(event);
  }

  void result(const experiments::ScenarioResult& result, std::size_t job,
              std::size_t jobs) override {
    emit_probes(result);
    io::JsonValue done = result_base();
    if (jobs > 0) {
      done.set("job", static_cast<double>(job));
      done.set("jobs", static_cast<double>(jobs));
    }
    done.set("result", io::to_json(result));
    emit_(done);
  }

  void result(const experiments::EnsembleResult& result) override {
    io::JsonValue done = result_base();
    done.set("replicas", static_cast<double>(result.runs.size()));
    done.set("result", io::to_json(result));
    emit_(done);
  }

  void result(const experiments::OptimiseResult& result) override {
    emit_probes(result.best_run);
    io::JsonValue done = result_base();
    done.set("evaluations", static_cast<double>(result.evaluations.size()));
    done.set("result", io::to_json(result));
    emit_(done);
  }

  void result(const experiments::AccuracyReport& report) override {
    io::JsonValue done = result_base();
    done.set("result", io::to_json(report));
    emit_(done);
  }

  void result(const experiments::AutotuneOutcome& outcome) override {
    emit_probes(outcome.best_run);
    io::JsonValue done = result_base();
    done.set("evaluations", static_cast<double>(outcome.result.evaluations));
    done.set("result", io::to_json(outcome.result));
    emit_(done);
  }

 private:
  [[nodiscard]] io::JsonValue base(const char* event) const {
    return event_base(event, request_.id);
  }
  [[nodiscard]] const char* type() const { return request_type_id(request_.type); }
  [[nodiscard]] io::JsonValue result_base() const {
    io::JsonValue done = base("result");
    done.set("type", type());
    return done;
  }
  void emit_probes(const experiments::ScenarioResult& run) {
    if (run.probes.empty()) return;
    io::JsonValue probes = base("probes");
    probes.set("scenario", run.scenario);
    probes.set("probes", probes_summary(run.probes));
    emit_(probes);
  }

  const Request& request_;
  std::function<void(const io::JsonValue&)> emit_;
};

/// One coherent copy of the Server counters, taken under stats_mutex_ so
/// the stats event never mixes values from different instants.
struct Snapshot {
  std::size_t received = 0;
  std::size_t completed = 0;
  std::size_t errors = 0;
  std::size_t cancelled = 0;
};

}  // namespace

Server::Server(std::istream& in, std::ostream& out, ServerOptions options)
    : in_(in),
      options_(std::move(options)),
      queue_(options_.queue_capacity),
      out_(out) {}

void Server::emit(const io::JsonValue& event) {
  const std::string line = event.dump(-1);
  const core::MutexLock lock(out_mutex_);
  out_ << line << '\n' << std::flush;
}

void Server::emit_error(std::uint64_t id, bool has_id, const std::string& message,
                        const std::string& key) {
  io::JsonValue json = io::JsonValue::make_object();
  if (has_id) json.set("id", static_cast<double>(id));
  json.set("event", "error");
  json.set("error", message);
  if (!key.empty()) json.set("key", key);
  {
    const core::MutexLock lock(stats_mutex_);
    ++errors_;
  }
  emit(json);
}

int Server::run() {
  {
    io::JsonValue ready = io::JsonValue::make_object();
    ready.set("event", "ready");
    ready.set("protocol", 1.0);
    emit(ready);
  }

  std::thread worker(&Server::worker_loop, this);

  std::string line;
  while (std::getline(in_, line)) {
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    Request request;
    try {
      request = parse_request(line);
    } catch (const ProtocolError& error) {
      const std::optional<std::uint64_t> id = best_effort_id(line);
      emit_error(id.value_or(0), id.has_value(), error.what(), error.key());
      continue;
    }
    {
      const core::MutexLock lock(stats_mutex_);
      ++received_;
    }
    if (request.type == RequestType::kCancel) {
      const core::MutexLock lock(cancel_mutex_);
      cancel_set_.insert(request.id);
      continue;
    }
    const bool is_shutdown = request.type == RequestType::kShutdown;
    queue_.enqueue(std::move(request));
    if (is_shutdown) break;  // anything after a shutdown request is ignored
  }

  queue_.close();
  worker.join();
  return 0;
}

void Server::worker_loop() {
  while (true) {
    std::optional<Request> request = queue_.dequeue();
    if (!request) return;
    bool cancelled = false;
    {
      const core::MutexLock lock(cancel_mutex_);
      cancelled = cancel_set_.erase(request->id) > 0;
    }
    if (cancelled) {
      // The emit happens outside cancel_mutex_ — bookkeeping locks are
      // never held across the emission lock (docs/concurrency.md).
      {
        const core::MutexLock lock(stats_mutex_);
        ++cancelled_;
      }
      emit(event_base("cancelled", request->id));
      continue;
    }
    handle(*request);
    // A cancel that raced in while this id was *running* must not linger:
    // the job already completed, and a stale entry would spuriously cancel
    // a later request that reuses the id.
    {
      const core::MutexLock lock(cancel_mutex_);
      cancel_set_.erase(request->id);
    }
  }
}

void Server::handle(const Request& request) {
  try {
    switch (request.type) {
      case RequestType::kStats:
        emit_stats(request.id);
        break;
      case RequestType::kShutdown:
        emit(event_base("shutdown", request.id));
        break;
      case RequestType::kCancel:
        return;  // handled by the reader; never enqueued
      default: {
        EventSink sink(request, [this](const io::JsonValue& event) { emit(event); });
        ExecuteOptions options;
        options.threads = options_.threads;
        options.out_dir = options_.out_dir;
        options.checkpoint = request.checkpoint;
        execute(request.type, request.spec, options, sink);
        break;
      }
    }
    count_completed();
  } catch (const std::exception& error) {
    emit_error(request.id, true, error.what(), "");
  }
}

void Server::count_completed() {
  const core::MutexLock lock(stats_mutex_);
  ++completed_;
}

void Server::emit_stats(std::uint64_t id) {
  // One atomic snapshot of every counter pair (the worker thread executes
  // stats requests in queue order, so the snapshot is also linearised with
  // job execution — no job is half-counted).
  Snapshot snapshot;
  {
    const core::MutexLock lock(stats_mutex_);
    snapshot.received = received_;
    snapshot.completed = completed_;
    snapshot.errors = errors_;
    snapshot.cancelled = cancelled_;
  }

  io::JsonValue json = event_base("stats", id);

  io::JsonValue requests = io::JsonValue::make_object();
  requests.set("received", static_cast<double>(snapshot.received));
  requests.set("completed", static_cast<double>(snapshot.completed));
  requests.set("errors", static_cast<double>(snapshot.errors));
  requests.set("cancelled", static_cast<double>(snapshot.cancelled));
  json.set("requests", std::move(requests));

  const JobQueue::Stats queue = queue_.stats();
  io::JsonValue queue_json = io::JsonValue::make_object();
  queue_json.set("capacity", static_cast<double>(queue.capacity));
  queue_json.set("enqueued", static_cast<double>(queue.enqueued));
  queue_json.set("dequeued", static_cast<double>(queue.dequeued));
  queue_json.set("max_depth", static_cast<double>(queue.max_depth));
  json.set("queue", std::move(queue_json));

  const pwl::TableCacheStats diode = pwl::diode_table_cache_stats();
  io::JsonValue diode_json = io::JsonValue::make_object();
  diode_json.set("entries", static_cast<double>(diode.entries));
  diode_json.set("hits", static_cast<double>(diode.hits));
  diode_json.set("misses", static_cast<double>(diode.misses));
  json.set("diode_table", std::move(diode_json));

  emit(json);
}

}  // namespace ehsim::serve
