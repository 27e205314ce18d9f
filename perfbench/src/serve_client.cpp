#include "serve_client.hpp"

#include <condition_variable>
#include <istream>
#include <mutex>
#include <ostream>
#include <stdexcept>
#include <streambuf>
#include <thread>

#include "common.hpp"
#include "serve/server.hpp"

namespace perfbench {
namespace {

using ehsim::io::JsonValue;

/// Input the server's reader blocks on until the client feeds the next
/// envelope (end of input after finish()).
class PacedInput : public std::streambuf {
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
    ready_.wait(lock, [this] { return !pending_.empty() || done_; });
    if (pending_.empty()) return traits_type::eof();
    current_.swap(pending_);
    pending_.clear();
    setg(current_.data(), current_.data(), current_.data() + current_.size());
    return traits_type::to_int_type(current_.front());
  }

 private:
  std::mutex mutex_;
  std::condition_variable ready_;
  std::string pending_;
  bool done_ = false;
  std::string current_;  // reader-thread only
};

/// Output that stamps each event line with the moment its newline arrived.
class LineSink : public std::streambuf {
 public:
  struct Line {
    std::string text;
    Clock::time_point written;
  };

  /// Line \p index, waiting for it to be written.
  Line wait_line(std::size_t index) {
    std::unique_lock<std::mutex> lock(mutex_);
    if (!ready_.wait_for(lock, std::chrono::seconds(120),
                         [&] { return lines_.size() > index; })) {
      throw std::runtime_error("serve session: no event within 120 s");
    }
    return lines_[index];
  }

 protected:
  int_type overflow(int_type c) override {
    if (!traits_type::eq_int_type(c, traits_type::eof())) {
      const char ch = traits_type::to_char_type(c);
      append(&ch, 1);
    }
    return traits_type::not_eof(c);
  }

  std::streamsize xsputn(const char* text, std::streamsize n) override {
    append(text, static_cast<std::size_t>(n));
    return n;
  }

 private:
  void append(const char* text, std::size_t n) {
    bool completed = false;
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      for (std::size_t i = 0; i < n; ++i) {
        if (text[i] == '\n') {
          lines_.push_back({std::move(partial_), Clock::now()});
          partial_.clear();
          completed = true;
        } else {
          partial_.push_back(text[i]);
        }
      }
    }
    if (completed) ready_.notify_all();
  }

  std::mutex mutex_;
  std::condition_variable ready_;
  std::string partial_;
  std::vector<Line> lines_;
};

std::string control_envelope(std::size_t id, const char* type) {
  JsonValue envelope = JsonValue::make_object();
  envelope.set("id", static_cast<double>(id));
  envelope.set("type", type);
  return envelope.dump(-1) + "\n";
}

/// A Server running on its own thread over a paced input and a line sink.
/// The destructor ends the input and joins, also on exception paths.
class ServerHarness {
 public:
  ServerHarness() : in_(&input_), out_(&sink_), construct_(Clock::now()), server_(in_, out_) {
    thread_ = std::thread([this] { server_.run(); });
  }
  ServerHarness(const ServerHarness&) = delete;
  ServerHarness& operator=(const ServerHarness&) = delete;
  ~ServerHarness() {
    input_.finish();
    thread_.join();
  }

  /// Seconds from construction to the `ready` event (always line 0).
  double wait_ready() { return seconds_between(construct_, next_line().written); }

  void feed(const std::string& text) { input_.feed(text); }
  LineSink::Line next_line() { return sink_.wait_line(next_++); }

 private:
  PacedInput input_;
  LineSink sink_;
  std::istream in_;
  std::ostream out_;
  Clock::time_point construct_;
  ehsim::serve::Server server_;
  std::size_t next_ = 0;
  std::thread thread_;
};

}  // namespace

ServeSession run_serve_session(const std::vector<std::string>& envelopes) {
  ServeSession session;
  ServerHarness server;
  session.setup_s = server.wait_ready();

  for (const std::string& envelope : envelopes) {
    ServedRequest request;
    const Clock::time_point release = Clock::now();
    Clock::time_point started = release;
    server.feed(envelope + "\n");
    while (true) {
      const LineSink::Line line = server.next_line();
      JsonValue event = JsonValue::parse(line.text);
      const std::string& kind = event.at("event").as_string();
      if (kind == "started") {
        started = line.written;
      } else if (kind == "result" || kind == "error") {
        request.latency_ms = seconds_between(release, line.written) * 1e3;
        request.dispatch_ms = seconds_between(release, started) * 1e3;
        request.exec_ms = seconds_between(started, line.written) * 1e3;
        request.error = kind == "error";
        if (!request.error) request.result = event.at("result");
        if (request.error) {
          std::fprintf(stderr, "perfbench: serve error: %s\n", line.text.c_str());
        }
        break;
      }
    }
    session.requests.push_back(std::move(request));
  }

  server.feed(control_envelope(envelopes.size() + 1, "stats"));
  while (true) {
    JsonValue event = JsonValue::parse(server.next_line().text);
    if (event.at("event").as_string() == "stats") {
      session.stats = std::move(event);
      break;
    }
  }
  server.feed(control_envelope(envelopes.size() + 2, "shutdown"));
  return session;
}

double serve_setup_seconds() {
  ServerHarness server;
  const double setup = server.wait_ready();
  server.feed(control_envelope(1, "shutdown"));
  return setup;
}

}  // namespace perfbench
