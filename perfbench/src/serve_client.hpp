/// \file serve_client.hpp
/// \brief A closed-loop client of one in-process serve::Server.
///
/// The server reads from a paced input stream the client feeds one envelope
/// at a time and writes into an output stream that timestamps every event
/// line as it is completed. The client releases the next envelope only after
/// the previous request's `result` (or `error`) event has been written.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "io/json.hpp"

namespace perfbench {

/// One request's view from the client.
struct ServedRequest {
  double latency_ms = 0.0;   ///< envelope release -> `result` event
  double dispatch_ms = 0.0;  ///< envelope release -> `started` event
  double exec_ms = 0.0;      ///< `started` -> `result`
  bool error = false;        ///< an `error` event answered the request
  /// The `result` payload (the one-shot result document); null on error.
  ehsim::io::JsonValue result;
};

struct ServeSession {
  double setup_s = 0.0;  ///< Server construction -> `ready` event
  std::vector<ServedRequest> requests;
  /// The `stats` event answering the stats request sent after the last run.
  ehsim::io::JsonValue stats;
};

/// Drive a fresh Server through \p envelopes (compact JSON lines; ids
/// 1..N in order), then a stats request and a shutdown.
[[nodiscard]] ServeSession run_serve_session(const std::vector<std::string>& envelopes);

/// Construct a Server and wait for its `ready` event, then shut it down:
/// one set-up sample [s].
[[nodiscard]] double serve_setup_seconds();

}  // namespace perfbench
