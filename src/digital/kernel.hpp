/// \file kernel.hpp
/// \brief Event-driven digital simulation kernel (SystemC-lite).
///
/// The paper models the microcontroller "as a digital process" using
/// "standard SystemC modules". This kernel reproduces the part of the
/// SystemC discrete-event semantics the harvester control needs: timed
/// events and deterministic ordering (time, then insertion sequence). The
/// mixed-signal scheduler (core/mixed_signal.hpp) interleaves this kernel
/// with the analogue march-in-time sweep: the analogue step never overshoots
/// the next digital event, which is the property that lets the feed-forward
/// explicit solver interface "easily with a digital kernel" (paper §II).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <queue>
#include <unordered_set>
#include <vector>

#include "common/error.hpp"
#include "io/json.hpp"

namespace ehsim::digital {

/// Simulation time in seconds.
using SimTime = double;

/// Handle used to cancel a scheduled event.
using EventId = std::uint64_t;

/// Discrete-event kernel.
class Kernel {
 public:
  Kernel() = default;

  /// Current simulation time.
  [[nodiscard]] SimTime now() const noexcept { return now_; }

  /// Schedule \p handler at absolute time \p t (>= now). Returns an id that
  /// can be passed to cancel().
  EventId schedule_at(SimTime t, std::function<void()> handler);
  /// Schedule \p handler \p dt seconds from now (dt >= 0; dt == 0 runs it
  /// at the current time, after the events already queued there).
  EventId schedule_in(SimTime dt, std::function<void()> handler);

  /// Cancel a pending event; returns true when the event was still pending.
  bool cancel(EventId id);

  /// Earliest pending event time, if any (skips cancelled events).
  [[nodiscard]] std::optional<SimTime> next_event_time();

  /// Execute every event with time <= t, advancing now() as events run, then
  /// set now() = t. Events scheduled by handlers (including zero-delay
  /// events) are honoured within the same call.
  void run_until(SimTime t);

  /// Number of events executed since construction (diagnostics).
  [[nodiscard]] std::uint64_t events_executed() const noexcept { return events_executed_; }

  // ---- Checkpoint support ---------------------------------------------------
  // Handlers are closures and cannot serialise; instead the kernel exposes
  // its clock/counter state and the exact ordering key of each pending
  // event, and every event *owner* (watchdog, MCU, ...) re-arms its own
  // pending events at restore through schedule_restored, preserving the
  // (time, delta, seq, id) tuple bit for bit so the resumed event order is
  // identical to the uninterrupted run's.

  /// Ordering identity of one pending event.
  struct PendingEvent {
    SimTime time = 0.0;
    std::uint64_t delta = 0;
    std::uint64_t seq = 0;
    EventId id = 0;
  };

  /// The ordering key of a still-pending (non-cancelled) event, or nullopt.
  [[nodiscard]] std::optional<PendingEvent> pending_info(EventId id) const;
  /// Counters for the checkpoint document.
  [[nodiscard]] std::uint64_t next_seq() const noexcept { return next_seq_; }
  [[nodiscard]] EventId next_id() const noexcept { return next_id_; }

  /// Begin a restore: drop every queued event (cancelled ones included) and
  /// set the clock/counters verbatim. Owners re-arm afterwards.
  void restore_clock(SimTime now, std::uint64_t next_seq, EventId next_id,
                     std::uint64_t events_executed);
  /// Re-create a pending event with its exact checkpointed ordering key.
  /// Requires seq < next_seq() and 0 < id < next_id() (the identity was
  /// allocated before the checkpoint) and a time >= now().
  void schedule_restored(const PendingEvent& event, std::function<void()> handler);

  /// Guard against runaway same-time loops (two processes retriggering each
  /// other at the same timestamp forever).
  static constexpr std::uint64_t kMaxEventsPerTimestep = 10000;

 private:
  struct Event {
    SimTime time = 0.0;
    std::uint64_t delta = 0;  ///< phase within the same time (0 unless restored)
    std::uint64_t seq = 0;    ///< insertion order for determinism
    EventId id = 0;
    std::function<void()> handler;
    /// Min-queue ordering.
    [[nodiscard]] bool operator>(const Event& other) const noexcept {
      if (time != other.time) {
        return time > other.time;
      }
      if (delta != other.delta) {
        return delta > other.delta;
      }
      return seq > other.seq;
    }
  };

  EventId enqueue(SimTime t, std::function<void()> handler);
  /// Pop cancelled events off the queue head.
  void drop_cancelled();

  std::priority_queue<Event, std::vector<Event>, std::greater<>> queue_;
  std::unordered_set<EventId> cancelled_;
  SimTime now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  EventId next_id_ = 1;
  std::uint64_t events_executed_ = 0;
};

/// JSON codec for a pending event's ordering key (checkpoint layer); a
/// nullopt encodes as JSON null.
[[nodiscard]] io::JsonValue pending_event_to_json(const std::optional<Kernel::PendingEvent>& p);
[[nodiscard]] std::optional<Kernel::PendingEvent> pending_event_from_json(
    const io::JsonValue& value, const std::string& what);

}  // namespace ehsim::digital
