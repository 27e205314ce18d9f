#include "digital/kernel.hpp"

#include <cmath>

#include "common/assert.hpp"
#include "io/state_json.hpp"

namespace ehsim::digital {

EventId Kernel::enqueue(SimTime t, std::function<void()> handler) {
  if (!handler) {
    throw ModelError("Kernel: event handler is required");
  }
  if (!(t >= now_) || !std::isfinite(t)) {
    throw ModelError("Kernel: cannot schedule an event in the past");
  }
  const EventId id = next_id_++;
  queue_.push(Event{t, 0, next_seq_++, id, std::move(handler)});
  return id;
}

EventId Kernel::schedule_at(SimTime t, std::function<void()> handler) {
  return enqueue(t, std::move(handler));
}

EventId Kernel::schedule_in(SimTime dt, std::function<void()> handler) {
  if (dt < 0.0 || !std::isfinite(dt)) {
    throw ModelError("Kernel: negative or non-finite delay");
  }
  return enqueue(now_ + dt, std::move(handler));
}

bool Kernel::cancel(EventId id) {
  if (id == 0 || id >= next_id_) {
    return false;
  }
  // Double-cancel and cancel-after-run both return false: the id is only in
  // cancelled_ while the event is still queued.
  return cancelled_.insert(id).second;
}

void Kernel::drop_cancelled() {
  while (!queue_.empty()) {
    const auto it = cancelled_.find(queue_.top().id);
    if (it == cancelled_.end()) {
      return;
    }
    cancelled_.erase(it);
    queue_.pop();
  }
}

std::optional<SimTime> Kernel::next_event_time() {
  drop_cancelled();
  if (queue_.empty()) {
    return std::nullopt;
  }
  return queue_.top().time;
}

void Kernel::run_until(SimTime t) {
  if (!(t >= now_)) {
    throw ModelError("Kernel::run_until: time must not go backwards");
  }
  while (true) {
    drop_cancelled();
    if (queue_.empty() || queue_.top().time > t) {
      break;
    }
    // Execute one timestamp completely before moving on.
    const SimTime ts = queue_.top().time;
    EHSIM_ASSERT(ts >= now_, "event queue went backwards");
    now_ = ts;
    std::uint64_t events = 0;
    while (true) {
      drop_cancelled();
      if (queue_.empty() || queue_.top().time != ts) {
        break;
      }
      if (++events > kMaxEventsPerTimestep) {
        throw SolverError("Kernel: same-time event limit exceeded (combinational loop?)");
      }
      Event ev = queue_.top();
      queue_.pop();
      ++events_executed_;
      ev.handler();
    }
  }
  now_ = t;
}

std::optional<Kernel::PendingEvent> Kernel::pending_info(EventId id) const {
  if (id == 0 || cancelled_.contains(id)) {
    return std::nullopt;
  }
  // The priority queue hides its container; a copy-and-drain scan is fine
  // here because pending_info only runs while writing a checkpoint.
  auto copy = queue_;
  while (!copy.empty()) {
    const Event& ev = copy.top();
    if (ev.id == id) {
      return PendingEvent{ev.time, ev.delta, ev.seq, ev.id};
    }
    copy.pop();
  }
  return std::nullopt;
}

void Kernel::restore_clock(SimTime now, std::uint64_t next_seq, EventId next_id,
                           std::uint64_t events_executed) {
  if (!std::isfinite(now) || next_id == 0) {
    throw ModelError("Kernel::restore_clock: malformed clock state");
  }
  queue_ = {};
  cancelled_.clear();
  now_ = now;
  next_seq_ = next_seq;
  next_id_ = next_id;
  events_executed_ = events_executed;
}

void Kernel::schedule_restored(const PendingEvent& event, std::function<void()> handler) {
  if (!handler) {
    throw ModelError("Kernel: event handler is required");
  }
  if (!(event.time >= now_) || !std::isfinite(event.time)) {
    throw ModelError("Kernel::schedule_restored: event time precedes the restored clock");
  }
  if (event.seq >= next_seq_ || event.id == 0 || event.id >= next_id_) {
    throw ModelError("Kernel::schedule_restored: event identity was never allocated");
  }
  queue_.push(Event{event.time, event.delta, event.seq, event.id, std::move(handler)});
}

io::JsonValue pending_event_to_json(const std::optional<Kernel::PendingEvent>& p) {
  if (!p.has_value()) {
    return io::JsonValue(nullptr);
  }
  io::JsonValue object = io::JsonValue::make_object();
  object.set("time", io::real_to_json(p->time));
  object.set("delta", io::u64_to_json(p->delta));
  object.set("seq", io::u64_to_json(p->seq));
  object.set("id", io::u64_to_json(p->id));
  return object;
}

std::optional<Kernel::PendingEvent> pending_event_from_json(const io::JsonValue& value,
                                                            const std::string& what) {
  if (value.is_null()) {
    return std::nullopt;
  }
  io::check_state_keys(value, what, {"time", "delta", "seq", "id"});
  Kernel::PendingEvent pending;
  pending.time = io::real_from_json(io::require_key(value, what, "time"), what + ".time");
  pending.delta = io::u64_from_json(io::require_key(value, what, "delta"), what + ".delta");
  pending.seq = io::u64_from_json(io::require_key(value, what, "seq"), what + ".seq");
  pending.id = io::u64_from_json(io::require_key(value, what, "id"), what + ".id");
  return pending;
}

}  // namespace ehsim::digital
