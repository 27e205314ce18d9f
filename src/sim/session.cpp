#include "sim/session.hpp"

#include <chrono>

#include "common/error.hpp"
#include "core/linearised_solver.hpp"
#include "io/state_json.hpp"

namespace ehsim::sim {

Session::Session(std::shared_ptr<void> model, core::SystemAssembler& assembler,
                 digital::Kernel* kernel, const EngineFactory& factory)
    : model_(std::move(model)), assembler_(&assembler), kernel_(kernel) {
  if (!factory) {
    throw ModelError("Session: null engine factory");
  }
  if (!assembler_->elaborated()) {
    assembler_->elaborate();
  }
  engine_ = factory(*assembler_);
  if (!engine_) {
    throw ModelError("Session: engine factory returned null");
  }
}

Session::Session(core::SystemAssembler& assembler, core::SolverConfig config)
    : Session(nullptr, assembler, nullptr, [config](core::SystemAssembler& system) {
        return std::make_unique<core::LinearisedSolver>(system, config);
      }) {}

core::TraceRecorder& Session::enable_trace(double min_interval) {
  if (trace_) {
    throw ModelError("Session: trace already enabled");
  }
  trace_ = std::make_unique<core::TraceRecorder>(*engine_, min_interval);
  return *trace_;
}

core::TraceRecorder& Session::trace() {
  if (!trace_) {
    throw ModelError("Session: trace not enabled — call enable_trace() first");
  }
  return *trace_;
}

void Session::add_observer(core::SolutionObserver observer) {
  engine_->add_observer(std::move(observer));
}

core::ProbeHub& Session::probes() {
  if (!probes_) {
    probes_ = std::make_unique<core::ProbeHub>();
    probes_->attach(*engine_);
  }
  return *probes_;
}

void Session::on_initialised(EngineHook hook) {
  if (!hook) {
    throw ModelError("Session: null ready hook");
  }
  if (initialised_) {
    throw ModelError("Session: on_initialised after initialise()");
  }
  ready_hooks_.push_back(std::move(hook));
}

void Session::initialise(double t0) {
  if (initialised_) {
    throw ModelError("Session: already initialised");
  }
  engine_->initialise(t0);
  for (const auto& hook : ready_hooks_) {
    hook(*engine_);
  }
  if (kernel_ != nullptr) {
    scheduler_.emplace(*engine_, *kernel_);
  }
  initialised_ = true;
}

void Session::run_until(double t_end) {
  if (!initialised_) {
    initialise(0.0);
  }
  // Accumulate the wall cost even when the engine throws (diverged runs
  // still report how long they burned).
  struct Accumulate {
    double* total;
    // lint:allow wall-clock -- feeds only the cpu_seconds reporting field
    std::chrono::steady_clock::time_point start = std::chrono::steady_clock::now();
    ~Accumulate() {
      *total +=  // lint:allow wall-clock
          std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    }
  } accumulate{&cpu_seconds_};
  if (scheduler_) {
    scheduler_->run_until(t_end);
  } else {
    engine_->advance_to(t_end);
  }
}

std::uint64_t Session::sync_points() const noexcept {
  return scheduler_ ? scheduler_->sync_points() : 0;
}

void Session::register_checkpoint_section(std::string name, StateSaver saver,
                                          StateRestorer restorer) {
  if (name.empty() || !saver || !restorer) {
    throw ModelError("Session: checkpoint section needs a name, a saver and a restorer");
  }
  for (const auto& section : sections_) {
    if (section.name == name) {
      throw ModelError("Session: duplicate checkpoint section '" + name + "'");
    }
  }
  sections_.push_back(CheckpointSection{std::move(name), std::move(saver), std::move(restorer)});
}

Checkpoint Session::save_checkpoint(io::JsonValue meta) {
  Checkpoint checkpoint = snapshot(std::move(meta));
  engine_->checkpoint_cut();
  return checkpoint;
}

Checkpoint Session::snapshot(io::JsonValue meta) const {
  if (!initialised_) {
    throw ModelError("Session: cannot checkpoint before initialise()");
  }
  io::JsonValue payload = io::JsonValue::make_object();
  if (kernel_ != nullptr) {
    io::JsonValue clock = io::JsonValue::make_object();
    clock.set("now", io::real_to_json(kernel_->now()));
    clock.set("next_seq", io::u64_to_json(kernel_->next_seq()));
    clock.set("next_id", io::u64_to_json(kernel_->next_id()));
    clock.set("events_executed", io::u64_to_json(kernel_->events_executed()));
    payload.set("kernel", std::move(clock));
  } else {
    payload.set("kernel", io::JsonValue(nullptr));
  }
  io::JsonValue sections = io::JsonValue::make_object();
  for (const auto& section : sections_) {
    sections.set(section.name, section.save());
  }
  payload.set("sections", std::move(sections));
  payload.set("engine", engine_->checkpoint_state());
  payload.set("trace", trace_ ? trace_->checkpoint_state() : io::JsonValue(nullptr));
  payload.set("probes", probes_ ? probes_->checkpoint_state() : io::JsonValue(nullptr));
  payload.set("sync_points", io::u64_to_json(sync_points()));
  payload.set("cpu_seconds", io::real_to_json(cpu_seconds_));

  Checkpoint checkpoint;
  checkpoint.meta = std::move(meta);
  checkpoint.payload = std::move(payload);
  return checkpoint;
}

void Session::restore_checkpoint(const Checkpoint& checkpoint) {
  if (!initialised_) {
    // The restore target must be fully wired (engine built, hooks run,
    // scheduler attached) — initialise at 0 and overwrite everything below.
    initialise(0.0);
  }
  const std::string what = "session checkpoint";
  const io::JsonValue& payload = checkpoint.payload;
  io::check_state_keys(payload, what,
                       {"kernel", "sections", "engine", "trace", "probes", "sync_points",
                        "cpu_seconds"});

  // 1. Kernel clock first: clears the event queue (including events armed by
  //    initialise(), e.g. the watchdog) so sections can re-arm exactly.
  const io::JsonValue& clock = io::require_key(payload, what, "kernel");
  if ((kernel_ != nullptr) != !clock.is_null()) {
    throw ModelError(what + ": digital-kernel presence does not match the checkpoint");
  }
  if (kernel_ != nullptr) {
    const std::string clock_what = what + ".kernel";
    io::check_state_keys(clock, clock_what, {"now", "next_seq", "next_id", "events_executed"});
    kernel_->restore_clock(
        io::real_from_json(io::require_key(clock, clock_what, "now"), clock_what + ".now"),
        io::u64_from_json(io::require_key(clock, clock_what, "next_seq"),
                          clock_what + ".next_seq"),
        io::u64_from_json(io::require_key(clock, clock_what, "next_id"),
                          clock_what + ".next_id"),
        io::u64_from_json(io::require_key(clock, clock_what, "events_executed"),
                          clock_what + ".events_executed"));
  }

  // 2. Model-side sections (block epochs, load modes, MCU state machine and
  //    every pending event's exact identity).
  // Section names are dynamic, so the unknown-key check is spelled by hand.
  const io::JsonValue& sections = io::require_key(payload, what, "sections");
  for (const auto& [key, value] : sections.as_object()) {
    (void)value;
    bool known = false;
    for (const auto& section : sections_) {
      known = known || section.name == key;
    }
    if (!known) {
      throw ModelError(what + ": unknown section '" + key + "'");
    }
  }
  for (const auto& section : sections_) {
    const io::JsonValue* value = sections.find(section.name);
    if (value == nullptr) {
      throw ModelError(what + ": checkpoint is missing section '" + section.name + "'");
    }
    section.restore(*value);
  }

  // 3. Engine — after the model, so its residual consistency check evaluates
  //    the restored model at the restored point.
  engine_->restore_checkpoint_state(io::require_key(payload, what, "engine"));

  // 4. Observation state.
  const io::JsonValue& trace_state = io::require_key(payload, what, "trace");
  if ((trace_ != nullptr) != !trace_state.is_null()) {
    throw ModelError(what + ": trace-recorder presence does not match the checkpoint");
  }
  if (trace_) {
    trace_->restore_checkpoint_state(trace_state);
  }
  const io::JsonValue& probe_state = io::require_key(payload, what, "probes");
  if ((probes_ != nullptr) != !probe_state.is_null()) {
    throw ModelError(what + ": probe-hub presence does not match the checkpoint");
  }
  if (probes_) {
    probes_->restore_checkpoint_state(probe_state);
  }

  // 5. Counters.
  const std::uint64_t sync = io::u64_from_json(io::require_key(payload, what, "sync_points"),
                                               what + ".sync_points");
  if (scheduler_) {
    scheduler_->restore_sync_points(sync);
  } else if (sync != 0) {
    throw ModelError(what + ": sync_points present without a mixed-signal scheduler");
  }
  cpu_seconds_ = io::real_from_json(io::require_key(payload, what, "cpu_seconds"),
                                    what + ".cpu_seconds");
}

}  // namespace ehsim::sim
