/// \file session.hpp
/// \brief One transient simulation run behind a single reusable handle.
///
/// Every workload in this repository used to repeat the same five-line
/// ritual: build a model, create an engine over its assembler, attach a
/// trace recorder and observers, initialise, then either advance the engine
/// directly or co-simulate through the digital kernel. Session owns that
/// assembler -> engine -> digital-kernel lifecycle: it keeps the model
/// alive, constructs the engine through a factory, runs post-initialise
/// hooks (e.g. wiring the MCU probes to the live engine), routes run_until
/// through the mixed-signal scheduler exactly when a kernel is present, and
/// accumulates the wall-clock cost of the run — the quantity the paper's
/// Tables I/II report.
///
/// Sessions are self-contained (no shared mutable state), so independent
/// Sessions can run concurrently — the property BatchRunner exploits.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "core/mixed_signal.hpp"
#include "core/probe.hpp"
#include "core/solver_config.hpp"
#include "core/trace.hpp"
#include "digital/kernel.hpp"
#include "sim/checkpoint.hpp"

namespace ehsim::sim {

class Session {
 public:
  /// Builds the engine over the elaborated assembler.
  using EngineFactory =
      std::function<std::unique_ptr<core::AnalogEngine>(core::SystemAssembler&)>;
  /// Invoked right after engine initialisation (e.g. HarvesterSystem::
  /// attach_engine, which starts the MCU watchdog against the live engine).
  using EngineHook = std::function<void(core::AnalogEngine&)>;

  /// Generic constructor: \p model is an opaque keepalive owning whatever
  /// the assembler and kernel live in; \p kernel may be null (pure analogue
  /// run, run_until degenerates to engine advance).
  Session(std::shared_ptr<void> model, core::SystemAssembler& assembler,
          digital::Kernel* kernel, const EngineFactory& factory);

  /// Convenience: linearised state-space engine over an externally-owned
  /// assembler, no digital kernel. The caller keeps the assembler alive.
  explicit Session(core::SystemAssembler& assembler, core::SolverConfig config = {});

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;
  Session(Session&&) = default;
  Session& operator=(Session&&) = default;

  [[nodiscard]] core::AnalogEngine& engine() noexcept { return *engine_; }
  [[nodiscard]] const core::AnalogEngine& engine() const noexcept { return *engine_; }
  [[nodiscard]] core::SystemAssembler& assembler() noexcept { return *assembler_; }
  [[nodiscard]] digital::Kernel* kernel() noexcept { return kernel_; }

  /// Create the trace recorder (once, before the run produces points).
  core::TraceRecorder& enable_trace(double min_interval);
  /// The recorder; throws ModelError when enable_trace was never called.
  [[nodiscard]] core::TraceRecorder& trace();
  [[nodiscard]] const core::TraceRecorder& trace() const;
  [[nodiscard]] bool has_trace() const noexcept { return trace_ != nullptr; }

  /// Register an observer on the engine (before points are produced).
  void add_observer(core::SolutionObserver observer);
  /// The probe hub, created (and attached to the engine) on first use —
  /// every probe channel of the run rides this single engine observer. Add
  /// channels before the run produces points.
  [[nodiscard]] core::ProbeHub& probes();
  [[nodiscard]] bool has_probes() const noexcept { return probes_ != nullptr; }
  /// Register a hook run right after initialise().
  void on_initialised(EngineHook hook);

  /// Establish the operating point at \p t0 and run the ready hooks.
  void initialise(double t0 = 0.0);
  [[nodiscard]] bool initialised() const noexcept { return initialised_; }

  /// Advance to \p t_end — through the mixed-signal scheduler when a kernel
  /// is attached, directly on the engine otherwise. Auto-initialises at 0
  /// on first use. Wall-clock cost accumulates into cpu_seconds(). Returns
  /// early, with time() < t_end, when the engine paused
  /// (core::LinearisedSolver::pause_before); calling it again resumes.
  void run_until(double t_end);

  [[nodiscard]] double time() const { return engine_->time(); }
  [[nodiscard]] const core::SolverStats& stats() const { return engine_->stats(); }
  [[nodiscard]] const char* engine_name() const { return engine_->engine_name(); }
  /// Accumulated wall-clock seconds spent inside run_until().
  [[nodiscard]] double cpu_seconds() const noexcept { return cpu_seconds_; }
  /// Analogue/digital synchronisation points (0 without a kernel).
  [[nodiscard]] std::uint64_t sync_points() const noexcept;

  // ---- Checkpoint / restart -------------------------------------------------

  /// Serialise one model-side state section into the checkpoint document.
  using StateSaver = std::function<io::JsonValue()>;
  /// Inverse of StateSaver; called with the section's saved value. Pending
  /// digital events must be re-armed here (the kernel queue is cleared
  /// before sections run).
  using StateRestorer = std::function<void(const io::JsonValue&)>;

  /// Register a named state section (e.g. "harvester" for the model +
  /// digital control process, "power_bins" for workload accumulators).
  /// Sections are saved and restored in registration order; names must be
  /// unique. Register before save/restore, not mid-run.
  void register_checkpoint_section(std::string name, StateSaver saver, StateRestorer restorer);

  /// Snapshot the full mutable run state: kernel clock + pending events (via
  /// the sections that own them), every registered section, the engine, the
  /// trace recorder and probe channels when present, sync-point counter and
  /// accumulated cpu_seconds. \p meta is carried verbatim for the workload
  /// layer. Requires an initialised session. The run itself is untouched:
  /// it keeps the engine caches the snapshot does not carry.
  [[nodiscard]] Checkpoint snapshot(io::JsonValue meta = io::JsonValue(nullptr)) const;

  /// snapshot(), then a cut: the engine drops the caches the snapshot does
  /// not carry (AnalogEngine::checkpoint_cut), so the run continues bit for
  /// bit like one restored from it.
  [[nodiscard]] Checkpoint save_checkpoint(io::JsonValue meta = io::JsonValue(nullptr));

  /// Restore a snapshot into this freshly initialised session (same spec,
  /// same registered sections, same trace/probe layout). Restore order:
  /// kernel clock -> sections (model state, event re-arm) -> engine (with
  /// its residual consistency check against the restored model) -> trace /
  /// probes -> counters. Throws ModelError on any mismatch.
  void restore_checkpoint(const Checkpoint& checkpoint);

 private:
  std::shared_ptr<void> model_;  // keepalive only
  core::SystemAssembler* assembler_;
  digital::Kernel* kernel_;
  std::unique_ptr<core::AnalogEngine> engine_;
  std::unique_ptr<core::TraceRecorder> trace_;
  std::unique_ptr<core::ProbeHub> probes_;
  std::optional<core::MixedSignalSimulator> scheduler_;
  std::vector<EngineHook> ready_hooks_;
  struct CheckpointSection {
    std::string name;
    StateSaver save;
    StateRestorer restore;
  };
  std::vector<CheckpointSection> sections_;
  bool initialised_ = false;
  double cpu_seconds_ = 0.0;
};

}  // namespace ehsim::sim
