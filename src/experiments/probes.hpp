/// \file probes.hpp
/// \brief Declarative probes/observers: what to sample, as data.
///
/// A ProbeSpec names one derived quantity of the harvester model — a
/// terminal net voltage/current, a block state, the instantaneous
/// microgenerator power Vm*Im, the power delivered into the storage Vc*Ic,
/// the energy stored in the supercapacitor, an MCU state-occupancy
/// indicator (sleep/measuring/tuning duty), or the tuning actuator's
/// travel/energy bookkeeping (gap, slew rate, mechanical actuation power) —
/// plus an optional reduction window and threshold. Installed on an experiment session it becomes (a)
/// a streaming core::ProbeChannel producing scalar statistics (time-weighted
/// mean/RMS, extremes, final value, duty cycle, upward-crossing count) and
/// (b), when `record` is set, a decimated TraceRecorder column emitted as an
/// extra CSV column next to the Vc trace. Probes are part of ExperimentSpec,
/// round-trip through JSON (src/io) and ride batch jobs deterministically —
/// the same parallel-bit-identity guarantee as the Vc trace itself.
#pragma once

#include <compare>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "sim/harvester_session.hpp"

namespace ehsim::experiments {

struct ProbeSpec {
  enum class Kind {
    kNodeVoltage,     ///< terminal net by name (`target`: "Vm", "Im", "Vc", "Ic")
    kStateVariable,   ///< qualified block state (`target`: e.g. "supercap.Vi")
    kGeneratorPower,  ///< instantaneous microgenerator output power Vm*Im [W]
    kHarvestedPower,  ///< power delivered into the storage branch Vc*Ic [W]
    kStoredEnergy,    ///< field energy of the supercapacitor's branches [J]
    /// MCU duty indicator: 1 while the controller occupies the targeted
    /// state, else 0 (`target`: "sleep" | "measuring" | "tuning" | "awake",
    /// where "awake" is any non-sleep state). Its time-weighted mean is the
    /// occupancy fraction of that state over the reduction window. Requires
    /// an experiment with the MCU enabled (install-time ModelError
    /// otherwise).
    kMcuState,
    /// Actuator travel/energy bookkeeping (`target`: "gap" | "speed" |
    /// "work"). "gap" samples the magnet gap [m] the tuning actuator holds
    /// at sample time; "speed" the actuator's signed-magnitude travel rate
    /// [m/s] (the constant slew rate while a move is in progress, else 0) —
    /// its time-weighted mean times covered_time is the total travel; "work"
    /// the instantaneous mechanical power |Ft(gap(t))| * speed [W] the
    /// actuator exchanges with the magnetic tuning force while moving — its
    /// time integral is the actuation energy budget of a retune. All three
    /// are pure functions of sample time (the actuator's position profile is
    /// closed-form), so they ride batches deterministically like every other
    /// probe.
    kActuator,
  };

  /// Unique column/result label. Must be CSV-header-safe and must not shadow
  /// the built-in "time"/"Vc" columns.
  std::string label;
  Kind kind = Kind::kNodeVoltage;
  /// Net, qualified state, or MCU state name for the kinds that address
  /// one; must stay empty for the derived kinds.
  std::string target{};
  /// Reduction window [window_start, window_end] for the scalar statistics;
  /// window_end <= 0 extends to the end of the run. The recorded trace
  /// column always covers the whole run.
  double window_start = 0.0;
  double window_end = 0.0;
  /// Enables the duty_cycle / crossings statistics for this probe.
  std::optional<double> threshold{};
  /// Record a decimated trace column (CSV output) next to the statistics.
  bool record = true;

  /// Throws ModelError naming the offending field. Target/net existence is
  /// checked at install time against the elaborated model.
  void validate() const;

  [[nodiscard]] auto operator<=>(const ProbeSpec&) const = default;
};

/// Stable JSON/CLI identifier of a probe kind ("node_voltage", ...).
[[nodiscard]] const char* probe_kind_id(ProbeSpec::Kind kind);
[[nodiscard]] ProbeSpec::Kind probe_kind_from(const std::string& id);
/// Every probe kind id, in declaration order (CLI discoverability, docs).
[[nodiscard]] std::vector<std::string> probe_kind_ids();

/// Scalar summary of one probe after a run.
struct ProbeResult {
  std::string label;
  std::size_t samples = 0;     ///< accepted points inside the window
  double covered_time = 0.0;   ///< integrated in-window time [s]
  double final_value = 0.0;
  double minimum = 0.0;
  double maximum = 0.0;
  double mean = 0.0;  ///< time-weighted
  double rms = 0.0;   ///< time-weighted
  std::optional<double> duty_cycle{};        ///< with a threshold only
  std::optional<std::uint64_t> crossings{};  ///< upward threshold crossings
  /// The probe carried a trace column (ProbeSpec::record).
  bool recorded = false;
  /// Decimated trace column aligned with ScenarioResult::time (empty when
  /// the probe was not recorded).
  std::vector<double> trace{};
};

/// Statistic identifiers usable as optimise objectives
/// ("final" | "min" | "max" | "mean" | "rms" | "duty_cycle" | "crossings").
[[nodiscard]] std::vector<std::string> probe_statistic_ids();
/// Extract a statistic by id; throws ModelError for unknown ids or for
/// threshold statistics on a probe without a threshold.
[[nodiscard]] double probe_statistic(const ProbeResult& result, const std::string& statistic);

/// Install probe channels (and trace columns for recorded probes) on a built
/// experiment session. Must run before the session produces points; throws
/// ModelError for unknown nets/states, naming the probe. \p duration is the
/// simulated span the run will cover: a reduction window that can never
/// intersect [0, duration] (window_start at or past the end of the run) is
/// rejected up front — silently reporting all-zero statistics for a window
/// the run never reaches would be indistinguishable from a real result.
/// duration <= 0 skips the span check (open-ended sessions).
void install_probes(sim::HarvesterSession& session, const std::vector<ProbeSpec>& probes,
                    double duration = 0.0);

/// Collect the per-probe results after the run, in spec order. The session
/// must be the one the probes were installed on.
[[nodiscard]] std::vector<ProbeResult> collect_probe_results(
    sim::HarvesterSession& session, const std::vector<ProbeSpec>& probes);

}  // namespace ehsim::experiments
