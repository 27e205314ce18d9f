/// \file excitation.hpp
/// \brief Declarative ambient excitation timelines.
///
/// The paper's two experiments move the ambient frequency exactly once; real
/// ambient sources drift continuously in both frequency and amplitude
/// (Boisseau et al.). ExcitationSchedule describes an arbitrary excitation
/// timeline as an ordered list of events — frequency steps, linear chirps,
/// amplitude steps and seeded piecewise random-walk drift — that compiles
/// onto harvester::VibrationProfile. Everything stays a pure function of
/// time (the random walk is expanded deterministically from its seed when
/// the schedule is applied), so both engines can evaluate tentative Newton
/// points, and the whole schedule serialises losslessly to JSON.
#pragma once

#include <compare>
#include <cstdint>
#include <optional>
#include <vector>

#include "harvester/vibration_source.hpp"

namespace ehsim::experiments {

/// Seeded piecewise random-walk drift of the ambient excitation: every
/// `step_interval` seconds the frequency (and optionally the amplitude)
/// takes a uniform step in [-sigma, +sigma], clamped to the given bounds.
/// Expansion is deterministic in `seed` and independent of the platform's
/// standard-library distributions.
struct RandomWalkParams {
  double step_interval = 1.0;    ///< [s] between drift updates (> 0)
  double frequency_sigma = 0.0;  ///< max |frequency step| per update [Hz]
  double amplitude_sigma = 0.0;  ///< max |amplitude step| per update [m/s^2]
  std::uint64_t seed = 1;
  double min_frequency_hz = 1.0;
  double max_frequency_hz = 1000.0;
  double min_amplitude = 0.0;

  [[nodiscard]] auto operator<=>(const RandomWalkParams&) const = default;
};

struct ExcitationEvent {
  enum class Kind {
    kFrequencyStep,  ///< jump to `frequency_hz` at `time`
    kFrequencyRamp,  ///< linear chirp to `frequency_hz` over [time, time+duration]
    kAmplitudeStep,  ///< jump to `amplitude` at `time`
    kRandomWalk,     ///< seeded drift over [time, time+duration]
  };
  Kind kind = Kind::kFrequencyStep;
  double time = 0.0;      ///< event start [s] (> previous event's end)
  double duration = 0.0;  ///< ramp/walk span [s]; 0 for steps
  double frequency_hz = 0.0;
  double amplitude = 0.0;
  RandomWalkParams walk{};

  /// Time at which the event has fully taken effect.
  [[nodiscard]] double end_time() const noexcept { return time + duration; }

  [[nodiscard]] auto operator<=>(const ExcitationEvent&) const = default;
};

/// A concrete excitation change after random-walk expansion — what actually
/// lands on the VibrationProfile (and what schedule tests inspect).
struct ExpandedExcitationStep {
  double time = 0.0;
  std::optional<double> frequency_hz;  ///< step target (empty: amplitude-only)
  std::optional<double> ramp_duration; ///< set: linear ramp to frequency_hz
  std::optional<double> amplitude;     ///< amplitude target
};

class ExcitationSchedule {
 public:
  double initial_frequency_hz = 70.0;
  /// Empty: keep the amplitude of the HarvesterParams the schedule is
  /// applied with (the calibrated 0.59 m/s^2 by default).
  std::optional<double> initial_amplitude{};
  std::vector<ExcitationEvent> events{};

  // -- fluent builders (validated on use; times must stay monotone) --------
  ExcitationSchedule& step_frequency(double t, double frequency_hz);
  ExcitationSchedule& ramp_frequency(double t, double duration, double frequency_hz);
  ExcitationSchedule& step_amplitude(double t, double amplitude);
  ExcitationSchedule& random_walk(double t, double duration, const RandomWalkParams& walk);

  /// Validate event ordering and parameters; throws ModelError with a
  /// message naming the offending event. Events must start strictly after
  /// the previous event's end (ramps and walks occupy their whole span).
  void validate() const;

  /// Expand the schedule (including random walks) into concrete steps.
  /// \p base_amplitude seeds amplitude tracking when `initial_amplitude` is
  /// empty (the calibrated VibrationParams default when omitted).
  [[nodiscard]] std::vector<ExpandedExcitationStep> expand() const;
  [[nodiscard]] std::vector<ExpandedExcitationStep> expand(double base_amplitude) const;

  /// Apply onto a profile built with `initial_frequency_hz` (validates
  /// first). The profile's own initial frequency/amplitude must already
  /// match — see experiment_params().
  void apply(harvester::VibrationProfile& profile) const;

  /// Start time of the first event (the paper's "shift time"), if any.
  [[nodiscard]] std::optional<double> first_event_time() const;

  /// Position in the expanded excitation stream at time \p t: the number of
  /// expanded steps (random-walk updates included) already in effect. The
  /// expansion is a pure function of the schedule (walks re-expand
  /// deterministically from their seed), so a run restored from a checkpoint
  /// carries the cursor of the run that wrote it: the rebuilt profile resumes
  /// the drift stream mid-walk at exactly this position instead of replaying
  /// a divergent realisation — checkpoint resume verifies the recorded
  /// cursor against this value before continuing.
  [[nodiscard]] std::size_t expansion_cursor(double t) const;

  [[nodiscard]] auto operator<=>(const ExcitationSchedule&) const = default;
};

}  // namespace ehsim::experiments
