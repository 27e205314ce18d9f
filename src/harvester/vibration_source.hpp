/// \file vibration_source.hpp
/// \brief Ambient vibration excitation a(t) with a frequency/amplitude schedule.
///
/// Scenario 1 of the paper shifts the ambient frequency by 1 Hz mid-run;
/// Scenario 2 by 14 Hz (the maximum tuning range). Real ambient sources also
/// drift continuously and change strength, so the profile supports frequency
/// steps, linear chirps (frequency ramps) and amplitude steps. The profile
/// is a pure function of time — both engines may evaluate it at arbitrary
/// (including tentative Newton) time points — with phase-continuous
/// frequency segments so a frequency change introduces no acceleration
/// discontinuity artefact beyond the physical one.
#pragma once

#include <vector>

#include "harvester/params.hpp"

namespace ehsim::harvester {

class VibrationProfile {
 public:
  explicit VibrationProfile(const VibrationParams& params);

  /// Schedule a frequency step at absolute time \p t (must exceed the start
  /// of every previously scheduled segment).
  void set_frequency_at(double t, double frequency_hz);

  /// Schedule a linear chirp: the frequency ramps from its value at
  /// \p t_start to \p frequency_hz over \p duration seconds, then holds.
  void ramp_frequency(double t_start, double duration, double frequency_hz);

  /// Schedule an amplitude step at absolute time \p t (phase and frequency
  /// continue unchanged).
  void set_amplitude_at(double t, double amplitude);

  /// Schedule a combined frequency + amplitude step at absolute time \p t —
  /// one segment boundary, as a drifting ambient source produces.
  void set_excitation_at(double t, double frequency_hz, double amplitude);

  /// Instantaneous acceleration [m/s^2].
  [[nodiscard]] double acceleration(double t) const;
  /// Instantaneous frequency at \p t [Hz] (linear within a chirp segment).
  [[nodiscard]] double frequency_at(double t) const;
  /// Amplitude of the active segment at \p t [m/s^2].
  [[nodiscard]] double amplitude_at(double t) const;
  /// Initial amplitude (t = 0) [m/s^2].
  [[nodiscard]] double amplitude() const noexcept { return segments_.front().amplitude; }

 private:
  struct Segment {
    double start_time;
    double frequency_hz;    ///< frequency at segment start
    double slope_hz_per_s;  ///< chirp rate (0: constant frequency)
    double amplitude;       ///< acceleration amplitude [m/s^2]
    double phase_at_start;  ///< radians, for phase continuity
  };
  [[nodiscard]] const Segment& segment_at(double t) const;
  /// Phase advance of \p seg after \p tau seconds. Constant-frequency
  /// segments keep the exact legacy arithmetic so existing schedules stay
  /// bit-identical.
  [[nodiscard]] static double phase_advance(const Segment& seg, double tau);
  /// Frequency of \p seg after \p tau seconds.
  [[nodiscard]] static double frequency_in(const Segment& seg, double tau);
  /// Append a segment starting at \p t, carrying phase continuously.
  void push_segment(double t, double frequency_hz, double slope_hz_per_s, double amplitude,
                    const char* what);

  std::vector<Segment> segments_;
};

}  // namespace ehsim::harvester
