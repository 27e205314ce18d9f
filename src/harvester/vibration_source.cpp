#include "harvester/vibration_source.hpp"

#include <cmath>
#include <numbers>

#include "common/error.hpp"

namespace ehsim::harvester {

VibrationProfile::VibrationProfile(const VibrationParams& params) {
  if (!(params.initial_frequency_hz > 0.0)) {
    throw ModelError("VibrationProfile: initial frequency must be positive");
  }
  if (!(params.acceleration_amplitude >= 0.0)) {
    throw ModelError("VibrationProfile: amplitude must be non-negative");
  }
  segments_.push_back(
      Segment{0.0, params.initial_frequency_hz, 0.0, params.acceleration_amplitude, 0.0});
}

double VibrationProfile::phase_advance(const Segment& seg, double tau) {
  if (seg.slope_hz_per_s == 0.0) {
    // Exact legacy arithmetic — constant-frequency schedules stay
    // bit-identical to the pre-chirp implementation.
    return 2.0 * std::numbers::pi * seg.frequency_hz * tau;
  }
  // Linear chirp f(tau) = f0 + k tau integrates to f0 tau + k tau^2 / 2.
  return 2.0 * std::numbers::pi * (seg.frequency_hz * tau + 0.5 * seg.slope_hz_per_s * tau * tau);
}

double VibrationProfile::frequency_in(const Segment& seg, double tau) {
  return seg.slope_hz_per_s == 0.0 ? seg.frequency_hz
                                   : seg.frequency_hz + seg.slope_hz_per_s * tau;
}

void VibrationProfile::push_segment(double t, double frequency_hz, double slope_hz_per_s,
                                    double amplitude, const char* what) {
  if (!(frequency_hz > 0.0)) {
    throw ModelError(std::string("VibrationProfile: ") + what + ": frequency must be positive");
  }
  if (!(amplitude >= 0.0)) {
    throw ModelError(std::string("VibrationProfile: ") + what +
                     ": amplitude must be non-negative");
  }
  const Segment& last = segments_.back();
  if (!(t > last.start_time)) {
    throw ModelError(std::string("VibrationProfile: ") + what +
                     ": excitation changes must be strictly ordered in time");
  }
  const double phase = last.phase_at_start + phase_advance(last, t - last.start_time);
  segments_.push_back(Segment{t, frequency_hz, slope_hz_per_s, amplitude,
                              std::fmod(phase, 2.0 * std::numbers::pi)});
}

void VibrationProfile::set_frequency_at(double t, double frequency_hz) {
  push_segment(t, frequency_hz, 0.0, segments_.back().amplitude, "set_frequency_at");
}

void VibrationProfile::ramp_frequency(double t_start, double duration, double frequency_hz) {
  if (!(duration > 0.0)) {
    throw ModelError("VibrationProfile: ramp_frequency: duration must be positive");
  }
  const Segment& last = segments_.back();
  const double f_start = frequency_in(last, t_start - last.start_time);
  const double slope = (frequency_hz - f_start) / duration;
  const double amplitude = last.amplitude;
  push_segment(t_start, f_start, slope, amplitude, "ramp_frequency");
  // Hold segment at the target once the ramp completes.
  push_segment(t_start + duration, frequency_hz, 0.0, amplitude, "ramp_frequency");
}

void VibrationProfile::set_amplitude_at(double t, double amplitude) {
  const Segment& last = segments_.back();
  push_segment(t, frequency_in(last, t - last.start_time), 0.0, amplitude, "set_amplitude_at");
}

void VibrationProfile::set_excitation_at(double t, double frequency_hz, double amplitude) {
  push_segment(t, frequency_hz, 0.0, amplitude, "set_excitation_at");
}

const VibrationProfile::Segment& VibrationProfile::segment_at(double t) const {
  // Segments are few (one per scheduled change); linear scan from the back is
  // both simple and fast since simulation time is mostly in the last segment.
  for (std::size_t i = segments_.size(); i-- > 1;) {
    if (t >= segments_[i].start_time) {
      return segments_[i];
    }
  }
  return segments_.front();
}

double VibrationProfile::acceleration(double t) const {
  const Segment& seg = segment_at(t);
  const double phase = seg.phase_at_start + phase_advance(seg, t - seg.start_time);
  return seg.amplitude * std::sin(phase);
}

double VibrationProfile::frequency_at(double t) const {
  const Segment& seg = segment_at(t);
  return frequency_in(seg, t - seg.start_time);
}

double VibrationProfile::amplitude_at(double t) const { return segment_at(t).amplitude; }

}  // namespace ehsim::harvester
