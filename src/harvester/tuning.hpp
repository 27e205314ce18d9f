/// \file tuning.hpp
/// \brief Magnetic tuning mechanism (paper Eq. 12, Fig. 4a) and actuator.
///
/// One tuning magnet sits on the cantilever tip, the other on a linear
/// actuator. The attractive axial force Ft between them — modelled with the
/// far-field dipole law Ft(d) = K/(d+d0)^4 — changes the cantilever's
/// effective stiffness, shifting the resonance per Eq. 12:
///
///     f0r = fr * sqrt(1 + Ft/Fb)
///
/// equivalently ks_eff = ks * (1 + Ft/Fb). A small fraction of Ft appears
/// along z (the paper's Ft_z term in Eq. 8). The actuator moves the magnet
/// with a trapezoid-free constant-speed profile; position(t) is a pure
/// function of time so both engines can evaluate at arbitrary time points.
#pragma once

#include "harvester/params.hpp"
#include "io/json.hpp"

namespace ehsim::harvester {

/// Gap-dependent tuning force and resonance mapping.
class TuningMechanism {
 public:
  TuningMechanism(const TuningParams& params, const MicrogeneratorParams& generator);

  /// Attractive axial force between the magnets at gap \p d [m].
  [[nodiscard]] double force_at_gap(double gap) const;
  /// Tuned resonant frequency (Eq. 12) at gap \p d.
  [[nodiscard]] double resonance_at_gap(double gap) const;
  /// Effective stiffness ks_eff = ks (1 + Ft/Fb) at gap \p d.
  [[nodiscard]] double stiffness_at_gap(double gap) const;
  /// Gap required to tune to \p frequency_hz; clamped to the mechanism's
  /// travel. Inverse of resonance_at_gap (monotone decreasing in gap).
  [[nodiscard]] double gap_for_frequency(double frequency_hz) const;

  [[nodiscard]] const TuningParams& params() const noexcept { return params_; }

 private:
  TuningParams params_;
  double untuned_hz_;
  double stiffness_;
  double buckling_;
};

/// Constant-speed linear actuator with piecewise-linear position profile.
class LinearActuator {
 public:
  LinearActuator(const ActuatorParams& params, const TuningParams& tuning);

  /// Command a move toward \p target_gap starting at \p t_now. Replaces any
  /// motion in progress (the new move starts from position(t_now)).
  void command(double target_gap, double t_now);
  /// Hold position as of \p t_now (abort motion).
  void stop(double t_now);

  /// Magnet gap at time \p t [m].
  [[nodiscard]] double position(double t) const;
  [[nodiscard]] bool moving(double t) const;
  /// Absolute time at which the commanded move completes.
  [[nodiscard]] double arrival_time() const noexcept { return arrival_time_; }
  [[nodiscard]] double speed() const noexcept { return speed_; }

  /// Exact snapshot of the motion profile (start/target/arrival).
  [[nodiscard]] io::JsonValue checkpoint_state() const;
  void restore_checkpoint_state(const io::JsonValue& state);

 private:
  double speed_;
  double gap_min_;
  double gap_max_;
  double start_position_;
  double start_time_ = 0.0;
  double target_ = 0.0;
  double arrival_time_ = 0.0;
};

}  // namespace ehsim::harvester
