/// \file microgenerator.hpp
/// \brief Tunable electromagnetic microgenerator block (paper Eqs. 8-13).
///
/// State variables (paper §III-A): relative displacement z, relative
/// velocity dz/dt and coil current iL. Terminal variables: output voltage
/// Vm and output current Im, with the algebraic constraint Im = iL.
///
///   m z'' + cp z' + ks_eff(t) z + Phi iL + Ft_z = m a(t)        (Eq. 8, 11)
///   Vm = Phi z' - Rc iL - Lc iL'                                (Eq. 9, 10)
///
/// written in the state-space form of Eq. 13. The effective stiffness
/// ks_eff(t) follows the tuning mechanism and actuator position (Eq. 12),
/// making the A-matrix time-varying during a tuning burst — the linearised
/// engine tracks this through its every-step re-linearisation and LLE
/// monitor.
///
/// Two coil variants are provided (see MicrogeneratorParams::coil_inductance):
/// Lc > 0 gives the verbatim three-state Eq. 13 block; Lc = 0 (default)
/// treats the coil algebraically (Vm = Phi dz/dt - Rc Im), which is accurate
/// at the working frequencies and avoids the parasitic stiff L-vs-blocking-
/// diode mode.
#pragma once

#include "core/block.hpp"
#include "harvester/tuning.hpp"
#include "harvester/vibration_source.hpp"

namespace ehsim::harvester {

class Microgenerator final : public core::AnalogBlock {
 public:
  /// Local state indices.
  enum : std::size_t { kZ = 0, kVel = 1, kIl = 2 };
  /// Local terminal indices.
  enum : std::size_t { kVm = 0, kIm = 1 };

  /// \param vibration ambient excitation (not owned; must outlive the block)
  /// \param tuning    resonance map (not owned)
  /// \param actuator  magnet position source (not owned)
  Microgenerator(const MicrogeneratorParams& params, const VibrationProfile& vibration,
                 const TuningMechanism& tuning, const LinearActuator& actuator);

  void eval(double t, std::span<const double> x, std::span<const double> y,
            std::span<double> fx, std::span<double> fy) const override;
  void jacobians(double t, std::span<const double> x, std::span<const double> y,
                 linalg::Matrix& jxx, linalg::Matrix& jxy, linalg::Matrix& jyx,
                 linalg::Matrix& jyy) const override;
  /// Only -ks_eff/m, which follows the actuator position.
  void varying_jacobian_entries(std::vector<core::JacobianEntry>& entries) const override;

  [[nodiscard]] std::string state_name(std::size_t i) const override;
  [[nodiscard]] std::string terminal_name(std::size_t i) const override;

  /// The block is linear with constant Jacobians except while the actuator
  /// moves the tuning magnet (time-varying ks_eff).
  [[nodiscard]] std::uint64_t jacobian_signature(double t, std::span<const double> x,
                                                 std::span<const double> y) const override;

  [[nodiscard]] const MicrogeneratorParams& params() const noexcept { return params_; }
  /// Current resonant frequency given the actuator position [Hz].
  [[nodiscard]] double resonant_frequency(double t) const;
  /// Notify engines that the control side changed the model discontinuously
  /// (start/stop of an actuation burst).
  void notify_parameter_event() { bump_epoch(); }

 private:
  [[nodiscard]] double effective_stiffness(double t) const;
  [[nodiscard]] double tuning_force_z(double t) const;

  MicrogeneratorParams params_;
  const VibrationProfile* vibration_;
  const TuningMechanism* tuning_;
  const LinearActuator* actuator_;
};

}  // namespace ehsim::harvester
