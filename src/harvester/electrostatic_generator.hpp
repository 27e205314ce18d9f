/// \file electrostatic_generator.hpp
/// \brief Electrostatic microgenerator block (paper §V extension).
///
/// Continuous-mode electrostatic harvester: a biased variable-gap capacitor
/// whose plate carries the proof mass (cf. Hohlfeld et al. [3], which the
/// paper cites as the electrostatically tuned counterpart). Model:
///
///   m z'' + cp z' + ks z = Fe + m a(t),   Fe = -q^2 / (2 eps A)
///   q'  = -Im                                   (charge drawn at the port)
///   Vm  = q (g0 + z) / (eps A) - V_bias - Rs Im (port constraint)
///
/// Rs is the bias-network source resistance (also keeps the port constraint
/// regular against voltage-defined loads).
///
/// States: z, dz/dt, charge q. Terminals Vm, Im with one algebraic row —
/// again a drop-in replacement for the electromagnetic Microgenerator. The
/// capacitance C(z) = eps A / (g0 + z) makes both the port equation and the
/// electrostatic force genuinely non-linear, exercising the engine's
/// per-step re-linearisation on a second physical domain.
#pragma once

#include "core/block.hpp"
#include "harvester/vibration_source.hpp"

namespace ehsim::harvester {

struct ElectrostaticParams {
  double proof_mass = 0.002;         ///< m [kg]
  double parasitic_damping = 0.12;   ///< cp [N s/m] (Q ~ 7: stroke < gap)
  double resonance_hz = 70.0;        ///< fr [Hz]
  double nominal_gap = 500e-6;       ///< g0 [m]
  double plate_area = 4e-4;          ///< A [m^2]
  double permittivity = 8.854e-12;   ///< eps [F/m]
  double bias_voltage = 12.0;        ///< V_bias [V]
  double series_resistance = 1e9;    ///< Rs [Ohm]: GOhm-class bias network keeps
                                     ///  the device in constant-charge operation

  /// Mechanical end-stop: the effective gap never shrinks below this
  /// fraction of g0 (physical devices have stops; it also keeps C(z) finite
  /// if a configuration drives the stroke into the plates).
  double min_gap_fraction = 0.05;

  [[nodiscard]] double spring_stiffness() const noexcept;
  /// Capacitance at the nominal gap.
  [[nodiscard]] double nominal_capacitance() const noexcept {
    return permittivity * plate_area / nominal_gap;
  }
};

class ElectrostaticGenerator final : public core::AnalogBlock {
 public:
  enum : std::size_t { kZ = 0, kVel = 1, kQ = 2 };
  enum : std::size_t { kVm = 0, kIm = 1 };

  ElectrostaticGenerator(const ElectrostaticParams& params,
                         const VibrationProfile& vibration);

  void initial_state(std::span<double> x) const override;
  void eval(double t, std::span<const double> x, std::span<const double> y,
            std::span<double> fx, std::span<double> fy) const override;
  void jacobians(double t, std::span<const double> x, std::span<const double> y,
                 linalg::Matrix& jxx, linalg::Matrix& jxy, linalg::Matrix& jyx,
                 linalg::Matrix& jyy) const override;
  /// The three entries carrying the charge q or the gap g0 + z.
  void varying_jacobian_entries(std::vector<core::JacobianEntry>& entries) const override;
  [[nodiscard]] std::string state_name(std::size_t i) const override;
  [[nodiscard]] std::string terminal_name(std::size_t i) const override;

  [[nodiscard]] const ElectrostaticParams& params() const noexcept { return params_; }

 private:
  [[nodiscard]] double effective_gap(double z) const noexcept;

  ElectrostaticParams params_;
  const VibrationProfile* vibration_;
};

}  // namespace ehsim::harvester
