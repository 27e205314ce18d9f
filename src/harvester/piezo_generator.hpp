/// \file piezo_generator.hpp
/// \brief Piezoelectric microgenerator block (paper §V extension).
///
/// "While we demonstrated the effectiveness of our approach using an
/// electromagnetic microgenerator, this is a generic approach which can be
/// applied to other types of microgenerators such as electrostatic or
/// piezoelectric. All that is required are the model equations of each
/// component block." This block provides those equations for the standard
/// lumped piezoelectric harvester model:
///
///   m z'' + cp z' + ks z + theta vp = m a(t)      (mechanical + coupling)
///   Cp vp' = theta z' - Im                        (electrical)
///   Vm = vp - Rs Im                               (port constraint)
///
/// Rs is the electrode/wiring series resistance; besides being physical it
/// keeps the port constraint regular against voltage-defined loads.
///
/// States: displacement z, velocity dz/dt, piezo voltage vp. Terminals:
/// Vm, Im with one algebraic row — structurally a drop-in replacement for
/// the electromagnetic Microgenerator in the harvester assembly.
#pragma once

#include "core/block.hpp"
#include "harvester/vibration_source.hpp"

namespace ehsim::harvester {

struct PiezoParams {
  double proof_mass = 0.008;          ///< m [kg]
  double parasitic_damping = 0.05;    ///< cp [N s/m]
  double resonance_hz = 70.0;         ///< fr [Hz]
  double force_factor = 2.5e-3;       ///< theta [N/V = C/m]
  double piezo_capacitance = 60e-9;   ///< Cp [F]
  double series_resistance = 1000.0;  ///< Rs [Ohm] electrode + protection network

  [[nodiscard]] double spring_stiffness() const noexcept;
};

class PiezoGenerator final : public core::AnalogBlock {
 public:
  enum : std::size_t { kZ = 0, kVel = 1, kVp = 2 };
  enum : std::size_t { kVm = 0, kIm = 1 };

  PiezoGenerator(const PiezoParams& params, const VibrationProfile& vibration);

  void eval(double t, std::span<const double> x, std::span<const double> y,
            std::span<double> fx, std::span<double> fy) const override;
  void jacobians(double t, std::span<const double> x, std::span<const double> y,
                 linalg::Matrix& jxx, linalg::Matrix& jxy, linalg::Matrix& jyx,
                 linalg::Matrix& jyy) const override;
  /// None: the Jacobians are constant.
  void varying_jacobian_entries(std::vector<core::JacobianEntry>& entries) const override;
  [[nodiscard]] std::string state_name(std::size_t i) const override;
  [[nodiscard]] std::string terminal_name(std::size_t i) const override;
  /// Constant-coefficient block: the Jacobians never change.
  [[nodiscard]] std::uint64_t jacobian_signature(double t, std::span<const double> x,
                                                 std::span<const double> y) const override;

  [[nodiscard]] const PiezoParams& params() const noexcept { return params_; }

 private:
  PiezoParams params_;
  const VibrationProfile* vibration_;
};

}  // namespace ehsim::harvester
