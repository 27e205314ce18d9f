/// \file dickson_multiplier.hpp
/// \brief N-stage Dickson voltage multiplier block (paper Eq. 14, Fig. 5).
///
/// Topology reconstructed from Fig. 5: a chain of n+1 diodes from ground to
/// the storage port, with n pump capacitors whose bottom plates alternate
/// between the AC input node (odd stages) and ground (even stages), plus an
/// input filter capacitor Cf from the AC input node to ground. State
/// variables are the pump capacitor voltages V1..Vn (top plate minus bottom
/// plate) and the filter node voltage Vf; node voltages are
/// V_node_i = V_i + b_i Vf with b_i = 1 for odd stages. This yields exactly
/// the structure of the paper's Eq. 14: the tri-diagonal (G_i, G_{i+1})
/// state matrix and the (G_i+G_{i+1})/C_i coupling of the input voltage
/// into every row.
///
/// Each diode is either
///  * the tabulated piecewise-linear companion (G, J) of paper §III-B —
///    used by the proposed linearised engine; or
///  * the exact Shockley exponential — used by the Newton-Raphson baseline,
///    which re-evaluates it at every Newton iteration (as the commercial
///    simulators do).
///
/// Algebraic rows:
///  * input:  Vm - Vf = 0 (the port voltage is the filter node voltage; the
///    source current Im enters the filter-node KCL state equation), and
///  * output: Ic - Id_{n+1} = 0 (the output diode feeds the storage port).
#pragma once

#include <memory>
#include <vector>

#include "core/block.hpp"
#include "harvester/params.hpp"
#include "pwl/diode_table.hpp"

namespace ehsim::harvester {

/// How the multiplier evaluates its diodes.
enum class DeviceEvalMode {
  kPwlTable,       ///< paper §III-B look-up tables (proposed engine)
  kExactShockley,  ///< transcendental evaluation (baseline engines)
};

class DicksonMultiplier final : public core::AnalogBlock {
 public:
  /// Local terminal indices.
  enum : std::size_t { kVm = 0, kIm = 1, kVc = 2, kIc = 3 };

  DicksonMultiplier(const MultiplierParams& params, DeviceEvalMode mode);

  void eval(double t, std::span<const double> x, std::span<const double> y,
            std::span<double> fx, std::span<double> fy) const override;
  void jacobians(double t, std::span<const double> x, std::span<const double> y,
                 linalg::Matrix& jxx, linalg::Matrix& jxy, linalg::Matrix& jyx,
                 linalg::Matrix& jyy) const override;
  /// The entries jacobians() writes from diode conductances: each stage
  /// row's band and Vf column, the filter row and the output diode's
  /// couplings — about five per stage, so the LLE scan grows linearly with
  /// the stage count.
  void varying_jacobian_entries(std::vector<core::JacobianEntry>& entries) const override;

  [[nodiscard]] std::string state_name(std::size_t i) const override;
  [[nodiscard]] std::string terminal_name(std::size_t i) const override;

  /// PWL mode: hash of the diode segment indices — the Jacobians are
  /// piecewise constant between segment crossings (paper §III-B). Exact
  /// mode: kAlwaysRebuild.
  [[nodiscard]] std::uint64_t jacobian_signature(double t, std::span<const double> x,
                                                 std::span<const double> y) const override;

  [[nodiscard]] const MultiplierParams& params() const noexcept { return params_; }
  [[nodiscard]] DeviceEvalMode mode() const noexcept { return mode_; }
  [[nodiscard]] const pwl::DiodeTable& table() const noexcept { return *table_; }
  /// True when the table came out of the process-wide shared-table cache
  /// (params().share_diode_table and another live model already built it).
  [[nodiscard]] bool table_shared() const noexcept { return table_shared_; }
  [[nodiscard]] std::size_t stages() const noexcept { return params_.stages; }

  /// Diode voltage of diode \p index (1..stages+1) at the given solution.
  [[nodiscard]] double diode_voltage(std::size_t index, std::span<const double> x,
                                     std::span<const double> y) const;

 private:
  /// 1 when the bottom plate of stage \p i (1-based) is tied to Vm.
  [[nodiscard]] static double pump_phase(std::size_t i) noexcept {
    return (i % 2 == 1) ? 1.0 : 0.0;
  }
  /// Current and conductance of a diode at voltage vd, per the eval mode.
  void diode_companion(double vd, double& current, double& conductance) const;

  MultiplierParams params_;
  DeviceEvalMode mode_;
  std::shared_ptr<const pwl::DiodeTable> table_;  ///< immutable, possibly shared
  bool table_shared_ = false;
  // Per-call scratch for diode currents/conductances (sized stages+1).
  mutable std::vector<double> id_;
  mutable std::vector<double> gd_;
};

}  // namespace ehsim::harvester
