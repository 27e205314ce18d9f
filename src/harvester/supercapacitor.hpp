/// \file supercapacitor.hpp
/// \brief Supercapacitor + equivalent load block (paper Eq. 15-16, Fig. 6).
///
/// Three-branch Zubieta-Bonert model [11]: an immediate branch Ri-Ci with
/// voltage-dependent capacitance Ci = Ci0 + Ci1*Vi (the genuine non-linear
/// term of the reference model — the paper's Eq. 15 shows the linearised
/// constant-capacitance form; we keep the non-linearity and let the engines
/// linearise it), a delayed branch Rd-Cd and a long-term branch Rl-Cl, all
/// in parallel with the equivalent load resistor Req of Eq. 16 (and an
/// optional leakage resistor used by the synthetic "experimental" plant).
///
/// States: branch capacitor voltages Vi, Vd, Vl. Terminals: Vc, Ic with the
/// KCL constraint Ic = sum of branch + load currents.
#pragma once

#include "core/block.hpp"
#include "harvester/params.hpp"

namespace ehsim::harvester {

/// Operating modes of the equivalent load (paper Eq. 16).
enum class LoadMode {
  kSleep,   ///< microcontroller in sleep mode (1e9 Ohm)
  kAwake,   ///< microcontroller awake (33 Ohm)
  kTuning,  ///< actuator performing tuning (16.7 Ohm)
};

/// Resistance for a load mode.
[[nodiscard]] double load_resistance(const LoadParams& params, LoadMode mode);
[[nodiscard]] const char* load_mode_name(LoadMode mode);

class Supercapacitor final : public core::AnalogBlock {
 public:
  /// Local state indices.
  enum : std::size_t { kVi = 0, kVd = 1, kVl = 2 };
  /// Local terminal indices.
  enum : std::size_t { kVc = 0, kIc = 1 };

  Supercapacitor(const SupercapacitorParams& params, const LoadParams& load);

  void initial_state(std::span<double> x) const override;
  void eval(double t, std::span<const double> x, std::span<const double> y,
            std::span<double> fx, std::span<double> fy) const override;
  void jacobians(double t, std::span<const double> x, std::span<const double> y,
                 linalg::Matrix& jxx, linalg::Matrix& jxy, linalg::Matrix& jyx,
                 linalg::Matrix& jyy) const override;
  /// The two entries carrying Ci(Vi); the load conductance only changes
  /// with the load mode, which bumps the epoch.
  void varying_jacobian_entries(std::vector<core::JacobianEntry>& entries) const override;

  [[nodiscard]] std::string state_name(std::size_t i) const override;
  [[nodiscard]] std::string terminal_name(std::size_t i) const override;

  /// Jacobians vary only through the voltage-dependent immediate-branch
  /// capacitance and the load mode; quantising the operating point to 1 mV
  /// certifies reuse with a relative Jacobian staleness below 1e-4.
  [[nodiscard]] std::uint64_t jacobian_signature(double t, std::span<const double> x,
                                                 std::span<const double> y) const override;

  /// Switch the equivalent load (paper Eq. 16); called by the MCU process.
  /// This is a discontinuous model change: the engines restart their
  /// integration history (epoch bump).
  void set_load_mode(LoadMode mode);
  /// Checkpoint restore: set the mode without bumping the epoch (the epoch
  /// counter is restored verbatim through AnalogBlock::restore_epoch).
  void restore_load_mode(LoadMode mode);
  [[nodiscard]] LoadMode load_mode() const noexcept { return mode_; }
  [[nodiscard]] double load_resistance_now() const noexcept { return req_; }

  [[nodiscard]] const SupercapacitorParams& params() const noexcept { return params_; }

  /// Total stored charge at the given state [C] (diagnostics/tests).
  [[nodiscard]] double stored_charge(std::span<const double> x) const;

 private:
  [[nodiscard]] double immediate_capacitance(double vi) const noexcept {
    return params_.ci0 + params_.ci1 * vi;
  }

  SupercapacitorParams params_;
  LoadParams load_params_;
  LoadMode mode_ = LoadMode::kSleep;
  double req_;
};

}  // namespace ehsim::harvester
