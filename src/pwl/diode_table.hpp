/// \file diode_table.hpp
/// \brief Shockley diode model and its tabulated linearisation (paper §III-B).
///
/// The paper replaces each diode of the Dickson voltage multiplier with a
/// conductance/current-source pair: Id = G Vd + J, with (G, J) "stored in a
/// look-up table for different values of Vd". Here the table is built as the
/// chord-wise piecewise-linear interpolant of the Shockley characteristic,
/// so the tabulated device is continuous and matches the physical device
/// exactly at every breakpoint. The upper end of the tabulated domain is
/// chosen where the diode conductance reaches `g_max`; beyond it the device
/// continues ohmically, which (a) matches the physical picture of a fully-on
/// junction in series with the circuit impedances and (b) bounds the
/// time-constants seen by the explicit integrator, keeping the stability
/// step (paper Eq. 7) practical.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "pwl/pwl_table.hpp"

namespace ehsim::pwl {

/// Physical parameters of a junction diode.
struct DiodeParams {
  double saturation_current = 1e-7;  ///< Is [A] (Schottky-like default)
  double emission_coefficient = 1.35;///< n
  double thermal_voltage = 0.02585;  ///< kT/q at 300 K [V]
  double g_min = 1e-12;              ///< leakage floor [S], aids NR convergence

  /// Effective exponential slope voltage n*Vt.
  [[nodiscard]] double vte() const noexcept {
    return emission_coefficient * thermal_voltage;
  }

  [[nodiscard]] bool operator==(const DiodeParams&) const = default;
};

/// Exact Shockley current Id(Vd) = Is (exp(Vd/nVt) - 1) + g_min Vd.
[[nodiscard]] double diode_current(const DiodeParams& params, double vd);
/// Exact small-signal conductance dId/dVd.
[[nodiscard]] double diode_conductance(const DiodeParams& params, double vd);

/// Tabulated (G, J) linearisation of a diode.
class DiodeTable {
 public:
  DiodeTable() = default;

  /// Build a table with \p segments chords spanning [v_min, v_at(g_max)].
  DiodeTable(const DiodeParams& params, std::size_t segments, double v_min = -1.0,
             double g_max = 0.1);

  [[nodiscard]] const DiodeParams& params() const noexcept { return params_; }
  [[nodiscard]] std::size_t segments() const noexcept { return table_.segments(); }
  [[nodiscard]] double v_max() const noexcept { return table_.x_max(); }

  /// Linearised companion values at operating point \p vd:
  /// Id ~= slope * Vd + intercept (paper: G and J).
  [[nodiscard]] PwlTable::Affine conductance_and_source(double vd) const noexcept {
    return table_.affine(vd);
  }

  /// Tabulated current (the PWL characteristic itself).
  [[nodiscard]] double current(double vd) const noexcept { return table_.value(vd); }

  /// Segment index at \p vd (see PwlTable::segment).
  [[nodiscard]] std::size_t segment(double vd) const noexcept { return table_.segment(vd); }

  /// Conductance band at \p vd: segments whose slopes agree within ~7% share
  /// a band. Engines use bands (not raw segment indices) as linearisation
  /// signatures, so sweeping through the flat reverse-bias region does not
  /// force Jacobian rebuilds while the exponential knee still does.
  [[nodiscard]] std::uint32_t conductance_band(double vd) const noexcept {
    return bands_[table_.segment(vd)];
  }

  /// conductance_and_source() and conductance_band() at \p vd from one
  /// segment lookup.
  struct Companion {
    PwlTable::Affine affine;
    std::uint32_t band = 0;
  };
  [[nodiscard]] Companion companion(double vd) const noexcept {
    const std::size_t seg = table_.segment(vd);
    return {table_.segment_affine(seg), bands_[seg]};
  }

  /// Max |PWL - Shockley| over the tabulated domain.
  [[nodiscard]] double max_table_error(std::size_t probes = 2048) const;

 private:
  DiodeParams params_;
  PwlTable table_;
  std::vector<std::uint32_t> bands_;  ///< per-segment conductance band ids
};

/// Voltage at which the exact conductance reaches \p g_max.
[[nodiscard]] double voltage_at_conductance(const DiodeParams& params, double g_max);

}  // namespace ehsim::pwl
