/// \file params.hpp
/// \brief Device parameters of the tunable electromagnetic energy harvester.
///
/// The paper validates against the Southampton autonomous tunable harvester
/// (Ayala-Garcia et al., PowerMEMS 2009 [7]; microgenerator characterised in
/// Zhu et al., Sensors & Actuators A 158 [2]) but does not tabulate raw
/// parameters. The values below are calibrated so that the *observables the
/// paper reports* are reproduced (README.md, "What the reproduction does not
/// emulate"):
///   * untuned resonance 64 Hz, maximum tuning range ~14 Hz (64 -> 78 Hz),
///   * RMS microgenerator output power ~117-118 uW when tuned at 70/71 Hz
///     under 0.59 m/s^2 excitation (measured: 116 uW),
///   * supercapacitor charge/discharge behaviour: hours-scale full charge,
///     visible dip during an actuation burst, slow recovery,
///   * equivalent load resistances per paper Eq. 16: 1e9 / 33 / 16.7 Ohm.
#pragma once

#include <cstddef>

#include "pwl/diode_table.hpp"

namespace ehsim::harvester {

/// Electromagnetic microgenerator (paper Eqs. 8-13).
struct MicrogeneratorParams {
  double proof_mass = 0.018;        ///< m [kg]
  double parasitic_damping = 0.06;  ///< cp [N s/m]
  double untuned_resonance_hz = 64.0;  ///< fr [Hz]; ks = m (2 pi fr)^2
  double flux_linkage = 17.8;       ///< Phi = N B l [V s/m = N/A]
  double coil_resistance = 110.0;   ///< Rc [Ohm]
  /// Coil inductance Lc [H]. At the harvester's working frequencies the
  /// coil reactance is negligible (w*Lc ~ 4 Ohm << Rc at 70 Hz), and keeping
  /// iL as a state adds a parasitic stiff mode (Lc against the multiplier's
  /// blocking diodes) that the paper itself warns about ("the technique is
  /// unlikely to offer a speed advantage when applied to strongly stiff
  /// systems"). Lc = 0 (default) treats the coil algebraically (generator
  /// has 2 states, full model 11 states as in the paper); Lc > 0 enables the
  /// verbatim Eq. 13 three-state form, exercised by tests and ablation A4.
  double coil_inductance = 0.0;
  /// Fraction of the axial tuning force appearing along z (paper's Ft_z);
  /// small for the near-axial magnet arrangement of Fig. 4(a).
  double tuning_force_z_fraction = 0.01;

  /// Effective spring stiffness ks [N/m] of the untuned cantilever.
  [[nodiscard]] double spring_stiffness() const noexcept;

  [[nodiscard]] bool operator==(const MicrogeneratorParams&) const = default;
};

/// Magnetic tuning mechanism (paper Eq. 12 and Fig. 4a).
struct TuningParams {
  double buckling_load = 4.5;       ///< Fb [N] of the cantilever
  /// Dipole-approximation force constant: Ft(d) = force_constant/(d+offset)^4.
  double force_constant = 1.77e-10; ///< [N m^4]
  double gap_offset = 2.0e-3;       ///< d0 [m], magnet-centre offset
  double gap_min = 0.5e-3;          ///< actuator travel limits [m]
  double gap_max = 8.0e-3;

  [[nodiscard]] bool operator==(const TuningParams&) const = default;
};

/// Linear actuator moving the tuning magnet.
struct ActuatorParams {
  double speed = 1.0e-3;            ///< [m/s]
  double initial_gap = 8.0e-3;      ///< fully relaxed (untuned) position [m]

  [[nodiscard]] bool operator==(const ActuatorParams&) const = default;
};

/// 5-stage Dickson voltage multiplier (paper Eq. 14, Fig. 5).
struct MultiplierParams {
  std::size_t stages = 5;
  double stage_capacitance = 22e-6;  ///< C1..C5 [F]
  /// Input filter capacitor from the AC input node to ground — a standard
  /// element of energy-harvesting power conditioning front-ends. It also
  /// keeps the input node regular when every diode blocks (otherwise the
  /// generator would face an open circuit and the eliminated system would
  /// acquire a parasitic stiff mode).
  double input_filter_capacitance = 1.0e-6;  ///< Cf [F]
  pwl::DiodeParams diode{2e-7, 1.05, 0.02585, 1e-12};  ///< Schottky-like
  std::size_t table_segments = 512;  ///< PWL granularity (ablation A2)
  double table_g_max = 0.005;         ///< conductance clamp [S]; bounds Eq. 7 step
  double table_v_min = -6.0;         ///< reverse-bias table extent [V]
  /// Fetch the (immutable) PWL table from the process-wide cache so batch
  /// jobs with identical model structure share one instance — bit-identical
  /// to a privately built table (pwl/table_cache.hpp). Disable to force a
  /// private build (ablation / cache bit-identity tests).
  bool share_diode_table = true;

  [[nodiscard]] bool operator==(const MultiplierParams&) const = default;
};

/// Supercapacitor three-branch model (paper Eq. 15; Zubieta-Bonert [11])
/// plus the equivalent load resistor Req of Eq. 16.
struct SupercapacitorParams {
  double ri = 2.0;        ///< immediate branch resistance [Ohm]
  double ci0 = 0.38;      ///< immediate branch constant capacitance [F]
  double ci1 = 0.04;      ///< voltage-dependent term [F/V]: Ci = Ci0 + Ci1*Vi
  double rd = 90.0;       ///< delayed branch [Ohm]
  double cd = 0.10;       ///< delayed branch [F]
  double rl = 900.0;      ///< long-term branch [Ohm]
  double cl = 0.07;       ///< long-term branch [F]
  double initial_voltage = 3.45;  ///< precharge [V]
  double leakage_resistance = 0.0;  ///< parallel leakage [Ohm]; 0 = none

  [[nodiscard]] bool operator==(const SupercapacitorParams&) const = default;
};

/// Equivalent load resistances (paper Eq. 16).
struct LoadParams {
  double sleep_ohms = 1.0e9;   ///< microcontroller in sleep mode
  double awake_ohms = 33.0;    ///< microcontroller awake
  double tuning_ohms = 16.7;   ///< actuator performing tuning

  [[nodiscard]] bool operator==(const LoadParams&) const = default;
};

/// Microcontroller control process (paper Fig. 7).
struct McuParams {
  double watchdog_period = 60.0;      ///< [s]
  double measurement_time = 10e-3;    ///< awake time for the frequency check [s]
  double frequency_tolerance = 0.25;  ///< |f_ambient - f_res| considered matched [Hz]
  double energy_threshold_voltage = 2.1;  ///< "enough energy" check [V]
  double abort_voltage = 1.8;         ///< pause tuning below this [V]

  [[nodiscard]] bool operator==(const McuParams&) const = default;
};

/// Ambient vibration excitation.
struct VibrationParams {
  double acceleration_amplitude = 0.59;  ///< [m/s^2] (paper [2])
  double initial_frequency_hz = 70.0;

  [[nodiscard]] bool operator==(const VibrationParams&) const = default;
};

/// Complete harvester parameter set.
struct HarvesterParams {
  MicrogeneratorParams generator{};
  TuningParams tuning{};
  ActuatorParams actuator{};
  MultiplierParams multiplier{};
  SupercapacitorParams supercap{};
  LoadParams load{};
  McuParams mcu{};
  VibrationParams vibration{};

  [[nodiscard]] bool operator==(const HarvesterParams&) const = default;
};

}  // namespace ehsim::harvester
