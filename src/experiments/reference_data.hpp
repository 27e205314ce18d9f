/// \file reference_data.hpp
/// \brief Synthetic "experimental measurement" traces (README.md, "What the
/// reproduction does not emulate").
///
/// The paper validates simulation against measurements of the physical
/// harvester and attributes the residual difference to "leakage and
/// parasitic loss" absent from the HDL model. Without the hardware, the
/// measurement is substituted by a simulation of a *perturbed* plant —
/// extra supercapacitor leakage, lossier diodes, slightly detuned
/// electromechanical parameters — plus instrument noise with a fixed seed.
/// The comparison benches (Figs. 8b, 9) then reproduce exactly the
/// simulation-vs-measurement relationship the paper shows: same macroscopic
/// waveform, small systematic deviation.
#pragma once

#include <vector>

#include "experiments/scenarios.hpp"

namespace ehsim::experiments {

struct ExperimentalTrace {
  std::vector<double> time;
  std::vector<double> vc;  ///< measured supercapacitor voltage [V]
};

/// Perturbations applied to the nominal plant to emulate the physical
/// device's parasitics.
struct MeasurementModel {
  double supercap_leakage_ohms = 150e3;   ///< paper: "leakage ... loss"
  double flux_derating = 0.97;            ///< slightly weaker coupling
  double coil_resistance_factor = 1.05;   ///< lossier coil
  double diode_saturation_factor = 1.6;   ///< lossier rectifier
  double noise_sigma_volts = 0.004;       ///< instrument noise (1 sigma)
  unsigned seed = 42;                     ///< fixed for reproducibility
};

/// Device parameters of the perturbed plant for a scenario.
[[nodiscard]] harvester::HarvesterParams perturbed_params(const ExperimentSpec& spec,
                                                          const MeasurementModel& model);

/// Run the perturbed plant (proposed engine) and sample its supercapacitor
/// voltage on a uniform grid with measurement noise.
[[nodiscard]] ExperimentalTrace make_experimental_trace(const ExperimentSpec& spec,
                                                        double grid_dt = 0.5,
                                                        const MeasurementModel& model = {});

}  // namespace ehsim::experiments
