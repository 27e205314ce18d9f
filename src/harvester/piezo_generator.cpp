#include "harvester/piezo_generator.hpp"

#include <numbers>

#include "common/assert.hpp"
#include "common/error.hpp"

namespace ehsim::harvester {

double PiezoParams::spring_stiffness() const noexcept {
  const double omega = 2.0 * std::numbers::pi * resonance_hz;
  return proof_mass * omega * omega;
}

PiezoGenerator::PiezoGenerator(const PiezoParams& params, const VibrationProfile& vibration)
    : core::AnalogBlock("piezo", 3, 2, 1), params_(params), vibration_(&vibration) {
  if (!(params_.proof_mass > 0.0) || !(params_.piezo_capacitance > 0.0)) {
    throw ModelError("PiezoGenerator: mass and capacitance must be positive");
  }
}

void PiezoGenerator::eval(double t, std::span<const double> x, std::span<const double> y,
                          std::span<double> fx, std::span<double> fy) const {
  EHSIM_ASSERT(x.size() == 3 && y.size() == 2 && fx.size() == 3 && fy.size() == 1,
               "PiezoGenerator::eval dimension mismatch");
  const double m = params_.proof_mass;
  const double ks = params_.spring_stiffness();
  const double theta = params_.force_factor;

  fx[kZ] = x[kVel];
  fx[kVel] = (-params_.parasitic_damping * x[kVel] - ks * x[kZ] - theta * x[kVp] +
              m * vibration_->acceleration(t)) /
             m;
  fx[kVp] = (theta * x[kVel] - y[kIm]) / params_.piezo_capacitance;
  fy[0] = y[kVm] - x[kVp] + params_.series_resistance * y[kIm];
}

void PiezoGenerator::jacobians(double /*t*/, std::span<const double> /*x*/,
                               std::span<const double> /*y*/, linalg::Matrix& jxx,
                               linalg::Matrix& jxy, linalg::Matrix& jyx,
                               linalg::Matrix& jyy) const {
  const double m = params_.proof_mass;
  const double theta = params_.force_factor;
  jxx(kZ, kVel) = 1.0;
  jxx(kVel, kZ) = -params_.spring_stiffness() / m;
  jxx(kVel, kVel) = -params_.parasitic_damping / m;
  jxx(kVel, kVp) = -theta / m;
  jxx(kVp, kVel) = theta / params_.piezo_capacitance;
  jxy(kVp, kIm) = -1.0 / params_.piezo_capacitance;
  jyx(0, kVp) = -1.0;
  jyy(0, kVm) = 1.0;
  jyy(0, kIm) = params_.series_resistance;
}

void PiezoGenerator::varying_jacobian_entries(
    std::vector<core::JacobianEntry>& /*entries*/) const {}

std::uint64_t PiezoGenerator::jacobian_signature(double /*t*/, std::span<const double> /*x*/,
                                                 std::span<const double> /*y*/) const {
  return 1;  // constant-coefficient linear block
}

std::string PiezoGenerator::state_name(std::size_t i) const {
  switch (i) {
    case kZ:
      return "z";
    case kVel:
      return "dz";
    case kVp:
      return "vp";
    default:
      return AnalogBlock::state_name(i);
  }
}

std::string PiezoGenerator::terminal_name(std::size_t i) const {
  return i == kVm ? "Vm" : "Im";
}

}  // namespace ehsim::harvester
