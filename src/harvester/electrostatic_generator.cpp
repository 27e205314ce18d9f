#include "harvester/electrostatic_generator.hpp"

#include <algorithm>
#include <numbers>

#include "common/assert.hpp"
#include "common/error.hpp"

namespace ehsim::harvester {

double ElectrostaticParams::spring_stiffness() const noexcept {
  const double omega = 2.0 * std::numbers::pi * resonance_hz;
  return proof_mass * omega * omega;
}

ElectrostaticGenerator::ElectrostaticGenerator(const ElectrostaticParams& params,
                                               const VibrationProfile& vibration)
    : core::AnalogBlock("electrostatic", 3, 2, 1), params_(params), vibration_(&vibration) {
  if (!(params_.nominal_gap > 0.0) || !(params_.plate_area > 0.0)) {
    throw ModelError("ElectrostaticGenerator: geometry must be positive");
  }
}

void ElectrostaticGenerator::initial_state(std::span<double> x) const {
  x[kZ] = 0.0;
  x[kVel] = 0.0;
  // Bias equilibrium: q = C(g0) * V_bias (port at 0 V).
  x[kQ] = params_.nominal_capacitance() * params_.bias_voltage;
}

double ElectrostaticGenerator::effective_gap(double z) const noexcept {
  return std::max(params_.nominal_gap + z, params_.min_gap_fraction * params_.nominal_gap);
}

void ElectrostaticGenerator::eval(double t, std::span<const double> x,
                                  std::span<const double> y, std::span<double> fx,
                                  std::span<double> fy) const {
  EHSIM_ASSERT(x.size() == 3 && y.size() == 2 && fx.size() == 3 && fy.size() == 1,
               "ElectrostaticGenerator::eval dimension mismatch");
  const double m = params_.proof_mass;
  const double eps_a = params_.permittivity * params_.plate_area;
  const double q = x[kQ];

  fx[kZ] = x[kVel];
  fx[kVel] = (-params_.parasitic_damping * x[kVel] - params_.spring_stiffness() * x[kZ] -
              q * q / (2.0 * eps_a) + m * vibration_->acceleration(t)) /
             m;
  fx[kQ] = -y[kIm];
  fy[0] = y[kVm] - q * effective_gap(x[kZ]) / eps_a + params_.bias_voltage +
          params_.series_resistance * y[kIm];
}

void ElectrostaticGenerator::jacobians(double /*t*/, std::span<const double> x,
                                       std::span<const double> /*y*/, linalg::Matrix& jxx,
                                       linalg::Matrix& jxy, linalg::Matrix& jyx,
                                       linalg::Matrix& jyy) const {
  const double m = params_.proof_mass;
  const double eps_a = params_.permittivity * params_.plate_area;
  const double q = x[kQ];

  jxx(kZ, kVel) = 1.0;
  jxx(kVel, kZ) = -params_.spring_stiffness() / m;
  jxx(kVel, kVel) = -params_.parasitic_damping / m;
  jxx(kVel, kQ) = -q / (eps_a * m);
  jxy(kQ, kIm) = -1.0;
  const bool at_stop =
      params_.nominal_gap + x[kZ] <= params_.min_gap_fraction * params_.nominal_gap;
  jyx(0, kZ) = at_stop ? 0.0 : -q / eps_a;
  jyx(0, kQ) = -effective_gap(x[kZ]) / eps_a;
  jyy(0, kVm) = 1.0;
  jyy(0, kIm) = params_.series_resistance;
}

void ElectrostaticGenerator::varying_jacobian_entries(
    std::vector<core::JacobianEntry>& entries) const {
  entries.push_back({core::JacobianBlock::kXX, kVel, kQ});
  entries.push_back({core::JacobianBlock::kYX, 0, kZ});
  entries.push_back({core::JacobianBlock::kYX, 0, kQ});
}

std::string ElectrostaticGenerator::state_name(std::size_t i) const {
  switch (i) {
    case kZ:
      return "z";
    case kVel:
      return "dz";
    case kQ:
      return "q";
    default:
      return AnalogBlock::state_name(i);
  }
}

std::string ElectrostaticGenerator::terminal_name(std::size_t i) const {
  return i == kVm ? "Vm" : "Im";
}

}  // namespace ehsim::harvester
