#include "harvester/microgenerator.hpp"

#include <cstring>

#include "common/assert.hpp"
#include "common/error.hpp"

namespace ehsim::harvester {

Microgenerator::Microgenerator(const MicrogeneratorParams& params,
                               const VibrationProfile& vibration,
                               const TuningMechanism& tuning, const LinearActuator& actuator)
    : core::AnalogBlock("generator", params.coil_inductance > 0.0 ? 3 : 2, 2, 1),
      params_(params),
      vibration_(&vibration),
      tuning_(&tuning),
      actuator_(&actuator) {
  if (!(params_.proof_mass > 0.0)) {
    throw ModelError("Microgenerator: mass must be positive");
  }
  if (params_.coil_inductance < 0.0) {
    throw ModelError("Microgenerator: coil inductance must be >= 0");
  }
  if (!(params_.coil_resistance > 0.0)) {
    throw ModelError("Microgenerator: coil resistance must be positive");
  }
}

double Microgenerator::effective_stiffness(double t) const {
  return tuning_->stiffness_at_gap(actuator_->position(t));
}

double Microgenerator::tuning_force_z(double t) const {
  return params_.tuning_force_z_fraction * tuning_->force_at_gap(actuator_->position(t));
}

double Microgenerator::resonant_frequency(double t) const {
  return tuning_->resonance_at_gap(actuator_->position(t));
}

void Microgenerator::eval(double t, std::span<const double> x, std::span<const double> y,
                          std::span<double> fx, std::span<double> fy) const {
  EHSIM_ASSERT(x.size() == num_states() && y.size() == 2 && fx.size() == num_states() &&
                   fy.size() == 1,
               "Microgenerator::eval dimension mismatch");
  const double m = params_.proof_mass;
  const double cp = params_.parasitic_damping;
  const double ks = effective_stiffness(t);
  const double phi = params_.flux_linkage;
  const double rc = params_.coil_resistance;

  const double z = x[kZ];
  const double vel = x[kVel];
  const double vm = y[kVm];
  const double im = y[kIm];

  if (params_.coil_inductance > 0.0) {
    // Verbatim Eq. 13: states z, dz/dt, iL; constraint Im = iL.
    const double il = x[kIl];
    fx[kZ] = vel;
    fx[kVel] = (-cp * vel - ks * z - phi * il - tuning_force_z(t) +
                m * vibration_->acceleration(t)) /
               m;
    fx[kIl] = (phi * vel - rc * il - vm) / params_.coil_inductance;
    fy[0] = im - il;
  } else {
    // Algebraic-coil variant (w Lc << Rc at the working frequencies): the
    // electromagnetic force uses the port current directly and the coil
    // equation Vm = Phi dz/dt - Rc Im becomes the algebraic constraint.
    fx[kZ] = vel;
    fx[kVel] = (-cp * vel - ks * z - phi * im - tuning_force_z(t) +
                m * vibration_->acceleration(t)) /
               m;
    fy[0] = vm - phi * vel + rc * im;
  }
}

void Microgenerator::jacobians(double t, std::span<const double> /*x*/,
                               std::span<const double> /*y*/, linalg::Matrix& jxx,
                               linalg::Matrix& jxy, linalg::Matrix& jyx,
                               linalg::Matrix& jyy) const {
  const double m = params_.proof_mass;
  const double cp = params_.parasitic_damping;
  const double ks = effective_stiffness(t);
  const double phi = params_.flux_linkage;
  const double rc = params_.coil_resistance;

  jxx(kZ, kVel) = 1.0;
  jxx(kVel, kZ) = -ks / m;
  jxx(kVel, kVel) = -cp / m;

  if (params_.coil_inductance > 0.0) {
    const double lc = params_.coil_inductance;
    jxx(kVel, kIl) = -phi / m;
    jxx(kIl, kVel) = phi / lc;
    jxx(kIl, kIl) = -rc / lc;
    jxy(kIl, kVm) = -1.0 / lc;
    jyx(0, kIl) = -1.0;
    jyy(0, kIm) = 1.0;
  } else {
    jxy(kVel, kIm) = -phi / m;
    jyx(0, kVel) = -phi;
    jyy(0, kVm) = 1.0;
    jyy(0, kIm) = rc;
  }
}

void Microgenerator::varying_jacobian_entries(std::vector<core::JacobianEntry>& entries) const {
  entries.push_back({core::JacobianBlock::kXX, kVel, kZ});
}

std::uint64_t Microgenerator::jacobian_signature(double t, std::span<const double> /*x*/,
                                                 std::span<const double> /*y*/) const {
  if (actuator_->moving(t)) {
    return kAlwaysRebuild;  // ks_eff(t) varies continuously during a burst
  }
  // Parked: the Jacobians depend only on the (fixed) magnet position.
  std::uint64_t bits = 0;
  const double position = actuator_->position(t);
  static_assert(sizeof(bits) == sizeof(position));
  std::memcpy(&bits, &position, sizeof(bits));
  return bits;
}

std::string Microgenerator::state_name(std::size_t i) const {
  switch (i) {
    case kZ:
      return "z";
    case kVel:
      return "dz";
    case kIl:
      return "iL";
    default:
      return AnalogBlock::state_name(i);
  }
}

std::string Microgenerator::terminal_name(std::size_t i) const {
  switch (i) {
    case kVm:
      return "Vm";
    case kIm:
      return "Im";
    default:
      return AnalogBlock::terminal_name(i);
  }
}

}  // namespace ehsim::harvester
