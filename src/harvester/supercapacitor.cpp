#include "harvester/supercapacitor.hpp"

#include <cstdint>

#include "common/assert.hpp"
#include "common/error.hpp"

namespace ehsim::harvester {

double load_resistance(const LoadParams& params, LoadMode mode) {
  switch (mode) {
    case LoadMode::kSleep:
      return params.sleep_ohms;
    case LoadMode::kAwake:
      return params.awake_ohms;
    case LoadMode::kTuning:
      return params.tuning_ohms;
  }
  throw ModelError("load_resistance: invalid mode");
}

const char* load_mode_name(LoadMode mode) {
  switch (mode) {
    case LoadMode::kSleep:
      return "sleep";
    case LoadMode::kAwake:
      return "awake";
    case LoadMode::kTuning:
      return "tuning";
  }
  return "?";
}

Supercapacitor::Supercapacitor(const SupercapacitorParams& params, const LoadParams& load)
    : core::AnalogBlock("supercap", 3, 2, 1),
      params_(params),
      load_params_(load),
      req_(load.sleep_ohms) {
  if (!(params_.ri > 0.0) || !(params_.rd > 0.0) || !(params_.rl > 0.0)) {
    throw ModelError("Supercapacitor: branch resistances must be positive");
  }
  if (!(params_.ci0 > 0.0) || !(params_.cd > 0.0) || !(params_.cl > 0.0)) {
    throw ModelError("Supercapacitor: branch capacitances must be positive");
  }
}

void Supercapacitor::set_load_mode(LoadMode mode) {
  if (mode == mode_) {
    return;
  }
  mode_ = mode;
  req_ = load_resistance(load_params_, mode);
  bump_epoch();
}

void Supercapacitor::restore_load_mode(LoadMode mode) {
  mode_ = mode;
  req_ = load_resistance(load_params_, mode);
}

void Supercapacitor::initial_state(std::span<double> x) const {
  EHSIM_ASSERT(x.size() == 3, "Supercapacitor::initial_state dimension mismatch");
  x[kVi] = params_.initial_voltage;
  x[kVd] = params_.initial_voltage;
  x[kVl] = params_.initial_voltage;
}

void Supercapacitor::eval(double /*t*/, std::span<const double> x, std::span<const double> y,
                          std::span<double> fx, std::span<double> fy) const {
  EHSIM_ASSERT(x.size() == 3 && y.size() == 2 && fx.size() == 3 && fy.size() == 1,
               "Supercapacitor::eval dimension mismatch");
  const double vi = x[kVi];
  const double vd = x[kVd];
  const double vl = x[kVl];
  const double vc = y[kVc];

  // Branch charging (paper Eq. 15), with the Zubieta voltage-dependent
  // immediate capacitance kept non-linear.
  fx[kVi] = (vc - vi) / (params_.ri * immediate_capacitance(vi));
  fx[kVd] = (vc - vd) / (params_.rd * params_.cd);
  fx[kVl] = (vc - vl) / (params_.rl * params_.cl);

  // KCL at the storage port: Ic = branch currents + load + leakage.
  double load_current = vc / req_;
  if (params_.leakage_resistance > 0.0) {
    load_current += vc / params_.leakage_resistance;
  }
  fy[0] = y[kIc] - (vc - vi) / params_.ri - (vc - vd) / params_.rd - (vc - vl) / params_.rl -
          load_current;
}

void Supercapacitor::jacobians(double /*t*/, std::span<const double> x,
                               std::span<const double> y, linalg::Matrix& jxx,
                               linalg::Matrix& jxy, linalg::Matrix& jyx,
                               linalg::Matrix& jyy) const {
  const double vi = x[kVi];
  const double vc = y[kVc];
  const double ci = immediate_capacitance(vi);

  // d fx_Vi / dVi includes the capacitance-voltage dependence.
  jxx(kVi, kVi) =
      -1.0 / (params_.ri * ci) - (vc - vi) * params_.ci1 / (params_.ri * ci * ci);
  jxx(kVd, kVd) = -1.0 / (params_.rd * params_.cd);
  jxx(kVl, kVl) = -1.0 / (params_.rl * params_.cl);

  jxy(kVi, kVc) = 1.0 / (params_.ri * ci);
  jxy(kVd, kVc) = 1.0 / (params_.rd * params_.cd);
  jxy(kVl, kVc) = 1.0 / (params_.rl * params_.cl);

  jyx(0, kVi) = 1.0 / params_.ri;
  jyx(0, kVd) = 1.0 / params_.rd;
  jyx(0, kVl) = 1.0 / params_.rl;

  double load_conductance = 1.0 / req_;
  if (params_.leakage_resistance > 0.0) {
    load_conductance += 1.0 / params_.leakage_resistance;
  }
  jyy(0, kVc) = -1.0 / params_.ri - 1.0 / params_.rd - 1.0 / params_.rl - load_conductance;
  jyy(0, kIc) = 1.0;
}

void Supercapacitor::varying_jacobian_entries(std::vector<core::JacobianEntry>& entries) const {
  entries.push_back({core::JacobianBlock::kXX, kVi, kVi});
  entries.push_back({core::JacobianBlock::kXY, kVi, kVc});
}

std::uint64_t Supercapacitor::jacobian_signature(double /*t*/, std::span<const double> x,
                                                 std::span<const double> y) const {
  // 1 mV quantisation of the two quantities entering the non-linear
  // immediate-branch Jacobian entries, and the load mode, whose 1/Req
  // enters Jyy: equal epochs do not imply equal modes across systems.
  const auto q_vi = static_cast<std::int64_t>(x[kVi] * 1000.0);
  const auto q_dv = static_cast<std::int64_t>((y[kVc] - x[kVi]) * 1000.0);
  std::uint64_t hash = 1469598103934665603ull;
  hash ^= static_cast<std::uint64_t>(q_vi + (1ll << 32));
  hash *= 1099511628211ull;
  hash ^= static_cast<std::uint64_t>(q_dv + (1ll << 32));
  hash *= 1099511628211ull;
  hash ^= static_cast<std::uint64_t>(mode_);
  hash *= 1099511628211ull;
  return hash;
}

double Supercapacitor::stored_charge(std::span<const double> x) const {
  const double vi = x[kVi];
  // Immediate-branch charge integrates the voltage-dependent capacitance:
  // q(V) = Ci0 V + Ci1 V^2 / 2.
  return params_.ci0 * vi + 0.5 * params_.ci1 * vi * vi + params_.cd * x[kVd] +
         params_.cl * x[kVl];
}

std::string Supercapacitor::state_name(std::size_t i) const {
  switch (i) {
    case kVi:
      return "Vi";
    case kVd:
      return "Vd";
    case kVl:
      return "Vl";
    default:
      return AnalogBlock::state_name(i);
  }
}

std::string Supercapacitor::terminal_name(std::size_t i) const {
  switch (i) {
    case kVc:
      return "Vc";
    case kIc:
      return "Ic";
    default:
      return AnalogBlock::terminal_name(i);
  }
}

}  // namespace ehsim::harvester
