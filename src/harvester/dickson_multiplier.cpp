#include "harvester/dickson_multiplier.hpp"

#include "common/assert.hpp"
#include "common/error.hpp"
#include "pwl/table_cache.hpp"

namespace ehsim::harvester {

namespace {

std::shared_ptr<const pwl::DiodeTable> make_table(const MultiplierParams& params,
                                                  bool& was_shared) {
  if (params.share_diode_table) {
    return pwl::shared_diode_table(params.diode, params.table_segments, params.table_v_min,
                                   params.table_g_max, &was_shared);
  }
  was_shared = false;
  return std::make_shared<const pwl::DiodeTable>(params.diode, params.table_segments,
                                                 params.table_v_min, params.table_g_max);
}

}  // namespace

DicksonMultiplier::DicksonMultiplier(const MultiplierParams& params, DeviceEvalMode mode)
    : core::AnalogBlock("multiplier", params.stages + 1, 4, 2),
      params_(params),
      mode_(mode),
      id_(params.stages + 1),
      gd_(params.stages + 1) {
  if (params_.stages == 0) {
    throw ModelError("DicksonMultiplier: need at least one stage");
  }
  if (!(params_.stage_capacitance > 0.0) || !(params_.input_filter_capacitance > 0.0)) {
    throw ModelError("DicksonMultiplier: capacitances must be positive");
  }
  table_ = make_table(params_, table_shared_);
}

void DicksonMultiplier::diode_companion(double vd, double& current, double& conductance) const {
  if (mode_ == DeviceEvalMode::kPwlTable) {
    const auto affine = table_->conductance_and_source(vd);
    conductance = affine.slope;
    current = affine.slope * vd + affine.intercept;
  } else {
    current = pwl::diode_current(params_.diode, vd);
    conductance = pwl::diode_conductance(params_.diode, vd);
  }
}

double DicksonMultiplier::diode_voltage(std::size_t index, std::span<const double> x,
                                        std::span<const double> y) const {
  const std::size_t n = params_.stages;
  EHSIM_ASSERT(index >= 1 && index <= n + 1, "diode index out of range");
  const double vf = x[n];  // input node voltage (filter capacitor state)
  auto node = [&](std::size_t i) -> double {  // i = 0..n
    return i == 0 ? 0.0 : x[i - 1] + pump_phase(i) * vf;
  };
  if (index <= n) {
    return node(index - 1) - node(index);
  }
  return node(n) - y[kVc];
}

void DicksonMultiplier::eval(double /*t*/, std::span<const double> x,
                             std::span<const double> y, std::span<double> fx,
                             std::span<double> fy) const {
  const std::size_t n = params_.stages;
  EHSIM_ASSERT(x.size() == n + 1 && y.size() == 4 && fx.size() == n + 1 && fy.size() == 2,
               "DicksonMultiplier::eval dimension mismatch");
  const double c = params_.stage_capacitance;
  const double cf = params_.input_filter_capacitance;

  for (std::size_t i = 1; i <= n + 1; ++i) {
    diode_companion(diode_voltage(i, x, y), id_[i - 1], gd_[i - 1]);
  }

  // KCL at every top-plate node: C dV_i/dt = Id_i - Id_{i+1}.
  for (std::size_t i = 1; i <= n; ++i) {
    fx[i - 1] = (id_[i - 1] - id_[i]) / c;
  }
  // KCL at the input node: the generator injects Im and each odd-stage pump
  // capacitor injects its bottom-plate current (equal to its top-plate
  // charging current C dV_i/dt = Id_i - Id_{i+1}); the filter capacitor
  // integrates the sum.
  double pump_sum = 0.0;
  for (std::size_t i = 1; i <= n; i += 2) {
    pump_sum += id_[i - 1] - id_[i];
  }
  fx[n] = (y[kIm] + pump_sum) / cf;

  // Input port voltage equals the filter node voltage.
  fy[0] = y[kVm] - x[n];
  // Output diode feeds the storage port.
  fy[1] = y[kIc] - id_[n];
}

void DicksonMultiplier::jacobians(double /*t*/, std::span<const double> x,
                                  std::span<const double> y, linalg::Matrix& jxx,
                                  linalg::Matrix& jxy, linalg::Matrix& jyx,
                                  linalg::Matrix& jyy) const {
  const std::size_t n = params_.stages;
  const double c = params_.stage_capacitance;
  const double cf = params_.input_filter_capacitance;

  for (std::size_t i = 1; i <= n + 1; ++i) {
    diode_companion(diode_voltage(i, x, y), id_[i - 1], gd_[i - 1]);
  }

  // vd_i = node_{i-1} - node_i with node_j = x_{j-1} + b_j Vf (node_0 = 0,
  // Vf = x_n); vd_{n+1} = node_n - Vc. Derivative of vd_i w.r.t. Vf:
  auto dvd_dvf = [&](std::size_t i) -> double {  // i = 1..n+1
    const double b_prev = i >= 2 ? pump_phase(i - 1) : 0.0;
    const double b_this = i <= n ? pump_phase(i) : 0.0;
    return b_prev - b_this;
  };

  // Stage rows: fx_{i-1} = (Id_i - Id_{i+1})/C.
  for (std::size_t i = 1; i <= n; ++i) {
    const std::size_t r = i - 1;
    const double gi = gd_[i - 1];
    const double gn = gd_[i];
    if (i >= 2) {
      jxx(r, i - 2) += gi / c;  // Id_i via node_{i-1}
    }
    jxx(r, i - 1) += -(gi + gn) / c;  // Id_i via node_i, Id_{i+1} via node_i
    if (i + 1 <= n) {
      jxx(r, i) += gn / c;  // Id_{i+1} via node_{i+1}
    } else {
      jxy(r, kVc) += gn / c;  // -Id_{n+1} with dvd_{n+1}/dVc = -1
    }
    jxx(r, n) += (gi * dvd_dvf(i) - gn * dvd_dvf(i + 1)) / c;
  }

  // Filter node row: fx_n = (Im + pump_sum)/Cf.
  jxy(n, kIm) = 1.0 / cf;
  for (std::size_t i = 1; i <= n; i += 2) {
    const double gi = gd_[i - 1];
    const double gn = gd_[i];
    if (i >= 2) {
      jxx(n, i - 2) += gi / cf;  // Id_i via node_{i-1}
    }
    jxx(n, i - 1) += -(gi + gn) / cf;
    if (i + 1 <= n) {
      jxx(n, i) += gn / cf;
    } else {
      jxy(n, kVc) += gn / cf;  // -Id_{n+1} inside pump_sum, dvd/dVc = -1
    }
    jxx(n, n) += (gi * dvd_dvf(i) - gn * dvd_dvf(i + 1)) / cf;
  }

  // Input port row: fy_0 = Vm - Vf.
  jyy(0, kVm) = 1.0;
  jyx(0, n) = -1.0;

  // Output row: fy_1 = Ic - Id_{n+1}, vd_{n+1} = x_{n-1} + b_n Vf - Vc.
  const double g_out = gd_[n];
  jyy(1, kIc) = 1.0;
  jyx(1, n - 1) = -g_out;
  jyx(1, n) = -g_out * dvd_dvf(n + 1);  // b_n term via Vf
  jyy(1, kVc) = g_out;
}

void DicksonMultiplier::varying_jacobian_entries(
    std::vector<core::JacobianEntry>& entries) const {
  // Mirrors jacobians(): every entry below carries a diode conductance; the
  // 1/Cf and port entries are constant.
  using core::JacobianBlock;
  const std::size_t n = params_.stages;
  auto diode_row = [&](std::size_t r, std::size_t i) {  // Id_i - Id_{i+1} into row r
    if (i >= 2) {
      entries.push_back({JacobianBlock::kXX, r, i - 2});
    }
    entries.push_back({JacobianBlock::kXX, r, i - 1});
    if (i + 1 <= n) {
      entries.push_back({JacobianBlock::kXX, r, i});
    } else {
      entries.push_back({JacobianBlock::kXY, r, kVc});
    }
    entries.push_back({JacobianBlock::kXX, r, n});
  };
  for (std::size_t i = 1; i <= n; ++i) {
    diode_row(i - 1, i);
  }
  for (std::size_t i = 1; i <= n; i += 2) {
    diode_row(n, i);
  }
  entries.push_back({JacobianBlock::kYX, 1, n - 1});
  if (pump_phase(n) != 0.0) {
    entries.push_back({JacobianBlock::kYX, 1, n});  // -g_out * dvd_{n+1}/dVf
  }
  entries.push_back({JacobianBlock::kYY, 1, kVc});
}

std::uint64_t DicksonMultiplier::jacobian_signature(double /*t*/, std::span<const double> x,
                                                     std::span<const double> y) const {
  if (mode_ != DeviceEvalMode::kPwlTable) {
    return kAlwaysRebuild;
  }
  const std::size_t n = params_.stages;
  std::uint64_t hash = 1469598103934665603ull;
  for (std::size_t i = 1; i <= n + 1; ++i) {
    hash ^= table_->conductance_band(diode_voltage(i, x, y)) + 1;
    hash *= 1099511628211ull;
  }
  return hash;
}

std::string DicksonMultiplier::state_name(std::size_t i) const {
  if (i == params_.stages) {
    return "Vf";
  }
  std::string name("V");
  name += std::to_string(i + 1);
  return name;
}

std::string DicksonMultiplier::terminal_name(std::size_t i) const {
  switch (i) {
    case kVm:
      return "Vm";
    case kIm:
      return "Im";
    case kVc:
      return "Vc";
    case kIc:
      return "Ic";
    default:
      return AnalogBlock::terminal_name(i);
  }
}

}  // namespace ehsim::harvester
