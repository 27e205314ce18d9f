#include "pwl/diode_table.hpp"

#include <algorithm>
#include <cmath>

namespace ehsim::pwl {

double diode_current(const DiodeParams& params, double vd) {
  return params.saturation_current * std::expm1(vd / params.vte()) + params.g_min * vd;
}

double diode_conductance(const DiodeParams& params, double vd) {
  return params.saturation_current / params.vte() * std::exp(vd / params.vte()) + params.g_min;
}

double voltage_at_conductance(const DiodeParams& params, double g_max) {
  if (!(g_max > params.g_min)) {
    throw ModelError("voltage_at_conductance: g_max must exceed g_min");
  }
  const double vte = params.vte();
  return vte * std::log((g_max - params.g_min) * vte / params.saturation_current);
}

DiodeTable::DiodeTable(const DiodeParams& params, std::size_t segments, double v_min,
                       double g_max)
    : params_(params) {
  if (segments == 0) {
    throw ModelError("DiodeTable: require at least one segment");
  }
  const double v_max = voltage_at_conductance(params, g_max);
  if (!(v_max > v_min)) {
    throw ModelError("DiodeTable: table domain is empty (check g_max / v_min)");
  }
  table_ = PwlTable([&params](double v) { return diode_current(params, v); }, v_min, v_max,
                    segments);
  // Band ids: slopes within one 7% ratio bucket share a band.
  bands_.resize(table_.segments());
  const double dx = (v_max - v_min) / static_cast<double>(segments);
  for (std::size_t k = 0; k < bands_.size(); ++k) {
    const double mid = v_min + (static_cast<double>(k) + 0.5) * dx;
    const double slope = std::max(table_.slope(mid), 1e-15);
    bands_[k] = static_cast<std::uint32_t>(
        std::lround(std::log(slope) / std::log(1.07)) + 2000);
  }
}

double DiodeTable::max_table_error(std::size_t probes) const {
  return table_.max_error_against(
      [this](double v) { return diode_current(params_, v); }, probes);
}

}  // namespace ehsim::pwl
