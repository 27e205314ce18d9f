#include "pwl/pwl_table.hpp"

#include <algorithm>
#include <cmath>

namespace ehsim::pwl {

PwlTable::PwlTable(const std::function<double(double)>& fn, double x_min, double x_max,
                   std::size_t segments) {
  if (!fn) {
    throw ModelError("PwlTable: function is required");
  }
  if (!(x_max > x_min)) {
    throw ModelError("PwlTable: require x_max > x_min");
  }
  if (segments == 0) {
    throw ModelError("PwlTable: require at least one segment");
  }
  x_min_ = x_min;
  x_max_ = x_max;
  std::vector<double> values(segments + 1);
  const double dx = (x_max - x_min) / static_cast<double>(segments);
  for (std::size_t i = 0; i <= segments; ++i) {
    values[i] = fn(x_min + dx * static_cast<double>(i));
  }
  inv_dx_ = 1.0 / dx;
  slopes_.resize(segments);
  intercepts_.resize(segments);
  for (std::size_t i = 0; i < segments; ++i) {
    const double x_left = x_min_ + dx * static_cast<double>(i);
    const double slope = (values[i + 1] - values[i]) * inv_dx_;
    slopes_[i] = slope;
    intercepts_[i] = values[i] - slope * x_left;
    if (!std::isfinite(slope) || !std::isfinite(intercepts_[i])) {
      throw ModelError("PwlTable: non-finite breakpoint values");
    }
  }
}

double PwlTable::max_error_against(const std::function<double(double)>& fn,
                                   std::size_t probes) const {
  double max_err = 0.0;
  for (std::size_t i = 0; i < probes; ++i) {
    const double x =
        x_min_ + (x_max_ - x_min_) * static_cast<double>(i) / static_cast<double>(probes - 1);
    max_err = std::max(max_err, std::abs(value(x) - fn(x)));
  }
  return max_err;
}

}  // namespace ehsim::pwl
