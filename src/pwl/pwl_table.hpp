/// \file pwl_table.hpp
/// \brief Piecewise-linear lookup tables (paper Section III-B).
///
/// "The piece-wise linear tabular models are an additional measure to save
/// computation time. Due to the forward march-in-time nature of the explicit
/// integration algorithm, the required Jacobian values can be retrieved from
/// the look-up tables fast, without the need to evaluate complex, physical
/// equations. To maintain high modelling accuracy the granularity of the
/// piece-wise linear models can be arbitrarily fine since the size of the
/// look-up tables does not affect the simulation speed."
///
/// `PwlTable` stores per-segment (slope, intercept) pairs over a uniform
/// grid so lookup is a single multiply + clamp + two loads, independent of
/// the table size — exactly the property the paper exploits (ablation A2
/// measures it).
#pragma once

#include <algorithm>
#include <cstddef>
#include <functional>
#include <vector>

#include "common/error.hpp"

namespace ehsim::pwl {

/// Piecewise-linear approximation of a scalar function over [x_min, x_max]
/// on a uniform grid. Outside the domain the boundary segment is
/// extrapolated (callers choose domains so this is the correct physical
/// behaviour, e.g. ohmic extrapolation of a diode beyond the table edge).
class PwlTable {
 public:
  PwlTable() = default;

  /// Sample \p fn at \p segments+1 uniform points over [x_min, x_max].
  PwlTable(const std::function<double(double)>& fn, double x_min, double x_max,
           std::size_t segments);

  [[nodiscard]] bool empty() const noexcept { return slopes_.empty(); }
  [[nodiscard]] std::size_t segments() const noexcept { return slopes_.size(); }
  [[nodiscard]] double x_min() const noexcept { return x_min_; }
  [[nodiscard]] double x_max() const noexcept { return x_max_; }

  /// Interpolated value at \p x. O(1).
  [[nodiscard]] double value(double x) const noexcept {
    const std::size_t seg = segment_index(x);
    return intercepts_[seg] + slopes_[seg] * x;
  }

  /// Slope of the segment containing \p x (the tabulated Jacobian). O(1).
  [[nodiscard]] double slope(double x) const noexcept { return slopes_[segment_index(x)]; }

  /// Segment-affine form value(x) = j + g*x used by the linearised models:
  /// g = slope, j = intercept of the segment containing \p x.
  struct Affine {
    double slope = 0.0;
    double intercept = 0.0;
  };
  [[nodiscard]] Affine affine(double x) const noexcept {
    return segment_affine(segment_index(x));
  }
  /// affine() of segment \p seg, an index segment() returned.
  [[nodiscard]] Affine segment_affine(std::size_t seg) const noexcept {
    return {slopes_[seg], intercepts_[seg]};
  }

  /// Index of the segment containing \p x (clamped at the boundaries).
  /// Piecewise-linear models have piecewise-constant Jacobians, so engines
  /// use this to detect when a re-linearisation is actually necessary.
  [[nodiscard]] std::size_t segment(double x) const noexcept { return segment_index(x); }

  /// Maximum absolute error vs \p fn sampled at \p probes points (test and
  /// table-construction diagnostics).
  [[nodiscard]] double max_error_against(const std::function<double(double)>& fn,
                                         std::size_t probes = 1024) const;

 private:
  [[nodiscard]] std::size_t segment_index(double x) const noexcept {
    // Clamped uniform-grid index; branch-predictable in the hot loop.
    if (x <= x_min_) {
      return 0;
    }
    if (x >= x_max_) {
      return slopes_.size() - 1;
    }
    // Just below x_max the product can round up to segments(): when |x_min|
    // exceeds x_max, x - x_min rounds to x_max - x_min within an ulp of it.
    return std::min(static_cast<std::size_t>((x - x_min_) * inv_dx_), slopes_.size() - 1);
  }

  double x_min_ = 0.0;
  double x_max_ = 0.0;
  double inv_dx_ = 0.0;
  std::vector<double> slopes_;
  std::vector<double> intercepts_;
};

}  // namespace ehsim::pwl
