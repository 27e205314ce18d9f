/// \file metrics.hpp
/// \brief Waveform metrics for the paper's figures and accuracy claims.
///
/// Fig. 8(a) reports windowed RMS microgenerator power; Figs. 8(b) and 9
/// compare simulated and measured supercapacitor voltage ("the simulation
/// waveform correlates well with the experimental measurement"). The benches
/// quantify that correlation with Pearson r and normalised RMS error over a
/// common time grid.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "io/json.hpp"

namespace ehsim::experiments {

/// Arithmetic mean.
[[nodiscard]] double mean(std::span<const double> values);
/// Pearson correlation coefficient; 0 when either signal is constant.
[[nodiscard]] double pearson_correlation(std::span<const double> a, std::span<const double> b);
/// RMS error normalised by the peak-to-peak range of \p reference.
[[nodiscard]] double nrmse(std::span<const double> reference, std::span<const double> test);

/// Linear interpolation of (times, values) onto \p grid. Times must be
/// non-decreasing; the boundary values extend beyond the ends.
[[nodiscard]] std::vector<double> resample(std::span<const double> times,
                                           std::span<const double> values,
                                           std::span<const double> grid);

/// Uniform time grid [t0, t1] with \p points samples.
[[nodiscard]] std::vector<double> uniform_grid(double t0, double t1, std::size_t points);

/// Time-weighted (trapezoidal) statistics accumulated in fixed-width bins —
/// the streaming form used to turn the multi-million-point instantaneous
/// power waveform p(t) = Vm*Im into the per-bin mean/RMS series of Fig. 8(a)
/// without storing every solver step.
class BinnedAccumulator {
 public:
  /// \param t0        start of the first bin
  /// \param bin_width width of each bin [s]
  /// \param bins      number of bins
  BinnedAccumulator(double t0, double bin_width, std::size_t bins);

  /// Add a sample at time \p t (trapezoid vs the previous sample).
  void add(double t, double value);

  [[nodiscard]] std::size_t bins() const noexcept { return integral_.size(); }
  [[nodiscard]] double bin_width() const noexcept { return bin_width_; }
  /// Centre time of bin \p i.
  [[nodiscard]] double bin_center(std::size_t i) const;
  /// Time-averaged value within bin \p i (0 when the bin saw no samples).
  [[nodiscard]] double bin_mean(std::size_t i) const;
  /// RMS of the value within bin \p i.
  [[nodiscard]] double bin_rms(std::size_t i) const;
  /// Time-averaged value over [t_start, t_end] (whole bins inside the range).
  [[nodiscard]] double mean_over(double t_start, double t_end) const;

  /// Exact snapshot of the per-bin integrals and the trapezoid cursor.
  [[nodiscard]] io::JsonValue checkpoint_state() const;
  /// Restore onto an accumulator built with the same geometry (bin counts
  /// are verified; t0/width are the caller's responsibility).
  void restore_checkpoint_state(const io::JsonValue& state);

 private:
  void deposit(double t_from, double t_to, double v_from, double v_to);

  double t0_;
  double bin_width_;
  std::vector<double> integral_;    ///< integral of v dt per bin
  std::vector<double> integral_sq_; ///< integral of v^2 dt per bin
  std::vector<double> covered_;     ///< covered time per bin
  double last_t_ = 0.0;
  double last_v_ = 0.0;
  bool has_last_ = false;
};

/// Streaming mean/variance/extrema over a scalar population (Welford's
/// online algorithm — numerically stable for long accumulations). Ensemble
/// statistics feed replicas in job order, so the result is independent of
/// how many worker threads ran them.
class WelfordAccumulator {
 public:
  void add(double value);

  [[nodiscard]] std::size_t count() const noexcept { return count_; }
  [[nodiscard]] double mean() const noexcept { return mean_; }
  /// Unbiased sample variance (0 with fewer than two samples).
  [[nodiscard]] double variance() const noexcept;
  /// Standard error of the mean, sqrt(variance / count) (0 with < 2 samples).
  [[nodiscard]] double standard_error() const noexcept;
  [[nodiscard]] double minimum() const noexcept { return min_; }
  [[nodiscard]] double maximum() const noexcept { return max_; }

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;  ///< sum of squared deviations from the running mean
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace ehsim::experiments
