#include "experiments/metrics.hpp"

#include <algorithm>
#include <cmath>

#include "common/assert.hpp"
#include "common/error.hpp"
#include "io/state_json.hpp"

namespace ehsim::experiments {

double mean(std::span<const double> values) {
  if (values.empty()) {
    return 0.0;
  }
  double acc = 0.0;
  for (double v : values) {
    acc += v;
  }
  return acc / static_cast<double>(values.size());
}

double pearson_correlation(std::span<const double> a, std::span<const double> b) {
  EHSIM_ASSERT(a.size() == b.size(), "pearson_correlation size mismatch");
  if (a.size() < 2) {
    return 0.0;
  }
  const double ma = mean(a);
  const double mb = mean(b);
  double num = 0.0;
  double da = 0.0;
  double db = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    num += (a[i] - ma) * (b[i] - mb);
    da += (a[i] - ma) * (a[i] - ma);
    db += (b[i] - mb) * (b[i] - mb);
  }
  if (da <= 0.0 || db <= 0.0) {
    return 0.0;
  }
  return num / std::sqrt(da * db);
}

double nrmse(std::span<const double> reference, std::span<const double> test) {
  EHSIM_ASSERT(reference.size() == test.size(), "nrmse size mismatch");
  if (reference.empty()) {
    return 0.0;
  }
  double err = 0.0;
  double lo = reference[0];
  double hi = reference[0];
  for (std::size_t i = 0; i < reference.size(); ++i) {
    const double d = test[i] - reference[i];
    err += d * d;
    lo = std::min(lo, reference[i]);
    hi = std::max(hi, reference[i]);
  }
  const double range = hi - lo;
  if (range <= 0.0) {
    return std::sqrt(err / static_cast<double>(reference.size()));
  }
  return std::sqrt(err / static_cast<double>(reference.size())) / range;
}

std::vector<double> resample(std::span<const double> times, std::span<const double> values,
                             std::span<const double> grid) {
  EHSIM_ASSERT(times.size() == values.size(), "resample size mismatch");
  if (times.empty()) {
    throw ModelError("resample: empty input trace");
  }
  std::vector<double> out(grid.size());
  std::size_t j = 0;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const double t = grid[i];
    if (t <= times.front()) {
      out[i] = values.front();
      continue;
    }
    if (t >= times.back()) {
      out[i] = values.back();
      continue;
    }
    while (j + 1 < times.size() && times[j + 1] < t) {
      ++j;
    }
    const double t0 = times[j];
    const double t1 = times[j + 1];
    const double w = t1 > t0 ? (t - t0) / (t1 - t0) : 0.0;
    out[i] = values[j] + w * (values[j + 1] - values[j]);
  }
  return out;
}

std::vector<double> uniform_grid(double t0, double t1, std::size_t points) {
  if (points < 2 || !(t1 > t0)) {
    throw ModelError("uniform_grid: need t1 > t0 and at least two points");
  }
  std::vector<double> grid(points);
  for (std::size_t i = 0; i < points; ++i) {
    grid[i] = t0 + (t1 - t0) * static_cast<double>(i) / static_cast<double>(points - 1);
  }
  return grid;
}

BinnedAccumulator::BinnedAccumulator(double t0, double bin_width, std::size_t bins)
    : t0_(t0), bin_width_(bin_width) {
  if (!(bin_width > 0.0) || bins == 0) {
    throw ModelError("BinnedAccumulator: require positive bin width and count");
  }
  integral_.assign(bins, 0.0);
  integral_sq_.assign(bins, 0.0);
  covered_.assign(bins, 0.0);
}

void BinnedAccumulator::deposit(double t_from, double t_to, double v_from, double v_to) {
  // Split the trapezoid [t_from, t_to] across bin boundaries.
  double t = t_from;
  double v = v_from;
  const double slope = t_to > t_from ? (v_to - v_from) / (t_to - t_from) : 0.0;
  while (t < t_to) {
    const double rel = (t - t0_) / bin_width_;
    auto bin = static_cast<std::ptrdiff_t>(std::floor(rel));
    double bin_end = t0_ + (static_cast<double>(bin) + 1.0) * bin_width_;
    // On a bin edge, rounding can put rel just below it: the bin found then
    // ends at t, and the segment would be empty. Take the next bin.
    while (bin_end <= t) {
      ++bin;
      bin_end = t0_ + (static_cast<double>(bin) + 1.0) * bin_width_;
    }
    const double seg_end = std::min(t_to, bin_end);
    const double v_end = v_from + slope * (seg_end - t_from);
    if (bin >= 0 && static_cast<std::size_t>(bin) < integral_.size()) {
      const auto b = static_cast<std::size_t>(bin);
      const double dt = seg_end - t;
      integral_[b] += 0.5 * (v + v_end) * dt;
      // Exact integral of the squared linear segment.
      integral_sq_[b] += dt * (v * v + v * v_end + v_end * v_end) / 3.0;
      covered_[b] += dt;
    }
    t = seg_end;
    v = v_end;
  }
}

void BinnedAccumulator::add(double t, double value) {
  if (has_last_ && t > last_t_) {
    deposit(last_t_, t, last_v_, value);
  }
  last_t_ = t;
  last_v_ = value;
  has_last_ = true;
}

double BinnedAccumulator::bin_center(std::size_t i) const {
  EHSIM_ASSERT(i < integral_.size(), "bin index out of range");
  return t0_ + (static_cast<double>(i) + 0.5) * bin_width_;
}

double BinnedAccumulator::bin_mean(std::size_t i) const {
  EHSIM_ASSERT(i < integral_.size(), "bin index out of range");
  return covered_[i] > 0.0 ? integral_[i] / covered_[i] : 0.0;
}

double BinnedAccumulator::bin_rms(std::size_t i) const {
  EHSIM_ASSERT(i < integral_.size(), "bin index out of range");
  return covered_[i] > 0.0 ? std::sqrt(integral_sq_[i] / covered_[i]) : 0.0;
}

double BinnedAccumulator::mean_over(double t_start, double t_end) const {
  double num = 0.0;
  double den = 0.0;
  for (std::size_t i = 0; i < integral_.size(); ++i) {
    const double c = bin_center(i);
    if (c >= t_start && c <= t_end) {
      num += integral_[i];
      den += covered_[i];
    }
  }
  return den > 0.0 ? num / den : 0.0;
}

io::JsonValue BinnedAccumulator::checkpoint_state() const {
  io::JsonValue state = io::JsonValue::make_object();
  state.set("integral", io::reals_to_json(integral_));
  state.set("integral_sq", io::reals_to_json(integral_sq_));
  state.set("covered", io::reals_to_json(covered_));
  state.set("last_t", io::real_to_json(last_t_));
  state.set("last_v", io::real_to_json(last_v_));
  state.set("has_last", io::JsonValue(has_last_));
  return state;
}

void BinnedAccumulator::restore_checkpoint_state(const io::JsonValue& state) {
  const std::string what = "binned accumulator checkpoint";
  io::check_state_keys(state, what,
                       {"integral", "integral_sq", "covered", "last_t", "last_v", "has_last"});
  io::reals_into(io::require_key(state, what, "integral"), integral_, what + ".integral");
  io::reals_into(io::require_key(state, what, "integral_sq"), integral_sq_,
                 what + ".integral_sq");
  io::reals_into(io::require_key(state, what, "covered"), covered_, what + ".covered");
  last_t_ = io::real_from_json(io::require_key(state, what, "last_t"), what + ".last_t");
  last_v_ = io::real_from_json(io::require_key(state, what, "last_v"), what + ".last_v");
  has_last_ = io::bool_from_json(io::require_key(state, what, "has_last"), what + ".has_last");
}

void WelfordAccumulator::add(double value) {
  if (count_ == 0) {
    min_ = value;
    max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  ++count_;
  const double delta = value - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (value - mean_);
}

double WelfordAccumulator::variance() const noexcept {
  return count_ > 1 ? m2_ / static_cast<double>(count_ - 1) : 0.0;
}

double WelfordAccumulator::standard_error() const noexcept {
  return count_ > 1 ? std::sqrt(variance() / static_cast<double>(count_)) : 0.0;
}

}  // namespace ehsim::experiments
