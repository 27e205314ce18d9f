#include "core/lle_monitor.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "common/assert.hpp"
#include "common/error.hpp"
#include "io/state_json.hpp"

namespace ehsim::core {

namespace {
constexpr double kEps = 1e-30;
constexpr const char* kPreviousKeys[] = {"prev_jxx", "prev_jxy", "prev_jyx", "prev_jyy"};
constexpr const char* kScaleKeys[] = {"scale_xx", "scale_xy", "scale_yx", "scale_yy"};

bool same_shape(const linalg::Matrix& a, const linalg::Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols();
}
}  // namespace

double LleMonitor::scan(const JacobianPattern& pattern,
                        const std::array<const linalg::Matrix*, 4>& current) {
  // Row-relative drift with a running scale: every row of the Jacobian mixes
  // one physical equation's units, so normalising per row (by the largest
  // magnitude that row has ever held) makes a diode-conductance change as
  // visible as a mechanical-stiffness change even though their absolute
  // magnitudes differ by orders of magnitude.
  const auto& rows = pattern.rows();
  const auto& indices = pattern.indices();
  double drift = 0.0;
  std::size_t begin = 0;
  for (std::size_t b = 0; b < 4; ++b) {
    const double* cur = current[b]->data();
    double* prev = previous_[b].data();
    std::vector<double>& scales = scales_[b];
    scales.resize(current[b]->rows(), kEps);
    for (std::size_t k = pattern.first_row(b); k < pattern.first_row(b + 1); ++k) {
      const std::size_t end = rows[k].end;
      double scale = scales[rows[k].row];
      for (std::size_t i = begin; i < end; ++i) {
        scale = std::max(scale, std::abs(cur[indices[i]]));
      }
      scales[rows[k].row] = scale;
      for (std::size_t i = begin; i < end; ++i) {
        const std::uint32_t at = indices[i];
        drift = std::max(drift, std::abs(cur[at] - prev[at]) / scale);
        prev[at] = cur[at];
      }
      begin = end;
    }
  }
  return drift;
}

double LleMonitor::update(const linalg::Matrix& jxx, const linalg::Matrix& jxy,
                          const linalg::Matrix& jyx, const linalg::Matrix& jyy,
                          const JacobianPattern* varying) {
  const std::array<const linalg::Matrix*, 4> current{&jxx, &jxy, &jyx, &jyy};
  if (!has_previous_) {
    for (std::size_t b = 0; b < 4; ++b) {
      previous_[b] = *current[b];
    }
    has_previous_ = true;
    last_drift_ = 0.0;
  } else {
    for (std::size_t b = 0; b < 4; ++b) {
      EHSIM_ASSERT(same_shape(*current[b], previous_[b]),
                   "LleMonitor::update: Jacobian shape changed without reset()");
    }
    const std::size_t n = jxx.rows();
    const std::size_t m = jyy.rows();
    const bool dense = varying == nullptr || dense_updates_ > 0;
    if (dense && (every_entry_.num_states() != n || every_entry_.num_nets() != m)) {
      every_entry_ = JacobianPattern::every_entry(n, m);
    }
    EHSIM_ASSERT(dense || (varying->num_states() == n && varying->num_nets() == m),
                 "LleMonitor::update: pattern shape differs from the Jacobians'");
    last_drift_ = scan(dense ? every_entry_ : *varying, current);
  }
  if (dense_updates_ > 0) {
    --dense_updates_;
  }
  return last_drift_;
}

io::JsonValue LleMonitor::checkpoint_state() const {
  io::JsonValue state = io::JsonValue::make_object();
  state.set("has_previous", io::JsonValue(has_previous_));
  state.set("last_drift", io::real_to_json(last_drift_));
  for (std::size_t b = 0; b < 4; ++b) {
    state.set(kPreviousKeys[b], io::matrix_to_json(previous_[b]));
  }
  for (std::size_t b = 0; b < 4; ++b) {
    state.set(kScaleKeys[b], io::reals_to_json(scales_[b]));
  }
  return state;
}

void LleMonitor::restore_checkpoint_state(const io::JsonValue& state, std::size_t num_states,
                                          std::size_t num_nets) {
  const std::string what = "checkpoint.lle";
  io::check_state_keys(state, what,
                       {"has_previous", "last_drift", "prev_jxx", "prev_jxy", "prev_jyx",
                        "prev_jyy", "scale_xx", "scale_xy", "scale_yx", "scale_yy"});
  const bool has_previous = io::bool_from_json(io::require_key(state, what, "has_previous"),
                                               what + ".has_previous");
  const double last_drift = io::real_from_json(io::require_key(state, what, "last_drift"),
                                               what + ".last_drift");
  // Block b is rows[b] x cols[b]: Jxx n x n, Jxy n x m, Jyx m x n, Jyy m x m.
  const std::size_t rows[] = {num_states, num_states, num_nets, num_nets};
  const std::size_t cols[] = {num_states, num_nets, num_states, num_nets};
  std::array<linalg::Matrix, 4> previous;
  std::array<std::vector<double>, 4> scales;
  for (std::size_t b = 0; b < 4; ++b) {
    const std::string key = what + "." + kPreviousKeys[b];
    previous[b] = io::matrix_from_json(io::require_key(state, what, kPreviousKeys[b]), key);
    if (has_previous && (previous[b].rows() != rows[b] || previous[b].cols() != cols[b])) {
      throw ModelError(key + ": " + std::to_string(previous[b].rows()) + " x " +
                       std::to_string(previous[b].cols()) + " matrix, the model's is " +
                       std::to_string(rows[b]) + " x " + std::to_string(cols[b]));
    }
  }
  for (std::size_t b = 0; b < 4; ++b) {
    const std::string key = what + "." + kScaleKeys[b];
    scales[b] = io::reals_from_json(io::require_key(state, what, kScaleKeys[b]), key);
    if (!scales[b].empty() && scales[b].size() != rows[b]) {
      throw ModelError(key + ": " + std::to_string(scales[b].size()) +
                       " row scales, the model's block has " + std::to_string(rows[b]) +
                       " rows");
    }
  }
  has_previous_ = has_previous;
  last_drift_ = last_drift;
  previous_ = std::move(previous);
  scales_ = std::move(scales);
  dense_updates_ = 2;
}

}  // namespace ehsim::core
