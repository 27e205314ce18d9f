/// \file lle_monitor.hpp
/// \brief Local linearisation error monitor (paper Eq. 3).
///
/// "The LLE is caused by the rejection of the Taylor expansion terms of the
/// non-linear functions of order higher than the first. The LLE can be
/// controlled by monitoring the changes in the Jacobian elements."
///
/// The monitor keeps the previous linearisation's Jacobian blocks and
/// reports the relative max-norm drift between consecutive linearisation
/// points; the solver feeds that drift into its step controller, shrinking
/// the step where the model bends quickly (diode segment changes, tuning
/// transients) and growing it where the model is locally linear.
///
/// In a piecewise-linear model few Jacobian elements change within an
/// epoch (diode conductances, the supercapacitor's Ci(Vi), the actuator
/// stiffness: 32 of 225 on the harvester), so update() can scan only the
/// entries that may vary (SystemAssembler::varying_jacobian_entries) and
/// still return exactly the drift of a scan over every entry:
///  * an entry that has not changed contributes |0| / scale = 0 to the max;
///  * a row's scale is a running max, so once it has seen the row's
///    constant entries they cannot raise it again;
///  * the stored previous Jacobians already hold the constant entries, so
///    only the varying ones need copying.
/// The last two hold only after a scan over every entry, so update() scans
/// every entry (the same routine, over the full pattern) on the first two
/// updates after construction, reset() (the first copies, the second folds
/// the epoch's constant entries into the scales) and
/// restore_checkpoint_state().
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "core/jacobian_pattern.hpp"
#include "io/json.hpp"
#include "linalg/matrix.hpp"

namespace ehsim::core {

class LleMonitor {
 public:
  /// Forget the stored linearisation (cold start / discontinuity).
  void reset() noexcept {
    has_previous_ = false;
    dense_updates_ = 2;
  }

  /// Record the Jacobians of the newest linearisation point and return the
  /// relative drift vs the previous point: max over the four blocks and
  /// their rows of |J - J_prev| / (running row max of |J|). Returns 0 for
  /// the first call after reset(). \p varying lists the entries that may
  /// have changed since the last update (see the file header); null means
  /// every entry.
  double update(const linalg::Matrix& jxx, const linalg::Matrix& jxy,
                const linalg::Matrix& jyx, const linalg::Matrix& jyy,
                const JacobianPattern* varying = nullptr);

  [[nodiscard]] bool has_previous() const noexcept { return has_previous_; }
  /// Drift reported by the most recent update().
  [[nodiscard]] double last_drift() const noexcept { return last_drift_; }

  /// Exact snapshot (previous Jacobians + running row scales) so a restored
  /// engine reproduces the drift sequence bit for bit.
  [[nodiscard]] io::JsonValue checkpoint_state() const;
  /// Restore a snapshot for a model with \p num_states states and
  /// \p num_nets nets. Throws ModelError naming the key when a previous
  /// Jacobian (while has_previous is set) or a non-empty row scale does not
  /// fit that model.
  void restore_checkpoint_state(const io::JsonValue& state, std::size_t num_states,
                                std::size_t num_nets);

 private:
  /// The one drift scan: over \p pattern's entries, fold |J| into the row
  /// scales, take the max scaled difference and copy J into the previous
  /// Jacobians.
  double scan(const JacobianPattern& pattern,
              const std::array<const linalg::Matrix*, 4>& current);

  bool has_previous_ = false;
  // Updates left that must scan every entry (see the file header).
  std::uint8_t dense_updates_ = 2;
  double last_drift_ = 0.0;
  std::array<linalg::Matrix, 4> previous_;  // Jxx, Jxy, Jyx, Jyy
  // Running per-row magnitude scales (survive reset(); scales are physical).
  std::array<std::vector<double>, 4> scales_;
  JacobianPattern every_entry_;  // of the previous Jacobians' shape
};

}  // namespace ehsim::core
