/// \file step_control.hpp
/// \brief Generic accept/reject step-size controller.
///
/// Shared by two users with different error sources:
///  * the proposed engine's LLE monitor (Jacobian drift, paper Eq. 3), and
///  * the baseline engine's LTE + Newton-convergence heuristics.
#pragma once

#include <cstddef>

#include "common/error.hpp"
#include "io/json.hpp"

namespace ehsim::ode {

struct StepControlOptions {
  double h_min = 1e-12;
  double h_max = 1.0;
  double safety = 0.9;
  double max_growth = 2.0;    ///< cap on h_{n+1}/h_n when growing
  double max_shrink = 0.1;    ///< floor on h_{n+1}/h_n when shrinking
  std::size_t hold_after_reject = 3;  ///< accepted steps before regrowth
};

/// Proportional step controller on a normalised error ratio (error/tolerance;
/// accept when <= 1).
class StepController {
 public:
  explicit StepController(StepControlOptions options, std::size_t method_order = 1);

  /// Decide on a step outcome. \p error_ratio is (estimated error)/(tol);
  /// values <= 1 accept. Returns true when accepted and updates the
  /// suggested step for the next attempt either way.
  bool update(double error_ratio);

  /// Current suggested step, clamped to [h_min, h_max].
  [[nodiscard]] double suggested_step() const noexcept { return h_; }
  /// Override the suggested step (e.g. stability cap or event alignment);
  /// clamped to [h_min, h_max].
  void set_step(double h);

  [[nodiscard]] const StepControlOptions& options() const noexcept { return options_; }
  [[nodiscard]] std::size_t rejections() const noexcept { return rejections_; }
  [[nodiscard]] std::size_t acceptances() const noexcept { return acceptances_; }

  /// Exact snapshot of the mutable controller state (h, counters, hold);
  /// options/order are configuration and stay with the owning engine.
  [[nodiscard]] io::JsonValue checkpoint_state() const;
  void restore_checkpoint_state(const io::JsonValue& state);

 private:
  StepControlOptions options_;
  std::size_t order_;
  double h_;
  std::size_t rejections_ = 0;
  std::size_t acceptances_ = 0;
  std::size_t hold_countdown_ = 0;  ///< suppress growth just after a rejection
};

}  // namespace ehsim::ode
