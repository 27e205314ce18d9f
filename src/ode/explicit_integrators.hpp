/// \file explicit_integrators.hpp
/// \brief The explicit Adams-Bashforth march.
///
/// The paper's engine advances the linearised state equations with the
/// explicit Adams-Bashforth method (Eq. 5). `AbHistory` is the
/// derivative-history ring buffer that turns the coefficients of
/// ab_coefficients.hpp into a march-in-time scheme with automatic order
/// ramp-up from cold starts and after discontinuities (digital events
/// re-linearise the model, which invalidates history).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "io/json.hpp"
#include "ode/ab_coefficients.hpp"

namespace ehsim::ode {

/// Derivative history for Adams-Bashforth multi-step integration.
///
/// Stores up to kMaxAbOrder past (t_i, f_i) pairs, newest first. The
/// effective order is min(stored entries, max_order) — a cold start (or a
/// reset at a digital event boundary) therefore begins with Forward Euler
/// and ramps up one order per step, which is the standard self-starting
/// strategy for AB methods.
class AbHistory {
 public:
  AbHistory() = default;
  /// \param state_size dimension of the state vector
  /// \param max_order  maximum AB order to use (1..4)
  AbHistory(std::size_t state_size, std::size_t max_order);

  /// Drop all history (e.g. after a discontinuity from the digital domain).
  void clear() noexcept { count_ = 0; }

  /// Append the newest derivative sample f(t). Overwrites the oldest entry
  /// once the buffer holds max_order samples. Times must increase strictly.
  void push(double t, std::span<const double> f);

  /// Number of usable history entries.
  [[nodiscard]] std::size_t size() const noexcept { return count_; }
  [[nodiscard]] std::size_t state_size() const noexcept { return state_size_; }
  [[nodiscard]] std::size_t max_order() const noexcept { return max_order_; }
  /// Effective order of the next step.
  [[nodiscard]] std::size_t effective_order() const noexcept { return count_; }
  /// Newest history time; requires size() > 0.
  [[nodiscard]] double newest_time() const;

  /// Advance the state: x <- x + sum_i beta_i f_{n-i}, with variable-step
  /// coefficients for target time \p t_next. Requires size() >= 1.
  void step(double t_next, std::span<double> x) const;

  /// Exact snapshot of the ring (count, head, times, samples) so a restored
  /// engine resumes its multistep march bit-identically mid-history.
  [[nodiscard]] io::JsonValue checkpoint_state() const;
  /// Strict inverse of checkpoint_state; the history must already be sized
  /// (state_size/max_order come from the engine, not the snapshot).
  void restore_checkpoint_state(const io::JsonValue& state);

 private:
  /// Ring index of the entry \p age steps older than the newest.
  [[nodiscard]] std::size_t slot(std::size_t age) const;

  std::size_t state_size_ = 0;
  std::size_t max_order_ = 0;
  std::size_t count_ = 0;
  std::size_t head_ = 0;  // ring index of the newest entry
  std::vector<double> times_;
  std::vector<double> storage_;  // max_order contiguous f vectors
};

}  // namespace ehsim::ode
