/// \file block.hpp
/// \brief Component-block abstraction of the paper (Eq. 1, Fig. 3).
///
/// "The model of a complete mixed-technology energy harvesting system is
/// divided into component blocks whose mechanical and analogue electrical
/// parts are modelled by local state equations and terminal variables."
///
/// A block owns
///   * `num_states()` local state variables x (energy-storage quantities:
///     displacement, velocity, flux, capacitor voltages, inductor currents),
///   * a view of `num_terminals()` terminal variables y (port voltages and
///     currents shared with neighbouring blocks through nets), and
///   * `num_algebraic()` algebraic equations f_y = 0 that constrain the
///     terminals (e.g. "my port current equals my inductor current").
///
/// Both simulation engines consume the same interface: the proposed
/// linearised state-space engine linearises `eval` through `jacobians` at
/// every time point (paper Eq. 2), while the Newton-Raphson baseline
/// iterates the very same residuals implicitly — making the CPU-time
/// comparison of Tables I/II an apples-to-apples one.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/jacobian_pattern.hpp"
#include "linalg/matrix.hpp"

namespace ehsim::core {

/// Base class for analogue component blocks.
class AnalogBlock {
 public:
  /// \param name          instance name used in traces and diagnostics
  /// \param num_states    dimension of the local state vector x
  /// \param num_terminals number of terminal variables this block touches
  /// \param num_algebraic number of algebraic constraint rows contributed
  AnalogBlock(std::string name, std::size_t num_states, std::size_t num_terminals,
              std::size_t num_algebraic);
  virtual ~AnalogBlock() = default;

  AnalogBlock(const AnalogBlock&) = delete;
  AnalogBlock& operator=(const AnalogBlock&) = delete;

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] std::size_t num_states() const noexcept { return num_states_; }
  [[nodiscard]] std::size_t num_terminals() const noexcept { return num_terminals_; }
  [[nodiscard]] std::size_t num_algebraic() const noexcept { return num_algebraic_; }

  /// Write the initial state into \p x (size num_states). Default: zeros.
  virtual void initial_state(std::span<double> x) const;

  /// Evaluate the non-linear block equations (paper Eq. 1) at (t, x, y):
  /// \p fx receives dx/dt (size num_states), \p fy the algebraic residuals
  /// (size num_algebraic; a consistent solution has fy = 0).
  virtual void eval(double t, std::span<const double> x, std::span<const double> y,
                    std::span<double> fx, std::span<double> fy) const = 0;

  /// Fill the local Jacobians at (t, x, y) (paper Eq. 2). All four matrices
  /// arrive pre-sized and zeroed; blocks write only their non-zero entries.
  ///   jxx: num_states x num_states      (d fx / d x)
  ///   jxy: num_states x num_terminals   (d fx / d y)
  ///   jyx: num_algebraic x num_states   (d fy / d x)
  ///   jyy: num_algebraic x num_terminals(d fy / d y)
  virtual void jacobians(double t, std::span<const double> x, std::span<const double> y,
                         linalg::Matrix& jxx, linalg::Matrix& jxy, linalg::Matrix& jyx,
                         linalg::Matrix& jyy) const = 0;

  /// Append to \p entries every local entry of jacobians() that may change
  /// between two linearisation points of one epoch. The LLE monitor (Eq. 3)
  /// scans only these: an undeclared entry must be bit-identical at every
  /// (t, x, y) of an epoch, and a parameter change that moves one must bump
  /// the epoch. Repeats are harmless. Default: every entry, which is always
  /// correct.
  virtual void varying_jacobian_entries(std::vector<JacobianEntry>& entries) const;

  /// Human-readable local state name (default "x<i>").
  [[nodiscard]] virtual std::string state_name(std::size_t i) const;
  /// Human-readable local terminal name (default "y<i>").
  [[nodiscard]] virtual std::string terminal_name(std::size_t i) const;

  /// Monotonic counter incremented whenever a parameter change makes the
  /// previously-built linearisation (and the integrator's derivative
  /// history) invalid — e.g. the microcontroller switching the equivalent
  /// load resistance (paper Eq. 16). Engines poll this and restart their
  /// multistep history across the discontinuity.
  [[nodiscard]] std::uint64_t epoch() const noexcept { return epoch_; }

  /// Sentinel: the block cannot certify Jacobian reuse.
  static constexpr std::uint64_t kAlwaysRebuild = ~std::uint64_t{0};

  /// Cheap fingerprint of the block's current linearisation. When the value
  /// is unchanged between two solution points, the block guarantees its
  /// Jacobians are bit-identical, letting the linearised engine skip the
  /// rebuild entirely — the paper's "Jacobian values can be retrieved from
  /// the look-up tables fast" exploited one step further: a piecewise-linear
  /// model's Jacobians are *piecewise constant*, changing only at segment
  /// crossings. Blocks with continuously varying Jacobians return
  /// kAlwaysRebuild (the default).
  [[nodiscard]] virtual std::uint64_t jacobian_signature(double t, std::span<const double> x,
                                                         std::span<const double> y) const;

  /// Checkpoint restore: set the epoch counter verbatim. Engines compare
  /// epochs for equality, so a restored system must reproduce the exact
  /// checkpointed values — re-playing the bumps would be fragile.
  void restore_epoch(std::uint64_t epoch) noexcept { epoch_ = epoch; }

 protected:
  /// Call from parameter setters that change the model discontinuously.
  void bump_epoch() noexcept { ++epoch_; }

 private:
  std::string name_;
  std::size_t num_states_;
  std::size_t num_terminals_;
  std::size_t num_algebraic_;
  std::uint64_t epoch_ = 0;
};

}  // namespace ehsim::core
