/// \file lu.hpp
/// \brief LU factorisation with partial pivoting for small dense systems.
///
/// Used for two distinct purposes in the reproduction:
///  * the proposed technique's per-step elimination of the non-state
///    (terminal) variables, `Jyy * y = -Jyx * x` (paper Eq. 4) — a small
///    system (4x4 for the complete harvester) factored every time point, and
///  * the Newton-Raphson baseline engine's full-system solve at every Newton
///    iteration (the cost the paper identifies as the bottleneck of existing
///    simulators).
///
/// The factorisation object owns its workspace and can be re-used across
/// steps without allocation (`factor` only reallocates when the dimension
/// changes).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "linalg/matrix.hpp"

namespace ehsim::linalg {

/// LU decomposition PA = LU with partial (row) pivoting.
class LuFactorization {
 public:
  LuFactorization() = default;
  /// Factor \p a immediately; see factor().
  explicit LuFactorization(const Matrix& a) { factor(a); }

  /// Factor the square matrix \p a. Returns false (and marks the
  /// factorisation singular) if a pivot below the breakdown threshold is
  /// encountered; no exception is thrown so that callers in the simulation
  /// loop can handle breakdown as a step-rejection event.
  bool factor(const Matrix& a);

  /// True when the last factor() call succeeded with all pivots above the
  /// breakdown threshold.
  [[nodiscard]] bool ok() const noexcept { return ok_; }
  [[nodiscard]] std::size_t dimension() const noexcept { return n_; }

  /// Solve A x = b in place (b becomes x). Requires ok().
  void solve_inplace(std::span<double> b) const;
  /// Solve A x = b into \p x (b untouched). Requires ok().
  void solve(std::span<const double> b, std::span<double> x) const;
  /// Solve A X = B column-by-column, B/X stored as Matrix. Requires ok().
  void solve_matrix(const Matrix& b, Matrix& x) const;

 private:
  std::size_t n_ = 0;
  bool ok_ = false;
  std::vector<double> lu_;          // packed LU, row-major
  std::vector<std::size_t> pivot_;  // row permutation
};

/// Dense inverse (test/diagnostic helper; the simulators never invert).
[[nodiscard]] Matrix inverse(const Matrix& a);

}  // namespace ehsim::linalg
