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
#include <cstdint>
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

  /// Record the non-zero entries of L and U for solve_nonzeros(). Requires
  /// ok(); the next factor() discards the record. A call of its own, not
  /// part of factor(): the Newton-Raphson baseline factorises at every
  /// iteration and would pay for a record it never uses.
  void record_nonzeros();
  /// solve() over the recorded non-zero entries of L and U, bit for bit:
  /// a skipped term is 0 * b with b finite, which leaves a running sum
  /// alone except for the sign of an exact zero, so a result holding a zero
  /// or a non-finite entry is solved again densely. Requires
  /// record_nonzeros() since the last factor(); \p x may not alias \p b.
  void solve_nonzeros(std::span<const double> b, std::span<double> x) const;

 private:
  std::size_t n_ = 0;
  bool ok_ = false;
  std::vector<double> lu_;          // packed LU, row-major
  std::vector<std::size_t> pivot_;  // row permutation
  // record_nonzeros(): index_ holds the row swaps of solve_inplace() as a
  // gather (n entries: row i of P b is b[index_[i]]), then the end of each
  // row's entries in nonzeros_ (2n: L's rows 0..n-1, then U's rows
  // n-1..0); nonzeros_ holds the non-zero entries left of the diagonal,
  // then right of it, each row's in ascending column order. Two vectors, so
  // that copies of a linearisation stay cheap.
  struct Nonzero {
    std::uint32_t col;
    double value;
  };
  bool nonzeros_recorded_ = false;
  std::vector<std::uint32_t> index_;
  std::vector<Nonzero> nonzeros_;
};

/// Dense inverse (test/diagnostic helper; the simulators never invert).
[[nodiscard]] Matrix inverse(const Matrix& a);

}  // namespace ehsim::linalg
