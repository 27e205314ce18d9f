/// \file eigen.hpp
/// \brief Dense unsymmetric eigenvalue computation.
///
/// The Eq. 7 stability analysis of the proposed engine needs the spectrum of
/// the eliminated system matrix A = Jxx - Jxy Jyy^-1 Jyx. A is small (11x11
/// for the full harvester) but decidedly non-normal, with modes spanning
/// nine orders of magnitude in time constant — power iteration is unreliable
/// there, so a proper QR eigensolver is provided: Parlett-Reinsch balancing,
/// Householder reduction to upper Hessenberg form, and the Francis
/// double-shift QR iteration with exceptional shifts.
#pragma once

#include <complex>
#include <vector>

#include "linalg/matrix.hpp"

namespace ehsim::linalg {

/// All eigenvalues of the square matrix \p a (complex pairs included).
/// Throws SolverError if the QR iteration fails to converge (pathological
/// input; does not occur for the physical models in this library).
[[nodiscard]] std::vector<std::complex<double>> eigenvalues(const Matrix& a);

/// Spectral abscissa: max real part over the spectrum. Negative for
/// asymptotically stable continuous-time systems.
[[nodiscard]] double spectral_abscissa(const Matrix& a);

/// Roots of a monic complex polynomial z^n + c[n-1] z^{n-1} + ... + c[0]
/// via Durand-Kerner iteration (used for the scalar Adams-Bashforth root
/// condition, degree <= 5). \p coeffs holds c[0]..c[n-1].
[[nodiscard]] std::vector<std::complex<double>> polynomial_roots(
    const std::vector<std::complex<double>>& coeffs);

}  // namespace ehsim::linalg
