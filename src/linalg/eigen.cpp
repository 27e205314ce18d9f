#include "linalg/eigen.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/assert.hpp"
#include "common/error.hpp"

namespace ehsim::linalg {

namespace {

/// Parlett-Reinsch balancing: diagonal similarity scaling so row and column
/// norms match, improving the accuracy of the subsequent QR iteration.
void balance(Matrix& a) {
  const std::size_t n = a.rows();
  constexpr double radix = 2.0;
  constexpr double radix_sq = radix * radix;
  bool done = false;
  while (!done) {
    done = true;
    for (std::size_t i = 0; i < n; ++i) {
      double r = 0.0;
      double c = 0.0;
      for (std::size_t j = 0; j < n; ++j) {
        if (j != i) {
          c += std::abs(a(j, i));
          r += std::abs(a(i, j));
        }
      }
      if (c == 0.0 || r == 0.0) {
        continue;
      }
      double g = r / radix;
      double f = 1.0;
      const double s = c + r;
      while (c < g) {
        f *= radix;
        c *= radix_sq;
      }
      g = r * radix;
      while (c > g) {
        f /= radix;
        c /= radix_sq;
      }
      if ((c + r) / f < 0.95 * s) {
        done = false;
        g = 1.0 / f;
        for (std::size_t j = 0; j < n; ++j) {
          a(i, j) *= g;
        }
        for (std::size_t j = 0; j < n; ++j) {
          a(j, i) *= f;
        }
      }
    }
  }
}

/// Householder reduction to upper Hessenberg form (in place).
void to_hessenberg(Matrix& a) {
  const std::size_t n = a.rows();
  if (n < 3) {
    return;
  }
  std::vector<double> v(n);
  for (std::size_t k = 0; k + 2 < n; ++k) {
    // Householder vector annihilating a(k+2..n-1, k).
    double alpha = 0.0;
    for (std::size_t i = k + 1; i < n; ++i) {
      alpha += a(i, k) * a(i, k);
    }
    alpha = std::sqrt(alpha);
    if (alpha == 0.0) {
      continue;
    }
    if (a(k + 1, k) > 0.0) {
      alpha = -alpha;
    }
    double vnorm_sq = 0.0;
    for (std::size_t i = k + 1; i < n; ++i) {
      v[i] = a(i, k);
    }
    v[k + 1] -= alpha;
    for (std::size_t i = k + 1; i < n; ++i) {
      vnorm_sq += v[i] * v[i];
    }
    if (vnorm_sq == 0.0) {
      continue;
    }
    const double beta = 2.0 / vnorm_sq;
    // A <- (I - beta v v^T) A
    for (std::size_t j = 0; j < n; ++j) {
      double dot = 0.0;
      for (std::size_t i = k + 1; i < n; ++i) {
        dot += v[i] * a(i, j);
      }
      dot *= beta;
      for (std::size_t i = k + 1; i < n; ++i) {
        a(i, j) -= dot * v[i];
      }
    }
    // A <- A (I - beta v v^T)
    for (std::size_t i = 0; i < n; ++i) {
      double dot = 0.0;
      for (std::size_t j = k + 1; j < n; ++j) {
        dot += a(i, j) * v[j];
      }
      dot *= beta;
      for (std::size_t j = k + 1; j < n; ++j) {
        a(i, j) -= dot * v[j];
      }
    }
    // Zero the annihilated entries explicitly.
    a(k + 1, k) = alpha;
    for (std::size_t i = k + 2; i < n; ++i) {
      a(i, k) = 0.0;
    }
  }
}

/// Francis double-shift QR on an upper Hessenberg matrix (EISPACK hqr).
/// Returns eigenvalues; throws on non-convergence.
std::vector<std::complex<double>> hqr(Matrix& a) {
  const std::size_t size = a.rows();
  std::vector<std::complex<double>> eig;
  eig.reserve(size);
  if (size == 0) {
    return eig;
  }

  double anorm = 0.0;
  for (std::size_t i = 0; i < size; ++i) {
    for (std::size_t j = i == 0 ? 0 : i - 1; j < size; ++j) {
      anorm += std::abs(a(i, j));
    }
  }
  if (anorm == 0.0) {
    eig.assign(size, {0.0, 0.0});
    return eig;
  }

  auto n = static_cast<std::ptrdiff_t>(size) - 1;  // active block end (0-based)
  double t_shift = 0.0;
  int its_total_guard = 0;

  while (n >= 0) {
    int its = 0;
    std::ptrdiff_t l = 0;
    do {
      // Look for a single small subdiagonal element.
      for (l = n; l >= 1; --l) {
        const double s = std::abs(a(static_cast<std::size_t>(l - 1), static_cast<std::size_t>(l - 1))) +
                         std::abs(a(static_cast<std::size_t>(l), static_cast<std::size_t>(l)));
        const double scale = s == 0.0 ? anorm : s;
        if (std::abs(a(static_cast<std::size_t>(l), static_cast<std::size_t>(l - 1))) <=
            1e-15 * scale) {
          a(static_cast<std::size_t>(l), static_cast<std::size_t>(l - 1)) = 0.0;
          break;
        }
      }
      const auto un = static_cast<std::size_t>(n);
      double x = a(un, un);
      if (l == n) {  // one root found
        eig.emplace_back(x + t_shift, 0.0);
        --n;
        break;
      }
      double y = a(un - 1, un - 1);
      double w = a(un, un - 1) * a(un - 1, un);
      if (l == n - 1) {  // two roots found
        double p = 0.5 * (y - x);
        const double q = p * p + w;
        double z = std::sqrt(std::abs(q));
        x += t_shift;
        if (q >= 0.0) {  // real pair
          z = p + (p >= 0.0 ? z : -z);
          eig.emplace_back(x + z, 0.0);
          eig.emplace_back(z != 0.0 ? x - w / z : x + z, 0.0);
        } else {  // complex pair
          eig.emplace_back(x + p, z);
          eig.emplace_back(x + p, -z);
        }
        n -= 2;
        break;
      }
      // No root yet: QR sweep.
      if (its == 30 || its == 20 || its == 10) {
        // Exceptional shift.
        t_shift += x;
        for (std::ptrdiff_t i = 0; i <= n; ++i) {
          a(static_cast<std::size_t>(i), static_cast<std::size_t>(i)) -= x;
        }
        const double s = std::abs(a(un, un - 1)) + std::abs(a(un - 1, un - 2));
        y = 0.75 * s;
        x = y;
        w = -0.4375 * s * s;
      }
      if (++its > 60 || ++its_total_guard > 30000) {
        throw SolverError("eigenvalues: QR iteration failed to converge");
      }
      // Form shift and look for two consecutive small subdiagonals.
      double p = 0.0;
      double q = 0.0;
      double z = 0.0;
      std::ptrdiff_t m;
      for (m = n - 2; m >= l; --m) {
        const auto um = static_cast<std::size_t>(m);
        z = a(um, um);
        const double r = x - z;
        double s = y - z;
        p = (r * s - w) / a(um + 1, um) + a(um, um + 1);
        q = a(um + 1, um + 1) - z - r - s;
        const double rr = a(um + 2, um + 1);
        s = std::abs(p) + std::abs(q) + std::abs(rr);
        p /= s;
        q /= s;
        z = rr / s;
        if (m == l) {
          break;
        }
        const double u = std::abs(a(um, um - 1)) * (std::abs(q) + std::abs(z));
        const double v = std::abs(p) * (std::abs(a(um - 1, um - 1)) + std::abs(a(um, um)) +
                                        std::abs(a(um + 1, um + 1)));
        if (u <= 1e-15 * v) {
          break;
        }
      }
      for (std::ptrdiff_t i = m + 2; i <= n; ++i) {
        a(static_cast<std::size_t>(i), static_cast<std::size_t>(i - 2)) = 0.0;
        if (i != m + 2) {
          a(static_cast<std::size_t>(i), static_cast<std::size_t>(i - 3)) = 0.0;
        }
      }
      // Double QR step on rows l..n and columns m..n.
      for (std::ptrdiff_t k = m; k <= n - 1; ++k) {
        const auto uk = static_cast<std::size_t>(k);
        if (k != m) {
          p = a(uk, uk - 1);
          q = a(uk + 1, uk - 1);
          z = k != n - 1 ? a(uk + 2, uk - 1) : 0.0;
          x = std::abs(p) + std::abs(q) + std::abs(z);
          if (x != 0.0) {
            p /= x;
            q /= x;
            z /= x;
          }
        }
        double s = std::sqrt(p * p + q * q + z * z);
        if (p < 0.0) {
          s = -s;
        }
        if (s == 0.0) {
          continue;
        }
        if (k == m) {
          if (l != m) {
            a(uk, uk - 1) = -a(uk, uk - 1);
          }
        } else {
          a(uk, uk - 1) = -s * x;
        }
        p += s;
        const double z_raw = z;  // third Householder component before /s
        x = p / s;
        y = q / s;
        z = z_raw / s;
        q /= p;
        const double r = z_raw / p;
        // Row modification.
        for (std::ptrdiff_t j = k; j <= n; ++j) {
          const auto uj = static_cast<std::size_t>(j);
          p = a(uk, uj) + q * a(uk + 1, uj);
          if (k != n - 1) {
            p += r * a(uk + 2, uj);
            a(uk + 2, uj) -= p * z;
          }
          a(uk + 1, uj) -= p * y;
          a(uk, uj) -= p * x;
        }
        const std::ptrdiff_t mmin = n < k + 3 ? n : k + 3;
        // Column modification.
        for (std::ptrdiff_t i = l; i <= mmin; ++i) {
          const auto ui = static_cast<std::size_t>(i);
          p = x * a(ui, uk) + y * a(ui, uk + 1);
          if (k != n - 1) {
            p += z * a(ui, uk + 2);
            a(ui, uk + 2) -= p * r;
          }
          a(ui, uk + 1) -= p * q;
          a(ui, uk) -= p;
        }
      }
    } while (l < n - 1);
  }
  return eig;
}

}  // namespace

std::vector<std::complex<double>> eigenvalues(const Matrix& a) {
  if (!a.is_square()) {
    throw ModelError("eigenvalues: matrix must be square");
  }
  const std::size_t n = a.rows();
  if (n == 0) {
    return {};
  }
  if (n == 1) {
    return {{a(0, 0), 0.0}};
  }
  Matrix work = a;
  balance(work);
  to_hessenberg(work);
  return hqr(work);
}

double spectral_abscissa(const Matrix& a) {
  double abscissa = -std::numeric_limits<double>::infinity();
  for (const auto& lambda : eigenvalues(a)) {
    abscissa = std::max(abscissa, lambda.real());
  }
  return abscissa;
}

std::vector<std::complex<double>> polynomial_roots(
    const std::vector<std::complex<double>>& coeffs) {
  using cd = std::complex<double>;
  const std::size_t degree = coeffs.size();
  if (degree == 0) {
    return {};
  }
  if (degree == 1) {
    return {-coeffs[0]};
  }
  // Durand-Kerner from staggered non-real starting points.
  std::vector<cd> roots(degree);
  const cd seed(0.4, 0.9);
  cd power(1.0, 0.0);
  for (std::size_t i = 0; i < degree; ++i) {
    power *= seed;
    roots[i] = power;
  }
  auto eval = [&](cd z) {
    cd acc(1.0, 0.0);
    for (std::size_t k = degree; k-- > 0;) {
      acc = acc * z + coeffs[k];
    }
    return acc;
  };
  for (std::size_t iter = 0; iter < 200; ++iter) {
    double max_step = 0.0;
    for (std::size_t i = 0; i < degree; ++i) {
      cd denom(1.0, 0.0);
      for (std::size_t j = 0; j < degree; ++j) {
        if (j != i) {
          denom *= roots[i] - roots[j];
        }
      }
      if (std::abs(denom) < 1e-300) {
        continue;
      }
      const cd delta = eval(roots[i]) / denom;
      roots[i] -= delta;
      max_step = std::max(max_step, std::abs(delta));
    }
    if (max_step < 1e-13) {
      break;
    }
  }
  return roots;
}

}  // namespace ehsim::linalg
