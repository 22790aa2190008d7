#include "support/solve.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace mvs::linalg {

std::optional<std::vector<double>> solve(const Matrix& a,
                                         const std::vector<double>& b) {
  assert(a.rows() == a.cols());
  assert(b.size() == a.rows());
  const std::size_t n = a.rows();
  // Augmented working copy.
  std::vector<std::vector<double>> m(n, std::vector<double>(n + 1));
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) m[r][c] = a(r, c);
    m[r][n] = b[r];
  }
  for (std::size_t col = 0; col < n; ++col) {
    std::size_t pivot = col;
    for (std::size_t r = col + 1; r < n; ++r)
      if (std::abs(m[r][col]) > std::abs(m[pivot][col])) pivot = r;
    if (std::abs(m[pivot][col]) < 1e-12) return std::nullopt;
    std::swap(m[col], m[pivot]);
    for (std::size_t r = col + 1; r < n; ++r) {
      const double f = m[r][col] / m[col][col];
      if (f == 0.0) continue;
      for (std::size_t c = col; c <= n; ++c) m[r][c] -= f * m[col][c];
    }
  }
  std::vector<double> x(n);
  for (std::size_t ri = n; ri-- > 0;) {
    double acc = m[ri][n];
    for (std::size_t c = ri + 1; c < n; ++c) acc -= m[ri][c] * x[c];
    x[ri] = acc / m[ri][ri];
  }
  return x;
}

std::optional<std::vector<double>> least_squares(const Matrix& a,
                                                 const std::vector<double>& b,
                                                 double lambda) {
  assert(a.rows() == b.size());
  const Matrix at = a.transposed();
  Matrix ata = at * a;
  for (std::size_t i = 0; i < ata.rows(); ++i) ata(i, i) += lambda;
  std::vector<double> atb(a.cols(), 0.0);
  for (std::size_t r = 0; r < a.rows(); ++r)
    for (std::size_t c = 0; c < a.cols(); ++c) atb[c] += a(r, c) * b[r];
  return solve(ata, atb);
}

EigenResult symmetric_eigen(const Matrix& input, int max_sweeps) {
  assert(input.rows() == input.cols());
  const std::size_t n = input.rows();
  Matrix a = input;
  Matrix v = Matrix::identity(n);

  for (int sweep = 0; sweep < max_sweeps; ++sweep) {
    double off = 0.0;
    for (std::size_t r = 0; r < n; ++r)
      for (std::size_t c = r + 1; c < n; ++c) off += a(r, c) * a(r, c);
    if (off < 1e-20) break;

    for (std::size_t p = 0; p < n; ++p) {
      for (std::size_t q = p + 1; q < n; ++q) {
        if (std::abs(a(p, q)) < 1e-15) continue;
        const double theta = (a(q, q) - a(p, p)) / (2.0 * a(p, q));
        const double t = (theta >= 0 ? 1.0 : -1.0) /
                         (std::abs(theta) + std::sqrt(theta * theta + 1.0));
        const double c = 1.0 / std::sqrt(t * t + 1.0);
        const double s = t * c;
        for (std::size_t k = 0; k < n; ++k) {
          const double akp = a(k, p), akq = a(k, q);
          a(k, p) = c * akp - s * akq;
          a(k, q) = s * akp + c * akq;
        }
        for (std::size_t k = 0; k < n; ++k) {
          const double apk = a(p, k), aqk = a(q, k);
          a(p, k) = c * apk - s * aqk;
          a(q, k) = s * apk + c * aqk;
        }
        for (std::size_t k = 0; k < n; ++k) {
          const double vkp = v(k, p), vkq = v(k, q);
          v(k, p) = c * vkp - s * vkq;
          v(k, q) = s * vkp + c * vkq;
        }
      }
    }
  }

  // Sort eigenpairs ascending by eigenvalue.
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](std::size_t i, std::size_t j) { return a(i, i) < a(j, j); });

  EigenResult out;
  out.values.resize(n);
  out.vectors = Matrix(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    out.values[i] = a(order[i], order[i]);
    for (std::size_t k = 0; k < n; ++k) out.vectors(k, i) = v(k, order[i]);
  }
  return out;
}

std::vector<double> smallest_eigenvector(const Matrix& a) {
  const EigenResult e = symmetric_eigen(a);
  std::vector<double> vec(a.rows());
  for (std::size_t k = 0; k < a.rows(); ++k) vec[k] = e.vectors(k, 0);
  return vec;
}

}  // namespace mvs::linalg
