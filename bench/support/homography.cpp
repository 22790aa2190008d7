#include "support/homography.hpp"

#include <cassert>
#include <cmath>
#include <limits>

#include "support/solve.hpp"

namespace mvs::ml {

namespace {

struct Normalizer {
  double cx = 0.0, cy = 0.0, scale = 1.0;

  static Normalizer fit(const std::vector<std::array<double, 2>>& pts) {
    Normalizer n;
    for (const auto& p : pts) {
      n.cx += p[0];
      n.cy += p[1];
    }
    const double count = static_cast<double>(pts.size());
    n.cx /= count;
    n.cy /= count;
    double mean_dist = 0.0;
    for (const auto& p : pts)
      mean_dist += std::hypot(p[0] - n.cx, p[1] - n.cy);
    mean_dist /= count;
    n.scale = mean_dist > 1e-12 ? std::sqrt(2.0) / mean_dist : 1.0;
    return n;
  }

  std::array<double, 2> apply(std::array<double, 2> p) const {
    return {(p[0] - cx) * scale, (p[1] - cy) * scale};
  }
};

}  // namespace

Homography::Homography() : h_{1, 0, 0, 0, 1, 0, 0, 0, 1} {}

bool Homography::estimate(const std::vector<std::array<double, 2>>& src,
                          const std::vector<std::array<double, 2>>& dst) {
  assert(src.size() == dst.size());
  if (src.size() < 4) return false;

  const Normalizer ns = Normalizer::fit(src);
  const Normalizer nd = Normalizer::fit(dst);

  // Build A^T A directly (9x9) from the 2 DLT rows per correspondence.
  linalg::Matrix ata(9, 9);
  for (std::size_t i = 0; i < src.size(); ++i) {
    const auto s = ns.apply(src[i]);
    const auto d = nd.apply(dst[i]);
    const double x = s[0], y = s[1], u = d[0], v = d[1];
    const double rows[2][9] = {
        {-x, -y, -1, 0, 0, 0, u * x, u * y, u},
        {0, 0, 0, -x, -y, -1, v * x, v * y, v},
    };
    for (const auto& row : rows)
      for (int a = 0; a < 9; ++a)
        for (int b = 0; b < 9; ++b)
          ata(static_cast<std::size_t>(a), static_cast<std::size_t>(b)) +=
              row[a] * row[b];
  }

  const std::vector<double> h = linalg::smallest_eigenvector(ata);
  double norm = 0.0;
  for (double v : h) norm += v * v;
  if (norm < 1e-20) return false;

  // Denormalize: H = T_d^{-1} * Hn * T_s.
  // T_s maps p -> ((x - cx) * s, (y - cy) * s); T_d^{-1} is the inverse map.
  const double s1 = ns.scale, s2 = nd.scale;
  std::array<double, 9> hn;
  for (int i = 0; i < 9; ++i) hn[static_cast<std::size_t>(i)] = h[static_cast<std::size_t>(i)];

  // Compose: first T_s, then Hn, then T_d^{-1}.
  auto mul = [](const std::array<double, 9>& a, const std::array<double, 9>& b) {
    std::array<double, 9> c{};
    for (int r = 0; r < 3; ++r)
      for (int k = 0; k < 3; ++k)
        for (int col = 0; col < 3; ++col)
          c[static_cast<std::size_t>(r * 3 + col)] +=
              a[static_cast<std::size_t>(r * 3 + k)] *
              b[static_cast<std::size_t>(k * 3 + col)];
    return c;
  };
  const std::array<double, 9> ts = {s1, 0, -s1 * ns.cx, 0, s1, -s1 * ns.cy, 0, 0, 1};
  const std::array<double, 9> td_inv = {1.0 / s2, 0, nd.cx, 0, 1.0 / s2, nd.cy, 0, 0, 1};
  h_ = mul(td_inv, mul(hn, ts));

  // Scale so h[8] == 1 when possible (pure convention).
  if (std::abs(h_[8]) > 1e-12)
    for (double& v : h_) v /= h_[8];
  return true;
}

std::array<double, 2> Homography::apply(std::array<double, 2> p) const {
  const double w = h_[6] * p[0] + h_[7] * p[1] + h_[8];
  if (std::abs(w) < 1e-12) {
    const double inf = std::numeric_limits<double>::infinity();
    return {inf, inf};
  }
  return {(h_[0] * p[0] + h_[1] * p[1] + h_[2]) / w,
          (h_[3] * p[0] + h_[4] * p[1] + h_[5]) / w};
}

void HomographyRegressor::fit(const std::vector<Feature>& xs,
                              const std::vector<Feature>& ys) {
  assert(xs.size() == ys.size());
  std::vector<std::array<double, 2>> src, dst;
  src.reserve(xs.size());
  dst.reserve(ys.size());
  for (std::size_t i = 0; i < xs.size(); ++i) {
    // Bottom-center footprint: the point closest to the ground plane.
    src.push_back({xs[i][0], xs[i][1] + xs[i][3] / 2.0});
    dst.push_back({ys[i][0], ys[i][1] + ys[i][3] / 2.0});
  }
  h_.estimate(src, dst);
}

Feature HomographyRegressor::predict(const Feature& x) const {
  const double cx = x[0], cy = x[1], w = x[2], h = x[3];
  const std::array<std::array<double, 2>, 4> corners = {{
      {cx - w / 2, cy - h / 2},
      {cx + w / 2, cy - h / 2},
      {cx - w / 2, cy + h / 2},
      {cx + w / 2, cy + h / 2},
  }};
  double x0 = std::numeric_limits<double>::infinity(), y0 = x0;
  double x1 = -x0, y1 = -x0;
  for (const auto& c : corners) {
    const auto p = h_.apply(c);
    if (!std::isfinite(p[0]) || !std::isfinite(p[1])) continue;
    x0 = std::min(x0, p[0]);
    y0 = std::min(y0, p[1]);
    x1 = std::max(x1, p[0]);
    y1 = std::max(y1, p[1]);
  }
  if (!std::isfinite(x0) || x1 <= x0 || y1 <= y0) return {0.0, 0.0, 0.0, 0.0};
  return {(x0 + x1) / 2.0, (y0 + y1) / 2.0, x1 - x0, y1 - y0};
}

}  // namespace mvs::ml
