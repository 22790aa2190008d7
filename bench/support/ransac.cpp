#include "support/ransac.hpp"

#include <cassert>
#include <cmath>

namespace mvs::ml {

void RansacRegressor::fit(const std::vector<Feature>& xs,
                          const std::vector<Feature>& ys) {
  assert(xs.size() == ys.size() && !xs.empty());
  util::Rng rng(cfg_.seed);
  const std::size_t n = xs.size();
  const std::size_t sample =
      std::min(cfg_.sample_size, n);

  inliers_ = 0;
  std::vector<std::size_t> best_inliers;

  for (int it = 0; it < cfg_.iterations; ++it) {
    // Draw a minimal sample.
    std::vector<std::size_t> perm = rng.permutation(n);
    perm.resize(sample);
    LinearRegression hypo;
    hypo.fit_subset(xs, ys, perm);
    if (!hypo.fitted()) continue;

    std::vector<std::size_t> in;
    for (std::size_t i = 0; i < n; ++i) {
      const Feature pred = hypo.predict(xs[i]);
      bool ok = true;
      for (std::size_t d = 0; d < pred.size(); ++d) {
        if (std::abs(pred[d] - ys[i][d]) > cfg_.inlier_threshold) {
          ok = false;
          break;
        }
      }
      if (ok) in.push_back(i);
    }
    if (in.size() > best_inliers.size()) best_inliers = std::move(in);
  }

  if (best_inliers.size() >= sample) {
    best_.fit_subset(xs, ys, best_inliers);
    inliers_ = best_inliers.size();
  } else {
    best_.fit(xs, ys);  // degenerate data: fall back to plain least squares
    inliers_ = n;
  }
}

Feature RansacRegressor::predict(const Feature& x) const {
  return best_.predict(x);
}

}  // namespace mvs::ml
