#include "support/linear_model.hpp"

#include <cassert>

#include "support/solve.hpp"

namespace mvs::ml {

void LinearRegression::fit(const std::vector<Feature>& xs,
                           const std::vector<Feature>& ys) {
  std::vector<std::size_t> idx(xs.size());
  for (std::size_t i = 0; i < xs.size(); ++i) idx[i] = i;
  fit_subset(xs, ys, idx);
}

void LinearRegression::fit_subset(const std::vector<Feature>& xs,
                                  const std::vector<Feature>& ys,
                                  const std::vector<std::size_t>& idx) {
  assert(xs.size() == ys.size() && !idx.empty());
  const std::size_t dim = xs.front().size();
  const std::size_t out_dim = ys.front().size();

  // Design matrix with bias column.
  linalg::Matrix a(idx.size(), dim + 1);
  for (std::size_t r = 0; r < idx.size(); ++r) {
    for (std::size_t d = 0; d < dim; ++d) a(r, d) = xs[idx[r]][d];
    a(r, dim) = 1.0;
  }

  coef_.assign(out_dim, Feature(dim + 1, 0.0));
  for (std::size_t o = 0; o < out_dim; ++o) {
    std::vector<double> b(idx.size());
    for (std::size_t r = 0; r < idx.size(); ++r) b[r] = ys[idx[r]][o];
    const auto w = linalg::least_squares(a, b, ridge_);
    if (w) coef_[o] = *w;
  }
}

Feature LinearRegression::predict(const Feature& x) const {
  assert(fitted());
  Feature out(coef_.size(), 0.0);
  for (std::size_t o = 0; o < coef_.size(); ++o) {
    double z = coef_[o].back();
    for (std::size_t d = 0; d < x.size(); ++d) z += coef_[o][d] * x[d];
    out[o] = z;
  }
  return out;
}

}  // namespace mvs::ml
