#include "support/svm.hpp"

#include <cassert>
#include <cmath>

namespace mvs::ml {

void LinearSvm::fit(const std::vector<Feature>& xs,
                    const std::vector<int>& labels) {
  assert(xs.size() == labels.size() && !xs.empty());
  scaler_.fit(xs);
  const std::vector<Feature> sx = scaler_.transform_all(xs);
  const std::size_t dim = sx.front().size();
  weights_.assign(dim + 1, 0.0);

  util::Rng rng(cfg_.seed);
  long t = 0;
  for (int epoch = 0; epoch < cfg_.epochs; ++epoch) {
    for (std::size_t i : rng.permutation(sx.size())) {
      ++t;
      const double eta = 1.0 / (cfg_.lambda * static_cast<double>(t));
      const double y = labels[i] ? 1.0 : -1.0;
      double z = weights_[dim];
      for (std::size_t d = 0; d < dim; ++d) z += weights_[d] * sx[i][d];
      // Sub-gradient step: shrink weights; add margin violators.
      for (std::size_t d = 0; d < dim; ++d)
        weights_[d] *= (1.0 - eta * cfg_.lambda);
      if (y * z < 1.0) {
        for (std::size_t d = 0; d < dim; ++d)
          weights_[d] += eta * y * sx[i][d];
        weights_[dim] += eta * y;
      }
    }
  }
}

double LinearSvm::decision(const Feature& x) const {
  assert(!weights_.empty());
  const Feature q = scaler_.transform(x);
  double z = weights_.back();
  for (std::size_t d = 0; d < q.size(); ++d) z += weights_[d] * q[d];
  return z;
}

bool LinearSvm::predict(const Feature& x) const { return decision(x) > 0.0; }

}  // namespace mvs::ml
