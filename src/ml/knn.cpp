#include "ml/knn.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace mvs::ml {

namespace {
double sq_dist(const Feature& a, const Feature& b) {
  double s = 0.0;
  for (std::size_t d = 0; d < a.size(); ++d) {
    const double delta = a[d] - b[d];
    s += delta * delta;
  }
  return s;
}
}  // namespace

std::vector<std::size_t> k_nearest(const std::vector<Feature>& xs,
                                   const Feature& q, int k) {
  assert(!xs.empty());
  const std::size_t kk = std::min<std::size_t>(static_cast<std::size_t>(k),
                                               xs.size());
  std::vector<std::size_t> idx(xs.size());
  for (std::size_t i = 0; i < xs.size(); ++i) idx[i] = i;
  std::partial_sort(idx.begin(), idx.begin() + static_cast<long>(kk),
                    idx.end(), [&](std::size_t a, std::size_t b) {
                      return sq_dist(xs[a], q) < sq_dist(xs[b], q);
                    });
  idx.resize(kk);
  return idx;
}

void KnnIndex::fit(const std::vector<Feature>& xs) {
  assert(!xs.empty());
  scaler_.fit(xs);
  tree_ = KdTree(scaler_.transform_all(xs));
}

void KnnIndex::search(const Feature& x, int k, Neighbours& out) const {
  assert(!tree_.empty());
  scaler_.transform_into(x, out.query);
  tree_.nearest_into(out.query, k, out.found);
  out.index.clear();
  out.weight.clear();
  for (const auto& [dist, i] : out.found) {
    out.index.push_back(i);
    out.weight.push_back(1.0 / (1e-6 + std::sqrt(dist)));
  }
}

double knn_vote(const Neighbours& nn, const std::vector<int>& labels) {
  double pos = 0.0, neg = 0.0;
  for (std::size_t n = 0; n < nn.index.size(); ++n)
    (labels[nn.index[n]] ? pos : neg) += nn.weight[n];
  return pos - neg;
}

void KnnClassifier::fit(const std::vector<Feature>& xs,
                        const std::vector<int>& labels) {
  assert(xs.size() == labels.size() && !xs.empty());
  index_.fit(xs);
  labels_ = labels;
}

double KnnClassifier::decision(const Feature& x) const {
  // Per-thread scratch: keeps warm calls allocation-free (DESIGN.md §11).
  thread_local Neighbours nn;
  index_.search(x, k_, nn);
  return knn_vote(nn, labels_);
}

bool KnnClassifier::predict(const Feature& x) const {
  return decision(x) > 0.0;
}

void KnnRegressor::fit(const std::vector<Feature>& xs,
                       const std::vector<Feature>& ys) {
  assert(xs.size() == ys.size() && !xs.empty());
  index_.fit(xs);
  ys_ = ys;
}

Feature KnnRegressor::predict(const Feature& x) const {
  Feature out;
  predict_into(x, out);
  return out;
}

void KnnRegressor::predict_into(const Feature& x, Feature& out) const {
  // Per-thread scratch: runs for every present detection in association
  // and every non-canonical cell key, so warm calls must not allocate.
  thread_local Neighbours nn;
  index_.search(x, k_, nn);
  out.assign(ys_.front().size(), 0.0);
  double wsum = 0.0;
  for (std::size_t n = 0; n < nn.index.size(); ++n) {
    const double w = nn.weight[n];
    wsum += w;
    for (std::size_t d = 0; d < out.size(); ++d)
      out[d] += w * ys_[nn.index[n]][d];
  }
  for (double& v : out) v /= wsum;
}

double mean_absolute_error(const VectorRegressor& model,
                           const std::vector<Feature>& xs,
                           const std::vector<Feature>& ys) {
  assert(xs.size() == ys.size());
  if (xs.empty()) return 0.0;
  double acc = 0.0;
  std::size_t terms = 0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const Feature pred = model.predict(xs[i]);
    for (std::size_t d = 0; d < ys[i].size(); ++d) {
      acc += std::abs(pred[d] - ys[i][d]);
      ++terms;
    }
  }
  return acc / static_cast<double>(terms);
}

}  // namespace mvs::ml
