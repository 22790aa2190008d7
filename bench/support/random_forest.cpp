#include "support/random_forest.hpp"

#include <cassert>

#include "util/rng.hpp"

namespace mvs::ml {

void RandomForest::fit(const std::vector<Feature>& xs,
                       const std::vector<int>& labels) {
  assert(xs.size() == labels.size() && !xs.empty());
  util::Rng rng(cfg_.seed);
  forest_.clear();
  forest_.reserve(static_cast<std::size_t>(cfg_.trees));
  for (int t = 0; t < cfg_.trees; ++t) {
    // Bootstrap sample (with replacement), same size as the input.
    std::vector<Feature> bx;
    std::vector<int> by;
    bx.reserve(xs.size());
    by.reserve(xs.size());
    for (std::size_t i = 0; i < xs.size(); ++i) {
      const std::size_t pick = rng.index(xs.size());
      bx.push_back(xs[pick]);
      by.push_back(labels[pick]);
    }
    DecisionTree tree(cfg_.tree);
    tree.fit(bx, by);
    forest_.push_back(std::move(tree));
  }
}

double RandomForest::decision(const Feature& x) const {
  assert(!forest_.empty());
  double vote = 0.0;
  for (const DecisionTree& tree : forest_) vote += tree.decision(x);
  return vote / static_cast<double>(forest_.size());
}

bool RandomForest::predict(const Feature& x) const {
  return decision(x) > 0.0;
}

}  // namespace mvs::ml
