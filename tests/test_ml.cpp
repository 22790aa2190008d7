#include <gtest/gtest.h>

#include <cmath>

#include "ml/decision_tree.hpp"
#include "ml/knn.hpp"
#include "ml/logistic.hpp"
#include "ml/scaler.hpp"
#include "util/rng.hpp"

namespace mvs::ml {
namespace {

/// Linearly separable 2-D blobs around (0,0) and (4,4).
void make_blobs(util::Rng& rng, int n, std::vector<Feature>& xs,
                std::vector<int>& ys) {
  for (int i = 0; i < n; ++i) {
    const bool positive = i % 2 == 0;
    const double cx = positive ? 4.0 : 0.0;
    xs.push_back({cx + rng.gaussian(0, 0.5), cx + rng.gaussian(0, 0.5)});
    ys.push_back(positive ? 1 : 0);
  }
}

double accuracy(const BinaryClassifier& model, const std::vector<Feature>& xs,
                const std::vector<int>& ys) {
  std::size_t correct = 0;
  for (std::size_t i = 0; i < xs.size(); ++i)
    correct += (model.predict(xs[i]) == (ys[i] == 1));
  return static_cast<double>(correct) / static_cast<double>(xs.size());
}

TEST(StandardScaler, ZeroMeanUnitVariance) {
  std::vector<Feature> xs = {{1, 10}, {2, 20}, {3, 30}};
  StandardScaler scaler;
  scaler.fit(xs);
  const auto t = scaler.transform_all(xs);
  double mean0 = 0, mean1 = 0;
  for (const Feature& x : t) {
    mean0 += x[0];
    mean1 += x[1];
  }
  EXPECT_NEAR(mean0, 0.0, 1e-12);
  EXPECT_NEAR(mean1, 0.0, 1e-12);
  EXPECT_NEAR(t[2][0], -t[0][0], 1e-12);
}

TEST(StandardScaler, ConstantDimensionSafe) {
  std::vector<Feature> xs = {{5, 1}, {5, 2}, {5, 3}};
  StandardScaler scaler;
  scaler.fit(xs);
  const Feature t = scaler.transform({5, 2});
  EXPECT_NEAR(t[0], 0.0, 1e-12);  // no division blow-up
}

TEST(KNearest, ReturnsClosest) {
  const std::vector<Feature> xs = {{0, 0}, {10, 10}, {1, 1}, {5, 5}};
  const auto nn = k_nearest(xs, {0.5, 0.5}, 2);
  ASSERT_EQ(nn.size(), 2u);
  EXPECT_TRUE((nn[0] == 0 && nn[1] == 2) || (nn[0] == 2 && nn[1] == 0));
}

TEST(KNearest, KLargerThanDataset) {
  const std::vector<Feature> xs = {{0, 0}, {1, 1}};
  EXPECT_EQ(k_nearest(xs, {0, 0}, 10).size(), 2u);
}

/// Every classifier must separate clean blobs.
template <typename Model>
void expect_separates_blobs(Model model) {
  util::Rng rng(99);
  std::vector<Feature> xs;
  std::vector<int> ys;
  make_blobs(rng, 200, xs, ys);
  model.fit(xs, ys);
  EXPECT_GE(accuracy(model, xs, ys), 0.97);
  // decision() sign must agree with predict().
  for (int i = 0; i < 20; ++i)
    EXPECT_EQ(model.predict(xs[static_cast<std::size_t>(i)]),
              model.decision(xs[static_cast<std::size_t>(i)]) > 0.0);
}

TEST(KnnClassifier, SeparatesBlobs) { expect_separates_blobs(KnnClassifier(5)); }
TEST(LogisticRegression, SeparatesBlobs) {
  expect_separates_blobs(LogisticRegression());
}
TEST(DecisionTree, SeparatesBlobs) { expect_separates_blobs(DecisionTree()); }

TEST(DecisionTree, RespectsMaxDepth) {
  DecisionTree::Config cfg;
  cfg.max_depth = 2;
  DecisionTree tree(cfg);
  util::Rng rng(4);
  std::vector<Feature> xs;
  std::vector<int> ys;
  for (int i = 0; i < 200; ++i) {
    xs.push_back({rng.uniform(0, 1), rng.uniform(0, 1)});
    ys.push_back(rng.bernoulli(0.5) ? 1 : 0);
  }
  tree.fit(xs, ys);
  EXPECT_LE(tree.depth(), 2);
}

TEST(LogisticRegression, ProbabilityCalibrated) {
  util::Rng rng(5);
  std::vector<Feature> xs;
  std::vector<int> ys;
  make_blobs(rng, 300, xs, ys);
  LogisticRegression model;
  model.fit(xs, ys);
  EXPECT_GT(model.probability({4, 4}), 0.9);
  EXPECT_LT(model.probability({0, 0}), 0.1);
}

TEST(KnnRegressor, InterpolatesLocally) {
  // y = x on a grid; KNN must interpolate in range.
  std::vector<Feature> xs, ys;
  for (int i = 0; i <= 10; ++i) {
    xs.push_back({static_cast<double>(i)});
    ys.push_back({static_cast<double>(i)});
  }
  KnnRegressor model(3);
  model.fit(xs, ys);
  EXPECT_NEAR(model.predict({5.0})[0], 5.0, 0.5);
  EXPECT_NEAR(model.predict({2.4})[0], 2.4, 0.7);
}

}  // namespace
}  // namespace mvs::ml
