#include <gtest/gtest.h>

#include "ml/kdtree.hpp"
#include "ml/knn.hpp"
#include "util/rng.hpp"

namespace mvs {
namespace {

using ml::Feature;

std::vector<Feature> random_points(util::Rng& rng, std::size_t n,
                                   std::size_t dim) {
  std::vector<Feature> points(n, Feature(dim));
  for (Feature& p : points)
    for (double& v : p) v = rng.uniform(-10, 10);
  return points;
}

TEST(KdTree, SinglePoint) {
  ml::KdTree tree({{1.0, 2.0}});
  const auto nn = tree.nearest({0.0, 0.0}, 3);
  ASSERT_EQ(nn.size(), 1u);
  EXPECT_EQ(nn[0], 0u);
}

TEST(KdTree, FindsExactPoint) {
  util::Rng rng(1);
  const auto points = random_points(rng, 100, 4);
  ml::KdTree tree(points);
  for (std::size_t probe = 0; probe < 100; probe += 7) {
    const auto nn = tree.nearest(points[probe], 1);
    ASSERT_EQ(nn.size(), 1u);
    // The exact point (or an identical duplicate) must be returned.
    EXPECT_EQ(points[nn[0]], points[probe]);
  }
}

/// Exactness: kd-tree results equal brute force for every query, all sizes.
class KdTreeVsBruteForce : public ::testing::TestWithParam<int> {};

TEST_P(KdTreeVsBruteForce, IdenticalNeighborSets) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 37 + 5);
  const std::size_t n = 5 + rng.index(300);
  const std::size_t dim = 2 + rng.index(4);
  const auto points = random_points(rng, n, dim);
  ml::KdTree tree(points);
  for (int q = 0; q < 20; ++q) {
    Feature query(dim);
    for (double& v : query) v = rng.uniform(-12, 12);
    const int k = 1 + static_cast<int>(rng.index(8));
    auto from_tree = tree.nearest(query, k);
    auto brute = ml::k_nearest(points, query, k);
    ASSERT_EQ(from_tree.size(), brute.size());
    // Compare by distance (ties may order differently between methods).
    auto dist = [&](std::size_t i) {
      double s = 0.0;
      for (std::size_t d = 0; d < dim; ++d) {
        const double delta = points[i][d] - query[d];
        s += delta * delta;
      }
      return s;
    };
    for (std::size_t r = 0; r < brute.size(); ++r)
      EXPECT_NEAR(dist(from_tree[r]), dist(brute[r]), 1e-9);
    // Nearest-first ordering.
    for (std::size_t r = 1; r < from_tree.size(); ++r)
      EXPECT_LE(dist(from_tree[r - 1]), dist(from_tree[r]) + 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KdTreeVsBruteForce, ::testing::Range(0, 15));

TEST(KdTree, KCappedAtSize) {
  util::Rng rng(2);
  const auto points = random_points(rng, 6, 3);
  ml::KdTree tree(points);
  EXPECT_EQ(tree.nearest({0, 0, 0}, 100).size(), 6u);
}

}  // namespace
}  // namespace mvs
