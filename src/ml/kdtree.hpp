#pragma once
// Exact k-nearest-neighbor search over a static point set via a kd-tree.
//
// The association models issue thousands of KNN queries: presence and
// location queries for the detections of every key frame, a presence query
// per ghost per regular frame, and one per mask cell at set-up (one tree
// per source camera serves every destination's presence vote). Brute force
// is O(n) per query, the kd-tree is ~O(log n) for the low-dimensional (4-D
// box feature) points used here. Results are exact and identical to brute
// force — verified by tests — so KnnIndex can use it transparently.

#include <cstddef>
#include <utility>
#include <vector>

#include "ml/model.hpp"

namespace mvs::ml {

class KdTree {
 public:
  KdTree() = default;

  /// Build over `points`. All points must share one dimension. The tree
  /// keeps its own copy, flat and in leaf order.
  explicit KdTree(const std::vector<Feature>& points);

  std::size_t size() const { return ids_.size(); }
  bool empty() const { return ids_.empty(); }

  /// Indices of the k nearest points to `query` under squared L2,
  /// ordered nearest-first. k is capped at size().
  std::vector<std::size_t> nearest(const Feature& query, int k) const;

  /// nearest() into a caller-owned buffer: `out` receives (squared
  /// distance, index) pairs, nearest first (cleared first, and used as the
  /// search heap). Same neighbours; warm calls allocate nothing.
  void nearest_into(const Feature& query, int k,
                    std::vector<std::pair<double, std::size_t>>& out) const;

 private:
  struct Node {
    int axis = -1;          ///< split dimension; -1 for leaves
    double threshold = 0.0;
    std::size_t begin = 0;  ///< leaf: range of leaf-order slots
    std::size_t end = 0;
    int left = -1;          ///< child node indices
    int right = -1;
  };

  static constexpr std::size_t kLeafSize = 8;

  int build(const std::vector<Feature>& points,
            std::vector<std::size_t>& order, std::size_t begin,
            std::size_t end, int depth);
  void search(int node, const Feature& query,
              std::vector<std::pair<double, std::size_t>>& heap,
              std::size_t k) const;

  std::size_t dim_ = 0;
  std::vector<double> coords_;    ///< dim_ values per slot, in leaf order
  std::vector<std::size_t> ids_;  ///< input index of each slot
  std::vector<Node> nodes_;
  int root_ = -1;
};

}  // namespace mvs::ml
