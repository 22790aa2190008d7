#include "ml/kdtree.hpp"

#include <algorithm>
#include <cassert>
#include <numeric>

namespace mvs::ml {

KdTree::KdTree(const std::vector<Feature>& points) {
  if (points.empty()) return;
  dim_ = points.front().size();
  std::vector<std::size_t> order(points.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  root_ = build(points, order, 0, points.size(), 0);
  // Lay the points out flat in the order the leaves scan them.
  coords_.reserve(points.size() * dim_);
  for (const std::size_t p : order)
    coords_.insert(coords_.end(), points[p].begin(), points[p].end());
  ids_ = std::move(order);
}

int KdTree::build(const std::vector<Feature>& points,
                  std::vector<std::size_t>& order, std::size_t begin,
                  std::size_t end, int depth) {
  Node node;
  node.begin = begin;
  node.end = end;
  if (end - begin <= kLeafSize) {
    nodes_.push_back(node);
    return static_cast<int>(nodes_.size() - 1);
  }

  const int axis = depth % static_cast<int>(dim_);
  const std::size_t mid = begin + (end - begin) / 2;
  std::nth_element(order.begin() + static_cast<long>(begin),
                   order.begin() + static_cast<long>(mid),
                   order.begin() + static_cast<long>(end),
                   [&](std::size_t a, std::size_t b) {
                     return points[a][static_cast<std::size_t>(axis)] <
                            points[b][static_cast<std::size_t>(axis)];
                   });
  node.axis = axis;
  node.threshold = points[order[mid]][static_cast<std::size_t>(axis)];

  const int self = static_cast<int>(nodes_.size());
  nodes_.push_back(node);
  const int left = build(points, order, begin, mid, depth + 1);
  const int right = build(points, order, mid, end, depth + 1);
  nodes_[static_cast<std::size_t>(self)].left = left;
  nodes_[static_cast<std::size_t>(self)].right = right;
  return self;
}

void KdTree::search(int node_index, const Feature& query,
                    std::vector<std::pair<double, std::size_t>>& heap,
                    std::size_t k) const {
  const Node& node = nodes_[static_cast<std::size_t>(node_index)];
  if (node.axis < 0) {
    // Leaf: scan the range; maintain a max-heap of the best k.
    const double* point = coords_.data() + node.begin * dim_;
    for (std::size_t i = node.begin; i < node.end; ++i, point += dim_) {
      double dist = 0.0;
      for (std::size_t d = 0; d < dim_; ++d) {
        const double delta = point[d] - query[d];
        dist += delta * delta;
      }
      const std::size_t p = ids_[i];
      if (heap.size() < k) {
        heap.emplace_back(dist, p);
        std::push_heap(heap.begin(), heap.end());
      } else if (dist < heap.front().first) {
        std::pop_heap(heap.begin(), heap.end());
        heap.back() = {dist, p};
        std::push_heap(heap.begin(), heap.end());
      }
    }
    return;
  }

  const double delta =
      query[static_cast<std::size_t>(node.axis)] - node.threshold;
  const int near = delta <= 0.0 ? node.left : node.right;
  const int far = delta <= 0.0 ? node.right : node.left;
  search(near, query, heap, k);
  // Prune the far side unless the splitting plane is closer than the
  // current k-th best.
  if (heap.size() < k || delta * delta < heap.front().first)
    search(far, query, heap, k);
}

std::vector<std::size_t> KdTree::nearest(const Feature& query, int k) const {
  std::vector<std::pair<double, std::size_t>> found;
  nearest_into(query, k, found);
  std::vector<std::size_t> out;
  out.reserve(found.size());
  for (const auto& [dist, index] : found) out.push_back(index);
  return out;
}

void KdTree::nearest_into(
    const Feature& query, int k,
    std::vector<std::pair<double, std::size_t>>& out) const {
  assert(!empty() && query.size() == dim_);
  const std::size_t kk =
      std::min<std::size_t>(static_cast<std::size_t>(k), size());
  out.clear();
  out.reserve(kk + 1);
  search(root_, query, out, kk);
  std::sort_heap(out.begin(), out.end());
}

}  // namespace mvs::ml
