#pragma once
// K-nearest-neighbors classifier and regressor — the paper's data-driven
// cross-camera location mapping ("a special lookup table which uses the
// nearest case(s) in the memory to generate the prediction", Sec. II-C).
//
// Both models are a KnnIndex (the scaled training points in a kd-tree) plus
// per-row targets. The index is its own type so that several label sets can
// share one search: the association models fit one index per source camera
// and vote each destination camera's labels over the same neighbours.

#include "ml/kdtree.hpp"
#include "ml/model.hpp"
#include "ml/scaler.hpp"

namespace mvs::ml {

/// The k nearest training rows of one query and their inverse-distance
/// weights, plus the search's working memory. Reused across queries (keep
/// one per thread): warm searches allocate nothing.
struct Neighbours {
  std::vector<std::size_t> index;  ///< training rows, nearest first
  std::vector<double> weight;      ///< 1 / (1e-6 + distance), per row
  Feature query;                   ///< scaled query (working memory)
  /// (squared distance, row) nearest first (working memory).
  std::vector<std::pair<double, std::size_t>> found;
};

/// Standardized training points in an exact kd-tree.
class KnnIndex {
 public:
  void fit(const std::vector<Feature>& xs);
  bool empty() const { return tree_.empty(); }

  /// The k nearest rows to `x` (unscaled) into `out`, with their weights.
  void search(const Feature& x, int k, Neighbours& out) const;

 private:
  StandardScaler scaler_;
  KdTree tree_;
};

/// Inverse-distance-weighted vote of the neighbours' binary labels:
/// positive weight minus negative weight, summed nearest first. Positive
/// means "predict 1".
double knn_vote(const Neighbours& nn, const std::vector<int>& labels);

/// Majority-vote KNN binary classifier with inverse-distance weighting.
class KnnClassifier final : public BinaryClassifier {
 public:
  explicit KnnClassifier(int k = 5) : k_(k) {}

  void fit(const std::vector<Feature>& xs,
           const std::vector<int>& labels) override;
  bool predict(const Feature& x) const override;
  double decision(const Feature& x) const override;

 private:
  int k_;
  KnnIndex index_;
  std::vector<int> labels_;
};

/// Inverse-distance-weighted KNN multi-output regressor.
class KnnRegressor final : public VectorRegressor {
 public:
  explicit KnnRegressor(int k = 5) : k_(k) {}

  void fit(const std::vector<Feature>& xs,
           const std::vector<Feature>& ys) override;
  Feature predict(const Feature& x) const override;
  /// predict() into a caller-owned feature (resized in place); warm calls
  /// allocate nothing.
  void predict_into(const Feature& x, Feature& out) const;

 private:
  int k_;
  KnnIndex index_;
  std::vector<Feature> ys_;
};

/// Indices of the k nearest rows of `xs` to `q` under squared L2.
/// Exposed for testing and for the association module's diagnostics.
std::vector<std::size_t> k_nearest(const std::vector<Feature>& xs,
                                   const Feature& q, int k);

}  // namespace mvs::ml
