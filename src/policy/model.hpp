#pragma once
// Serialized detect-or-track scoring models (mvs::policy).
//
// A learned policy is a tiny binary classifier over the frozen
// features.hpp vector, stored as JSON so models trained by
// tools/policy_train travel as plain files. Two shapes are supported,
// mirroring the two mvs::ml baselines:
//
//   {"type": "logistic", "features": [...8 names...],
//    "mean": [...], "scale": [...], "weights": [...], "bias": b,
//    "threshold": 0.5}
//
//   {"type": "tree", "features": [...8 names...], "threshold": 0.5,
//    "nodes": [{"feature": f, "threshold": t, "left": i, "right": j} |
//              {"leaf": p}, ...]}
//
// Evaluation is self-contained (no mvs::ml at inference): logistic applies
// sigmoid(bias + sum_d w_d * (x_d - mean_d) / scale_d); the tree walks
// nodes from index 0 (go left when x[feature] <= threshold) to a leaf's
// positive fraction. parse_model validates everything the evaluator
// assumes — feature names must match kFeatureNames exactly, vector sizes
// must agree, scales must be positive, tree child links must point forward
// (acyclic) and in range, leaves must be probabilities — so a malformed
// model is rejected at load time, never trusted at decision time.

#include <optional>
#include <span>
#include <string>
#include <vector>

namespace mvs::policy {

enum class ModelType { kLogistic, kTree };

const char* to_string(ModelType type);

/// Flattened decision-tree node. Interior nodes have feature >= 0 and
/// forward child indices; leaves have feature == -1 and a positive
/// fraction in `leaf`.
struct TreeNode {
  int feature = -1;
  double threshold = 0.0;
  double leaf = 0.0;
  int left = -1;
  int right = -1;
};

struct Model {
  ModelType type = ModelType::kLogistic;
  // Logistic parameters (raw feature space; scale is a standard deviation).
  std::vector<double> mean, scale, weights;
  double bias = 0.0;
  // Tree parameters.
  std::vector<TreeNode> nodes;
  /// Decision threshold on the returned probability: detect when
  /// evaluate(x) >= threshold.
  double threshold = 0.5;

  /// P(detect is useful | x). `x` must have kFeatureCount entries.
  double evaluate(std::span<const double> x) const;
};

/// Parse + validate a model document; nullopt (with *error filled) on any
/// structural or semantic problem.
std::optional<Model> parse_model(const std::string& json_text,
                                 std::string* error = nullptr);

/// Serialize (round-trips through parse_model).
std::string dump_model(const Model& model);

}  // namespace mvs::policy
