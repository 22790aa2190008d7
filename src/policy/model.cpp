#include "policy/model.hpp"

#include <cmath>
#include <cstddef>

#include "policy/features.hpp"
#include "util/json.hpp"

namespace mvs::policy {

namespace {

bool fail(std::string* error, const std::string& message) {
  if (error) *error = message;
  return false;
}

/// Read a JSON array of numbers into `out`; false on shape mismatch.
bool read_numbers(const util::Json* node, std::vector<double>& out) {
  if (!node || !node->is_array()) return false;
  out.clear();
  for (const util::Json& v : node->as_array()) {
    if (!v.is_number()) return false;
    out.push_back(v.as_number());
  }
  return true;
}

bool validate_features(const util::Json& root, std::string* error) {
  const util::Json* names = root.find("features");
  if (!names || !names->is_array() ||
      names->as_array().size() != kFeatureCount)
    return fail(error, "model: \"features\" must list the " +
                           std::to_string(kFeatureCount) + " feature names");
  for (std::size_t d = 0; d < kFeatureCount; ++d) {
    const util::Json& name = names->as_array()[d];
    if (!name.is_string() || name.as_string() != kFeatureNames[d])
      return fail(error, "model: feature " + std::to_string(d) +
                             " must be \"" + kFeatureNames[d] +
                             "\" (layout mismatch)");
  }
  return true;
}

bool parse_logistic(const util::Json& root, Model& model, std::string* error) {
  if (!read_numbers(root.find("mean"), model.mean) ||
      model.mean.size() != kFeatureCount)
    return fail(error, "model: \"mean\" must have one number per feature");
  if (!read_numbers(root.find("scale"), model.scale) ||
      model.scale.size() != kFeatureCount)
    return fail(error, "model: \"scale\" must have one number per feature");
  for (double s : model.scale)
    if (!(s > 0.0))
      return fail(error, "model: every \"scale\" entry must be > 0");
  if (!read_numbers(root.find("weights"), model.weights) ||
      model.weights.size() != kFeatureCount)
    return fail(error, "model: \"weights\" must have one number per feature");
  const util::Json* bias = root.find("bias");
  if (!bias || !bias->is_number())
    return fail(error, "model: logistic requires a numeric \"bias\"");
  model.bias = bias->as_number();
  return true;
}

bool parse_tree(const util::Json& root, Model& model, std::string* error) {
  const util::Json* nodes = root.find("nodes");
  if (!nodes || !nodes->is_array() || nodes->as_array().empty())
    return fail(error, "model: tree requires a non-empty \"nodes\" array");
  const std::size_t n = nodes->as_array().size();
  model.nodes.clear();
  for (std::size_t i = 0; i < n; ++i) {
    const util::Json& jn = nodes->as_array()[i];
    if (!jn.is_object())
      return fail(error, "model: tree node " + std::to_string(i) +
                             " must be an object");
    TreeNode node;
    if (const util::Json* leaf = jn.find("leaf")) {
      if (!leaf->is_number() || leaf->as_number() < 0.0 ||
          leaf->as_number() > 1.0)
        return fail(error, "model: leaf " + std::to_string(i) +
                               " must be a probability in [0, 1]");
      node.leaf = leaf->as_number();
    } else {
      const util::Json* feature = jn.find("feature");
      const util::Json* threshold = jn.find("threshold");
      const util::Json* left = jn.find("left");
      const util::Json* right = jn.find("right");
      if (!feature || !feature->is_number() || !threshold ||
          !threshold->is_number() || !left || !left->is_number() || !right ||
          !right->is_number())
        return fail(error, "model: interior node " + std::to_string(i) +
                               " needs feature/threshold/left/right");
      node.feature = static_cast<int>(feature->as_number());
      if (node.feature < 0 ||
          node.feature >= static_cast<int>(kFeatureCount))
        return fail(error, "model: node " + std::to_string(i) +
                               " feature index out of range");
      node.threshold = threshold->as_number();
      node.left = static_cast<int>(left->as_number());
      node.right = static_cast<int>(right->as_number());
      // Children must point strictly forward: guarantees the walk
      // terminates without a visited set.
      for (int child : {node.left, node.right})
        if (child <= static_cast<int>(i) || child >= static_cast<int>(n))
          return fail(error, "model: node " + std::to_string(i) +
                                 " child index must point forward in range");
    }
    model.nodes.push_back(node);
  }
  return true;
}

}  // namespace

const char* to_string(ModelType type) {
  return type == ModelType::kLogistic ? "logistic" : "tree";
}

double Model::evaluate(std::span<const double> x) const {
  if (type == ModelType::kLogistic) {
    double z = bias;
    for (std::size_t d = 0; d < weights.size() && d < x.size(); ++d)
      z += weights[d] * (x[d] - mean[d]) / scale[d];
    return 1.0 / (1.0 + std::exp(-z));
  }
  std::size_t i = 0;
  while (nodes[i].feature >= 0) {
    const double v = x[static_cast<std::size_t>(nodes[i].feature)];
    i = static_cast<std::size_t>(v <= nodes[i].threshold ? nodes[i].left
                                                         : nodes[i].right);
  }
  return nodes[i].leaf;
}

std::optional<Model> parse_model(const std::string& json_text,
                                 std::string* error) {
  std::string parse_error;
  const std::optional<util::Json> doc = util::Json::parse(json_text,
                                                          &parse_error);
  if (!doc) {
    fail(error, "model: " + parse_error);
    return std::nullopt;
  }
  if (!doc->is_object()) {
    fail(error, "model: document must be an object");
    return std::nullopt;
  }

  Model model;
  const std::string type = doc->string_or("type", "");
  if (type == "logistic") {
    model.type = ModelType::kLogistic;
  } else if (type == "tree") {
    model.type = ModelType::kTree;
  } else {
    fail(error, "model: \"type\" must be \"logistic\" or \"tree\"");
    return std::nullopt;
  }
  if (!validate_features(*doc, error)) return std::nullopt;

  const util::Json* threshold = doc->find("threshold");
  if (threshold) {
    if (!threshold->is_number() || threshold->as_number() <= 0.0 ||
        threshold->as_number() >= 1.0) {
      fail(error, "model: \"threshold\" must be in (0, 1)");
      return std::nullopt;
    }
    model.threshold = threshold->as_number();
  }

  const bool ok = model.type == ModelType::kLogistic
                      ? parse_logistic(*doc, model, error)
                      : parse_tree(*doc, model, error);
  if (!ok) return std::nullopt;
  return model;
}

std::string dump_model(const Model& model) {
  util::Json::Array names;
  for (const char* name : kFeatureNames) names.emplace_back(name);

  util::Json::Object root;
  root["type"] = to_string(model.type);
  root["features"] = std::move(names);
  root["threshold"] = model.threshold;
  if (model.type == ModelType::kLogistic) {
    auto numbers = [](const std::vector<double>& xs) {
      util::Json::Array arr;
      for (double x : xs) arr.emplace_back(x);
      return arr;
    };
    root["mean"] = numbers(model.mean);
    root["scale"] = numbers(model.scale);
    root["weights"] = numbers(model.weights);
    root["bias"] = model.bias;
  } else {
    util::Json::Array nodes;
    for (const TreeNode& node : model.nodes) {
      util::Json::Object jn;
      if (node.feature < 0) {
        jn["leaf"] = node.leaf;
      } else {
        jn["feature"] = node.feature;
        jn["threshold"] = node.threshold;
        jn["left"] = node.left;
        jn["right"] = node.right;
      }
      nodes.emplace_back(std::move(jn));
    }
    root["nodes"] = std::move(nodes);
  }
  return util::Json(std::move(root)).dump();
}

}  // namespace mvs::policy
