#pragma once
// RANSAC-wrapped linear regression (Fig. 11 baseline): robust to outlier
// correspondences produced by association noise / occlusions.

#include "ml/model.hpp"
#include "support/linear_model.hpp"
#include "util/rng.hpp"

namespace mvs::ml {

class RansacRegressor final : public VectorRegressor {
 public:
  struct Config {
    int iterations = 100;
    std::size_t sample_size = 8;       ///< minimal sample per hypothesis
    double inlier_threshold = 0.05;    ///< max per-output abs residual
    std::uint64_t seed = 23;
  };

  RansacRegressor() = default;
  explicit RansacRegressor(Config cfg) : cfg_(cfg) {}

  void fit(const std::vector<Feature>& xs,
           const std::vector<Feature>& ys) override;
  Feature predict(const Feature& x) const override;

  std::size_t inlier_count() const { return inliers_; }

 private:
  Config cfg_{};
  LinearRegression best_;
  std::size_t inliers_ = 0;
};

}  // namespace mvs::ml
