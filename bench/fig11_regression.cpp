// Figure 11 reproduction: cross-camera association *regression* — mean
// absolute error (pixels, over the 4 box coordinates) of the KNN mapping
// against homography, linear regression and RANSAC on S1-S3.
// Expected shape (paper): KNN lowest (or tied-lowest) MAE everywhere;
// homography much worse because a plane-induced transform cannot model 3-D
// box extent under 90/180-degree view changes.

#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>

#include "assoc/association.hpp"
#include "ml/knn.hpp"
#include "sim/dataset.hpp"
#include "support/homography.hpp"
#include "support/linear_model.hpp"
#include "support/ransac.hpp"
#include "util/table.hpp"

namespace {

using mvs::ml::VectorRegressor;

struct ModelSpec {
  const char* name;
  std::function<std::unique_ptr<VectorRegressor>()> make;
};

}  // namespace

int main() {
  using namespace mvs;

  const ModelSpec models[] = {
      {"KNN", [] { return std::make_unique<ml::KnnRegressor>(5); }},
      {"Homography", [] { return std::make_unique<ml::HomographyRegressor>(); }},
      {"Linear", [] { return std::make_unique<ml::LinearRegression>(); }},
      {"RANSAC", [] { return std::make_unique<ml::RansacRegressor>(); }},
  };

  std::printf("== Figure 11: association regression, MAE (pixels) ==\n\n");
  util::Table table({"scenario", "model", "MAE (px)", "test pairs"});

  for (const char* scenario : {"S1", "S2", "S3"}) {
    sim::ScenarioPlayer player(sim::make_scenario(scenario, 17), 60.0);
    const auto train = player.take(250);
    const auto test = player.take(250);
    const std::size_t m = player.camera_count();
    const auto& cams = player.scenario().cameras;

    for (const ModelSpec& spec : models) {
      double abs_error = 0.0;
      std::size_t terms = 0;
      std::size_t pairs = 0;
      for (std::size_t i = 0; i < m; ++i) {
        for (std::size_t j = 0; j < m; ++j) {
          if (i == j) continue;
          const auto wi = static_cast<double>(cams[i].model.width());
          const auto hi = static_cast<double>(cams[i].model.height());
          const auto wj = static_cast<double>(cams[j].model.width());
          const auto hj = static_cast<double>(cams[j].model.height());
          const assoc::PairDataset train_ds =
              assoc::build_pair_dataset(train, i, j, wi, hi, wj, hj);
          const assoc::PairDataset test_ds =
              assoc::build_pair_dataset(test, i, j, wi, hi, wj, hj);
          if (train_ds.x_pos.size() < 20 || test_ds.x_pos.empty()) continue;

          auto model = spec.make();
          model->fit(train_ds.x_pos, train_ds.y_pos);
          for (std::size_t k = 0; k < test_ds.x_pos.size(); ++k) {
            const ml::Feature pred = model->predict(test_ds.x_pos[k]);
            const ml::Feature& truth = test_ds.y_pos[k];
            // De-normalize: cx/w scale by frame width, cy/h by height.
            abs_error += std::abs(pred[0] - truth[0]) * wj;
            abs_error += std::abs(pred[1] - truth[1]) * hj;
            abs_error += std::abs(pred[2] - truth[2]) * wj;
            abs_error += std::abs(pred[3] - truth[3]) * hj;
            terms += 4;
            ++pairs;
          }
        }
      }
      table.add_row({scenario, spec.name,
                     util::Table::fmt(terms ? abs_error / terms : 0.0, 1),
                     std::to_string(pairs)});
    }
  }
  std::printf("%s\nHomography fails because bounding boxes are shaped by 3-D "
              "object extent,\nnot only ground-plane position; the "
              "data-driven KNN lookup absorbs that.\n",
              table.to_string().c_str());
  return 0;
}
