// Figure 10 reproduction: cross-camera association *classification* —
// precision and recall of the KNN model against SVM, logistic regression and
// decision tree on scenarios S1-S3. Train on the first half of each
// scenario's frames, test on the second half, aggregated over all ordered
// camera pairs. Expected shape (paper): KNN best or near-best precision in
// every scenario; S3 hardest.

#include <cstdio>
#include <functional>
#include <memory>

#include "assoc/association.hpp"
#include "metrics/metrics.hpp"
#include "ml/decision_tree.hpp"
#include "ml/knn.hpp"
#include "ml/logistic.hpp"
#include "sim/dataset.hpp"
#include "support/random_forest.hpp"
#include "support/svm.hpp"
#include "util/table.hpp"

namespace {

using mvs::ml::BinaryClassifier;

struct ModelSpec {
  const char* name;
  std::function<std::unique_ptr<BinaryClassifier>()> make;
};

}  // namespace

int main() {
  using namespace mvs;

  const ModelSpec models[] = {
      {"KNN", [] { return std::make_unique<ml::KnnClassifier>(5); }},
      {"SVM", [] { return std::make_unique<ml::LinearSvm>(); }},
      {"Logistic", [] { return std::make_unique<ml::LogisticRegression>(); }},
      {"DecisionTree", [] { return std::make_unique<ml::DecisionTree>(); }},
      // Beyond the paper's four baselines; reported for completeness.
      {"RandomForest*", [] { return std::make_unique<ml::RandomForest>(); }},
  };

  std::printf("== Figure 10: association classification, precision/recall ==\n\n");
  util::Table table({"scenario", "model", "precision", "recall", "f1",
                     "test samples"});

  for (const char* scenario : {"S1", "S2", "S3"}) {
    sim::ScenarioPlayer player(sim::make_scenario(scenario, 17), 60.0);
    const auto train = player.take(250);
    const auto test = player.take(250);
    const std::size_t m = player.camera_count();
    const auto& cams = player.scenario().cameras;

    for (const ModelSpec& spec : models) {
      metrics::BinaryMetrics agg;
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
          if (train_ds.x.size() < 20 || test_ds.x.empty()) continue;
          // Degenerate labels (all one class) break SGD models; skip pair.
          std::size_t pos = 0;
          for (int p : train_ds.present) pos += static_cast<std::size_t>(p);
          if (pos == 0 || pos == train_ds.present.size()) continue;

          auto model = spec.make();
          model->fit(train_ds.x, train_ds.present);
          for (std::size_t k = 0; k < test_ds.x.size(); ++k)
            agg.add(model->predict(test_ds.x[k]), test_ds.present[k] == 1);
        }
      }
      table.add_row({scenario, spec.name,
                     util::Table::fmt(agg.precision(), 3),
                     util::Table::fmt(agg.recall(), 3),
                     util::Table::fmt(agg.f1(), 3),
                     std::to_string(agg.total())});
    }
  }
  std::printf("%s\nPrecision matters more than recall here: a false positive "
              "merges two\ndistinct objects and drops one of them from "
              "tracking.\n",
              table.to_string().c_str());
  return 0;
}
