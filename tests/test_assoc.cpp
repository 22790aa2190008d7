#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "assoc/association.hpp"
#include "metrics/metrics.hpp"
#include "sim/dataset.hpp"
#include "sim/scenario.hpp"

namespace mvs::assoc {
namespace {

TEST(BoxFeature, RoundTrip) {
  const geom::BBox box{100, 200, 50, 80};
  const ml::Feature f = box_feature(box, 1280, 704);
  EXPECT_NEAR(f[0], 125.0 / 1280.0, 1e-12);
  EXPECT_NEAR(f[2], 50.0 / 1280.0, 1e-12);
  const geom::BBox back = feature_box(f, 1280, 704);
  EXPECT_NEAR(back.x, box.x, 1e-9);
  EXPECT_NEAR(back.h, box.h, 1e-9);
}

class AssocFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    sim::ScenarioPlayer player(sim::make_s2(3), 60.0);
    train_ = player.take(200);
    test_ = player.take(100);
    std::vector<std::pair<double, double>> sizes;
    for (const sim::ScenarioCamera& cam : player.scenario().cameras)
      sizes.emplace_back(cam.model.width(), cam.model.height());
    associator_ = std::make_unique<CrossCameraAssociator>(sizes);
    associator_->train(train_);
  }

  std::vector<sim::MultiFrame> train_, test_;
  std::unique_ptr<CrossCameraAssociator> associator_;
};

TEST_F(AssocFixture, PairDatasetConsistent) {
  const PairDataset ds =
      build_pair_dataset(train_, 0, 1, 1280, 704, 1280, 704);
  EXPECT_EQ(ds.x.size(), ds.present.size());
  EXPECT_EQ(ds.x_pos.size(), ds.y_pos.size());
  std::size_t positives = 0;
  for (int p : ds.present) positives += static_cast<std::size_t>(p);
  EXPECT_EQ(positives, ds.x_pos.size());
  EXPECT_GT(ds.x.size(), 50u);
}

TEST_F(AssocFixture, ClassifierBeatsChanceOnHeldOut) {
  metrics::BinaryMetrics m;
  for (const sim::MultiFrame& frame : test_) {
    for (const detect::GroundTruthObject& obj : frame.per_camera[0]) {
      bool actual = false;
      for (const detect::GroundTruthObject& other : frame.per_camera[1])
        if (other.id == obj.id) actual = true;
      m.add(associator_->predict_present(0, 1, obj.box), actual);
    }
  }
  EXPECT_GT(m.total(), 50u);
  EXPECT_GT(m.precision(), 0.6);
  EXPECT_GT(m.recall(), 0.6);
}

TEST_F(AssocFixture, RegressionLandsNearTruth) {
  double total_iou = 0.0;
  std::size_t count = 0;
  for (const sim::MultiFrame& frame : test_) {
    for (const detect::GroundTruthObject& obj : frame.per_camera[0]) {
      for (const detect::GroundTruthObject& other : frame.per_camera[1]) {
        if (other.id != obj.id) continue;
        const geom::BBox pred = associator_->predict_box(0, 1, obj.box);
        total_iou += geom::iou(pred, other.box);
        ++count;
      }
    }
  }
  ASSERT_GT(count, 20u);
  EXPECT_GT(total_iou / static_cast<double>(count), 0.3);
}

TEST_F(AssocFixture, AssociateMergesCrossCameraDuplicates) {
  std::size_t merged = 0, frames_with_shared = 0;
  for (const sim::MultiFrame& frame : test_) {
    // Use ground truth as perfect detections.
    std::vector<std::vector<detect::Detection>> dets(2);
    std::map<std::uint64_t, int> seen_by;
    for (std::size_t c = 0; c < 2; ++c) {
      for (const detect::GroundTruthObject& obj : frame.per_camera[c]) {
        detect::Detection d;
        d.box = obj.box;
        d.truth_id = obj.id;
        d.score = 0.9;
        dets[c].push_back(d);
        ++seen_by[obj.id];
      }
    }
    bool has_shared = false;
    for (const auto& [id, n] : seen_by)
      if (n >= 2) has_shared = true;
    if (!has_shared) continue;
    ++frames_with_shared;

    const auto objects = associator_->associate(dets);
    for (const AssociatedObject& obj : objects) {
      int covered = 0;
      for (int det_index : obj.det_index) covered += (det_index >= 0);
      if (covered >= 2) ++merged;
    }
  }
  ASSERT_GT(frames_with_shared, 5u);
  EXPECT_GT(merged, frames_with_shared / 2);  // merging happens regularly
}

TEST_F(AssocFixture, AssociateKeepsEveryDetection) {
  for (int t = 0; t < 10; ++t) {
    const sim::MultiFrame& frame = test_[static_cast<std::size_t>(t * 5)];
    std::vector<std::vector<detect::Detection>> dets(2);
    std::size_t total = 0;
    for (std::size_t c = 0; c < 2; ++c) {
      for (const detect::GroundTruthObject& obj : frame.per_camera[c]) {
        detect::Detection d;
        d.box = obj.box;
        dets[c].push_back(d);
        ++total;
      }
    }
    const auto objects = associator_->associate(dets);
    std::size_t accounted = 0;
    for (const AssociatedObject& obj : objects)
      for (int det_index : obj.det_index) accounted += (det_index >= 0);
    EXPECT_EQ(accounted, total);  // no detection lost or duplicated
  }
}

TEST_F(AssocFixture, AssociateAtMostOneDetectionPerCamera) {
  for (const sim::MultiFrame& frame : test_) {
    std::vector<std::vector<detect::Detection>> dets(2);
    for (std::size_t c = 0; c < 2; ++c)
      for (const detect::GroundTruthObject& obj : frame.per_camera[c]) {
        detect::Detection d;
        d.box = obj.box;
        dets[c].push_back(d);
      }
    for (const AssociatedObject& obj : associator_->associate(dets)) {
      for (std::size_t c = 0; c < 2; ++c) {
        if (obj.det_index[c] >= 0) {
          EXPECT_LT(obj.det_index[c], static_cast<int>(dets[c].size()));
        }
      }
    }
  }
}

TEST(Associator, UntrainedNeverClaimsPresence) {
  CrossCameraAssociator assoc({{1280, 704}, {1280, 704}});
  EXPECT_FALSE(assoc.trained());
  EXPECT_FALSE(assoc.predict_present(0, 1, {100, 100, 50, 50}));
}

TEST(Associator, EmptyDetectionsYieldNoObjects) {
  CrossCameraAssociator assoc({{1280, 704}, {1280, 704}});
  const auto objects = assoc.associate({{}, {}});
  EXPECT_TRUE(objects.empty());
}

}  // namespace
}  // namespace mvs::assoc
