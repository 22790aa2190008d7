#include <gtest/gtest.h>

#include "track/flow_tracker.hpp"

namespace mvs::track {
namespace {

detect::Detection det_at(geom::BBox box, std::uint64_t truth = 1) {
  detect::Detection d;
  d.box = box;
  d.score = 0.9;
  d.truth_id = truth;
  return d;
}

vision::FlowField uniform_flow(geom::Vec2 motion, int cols = 10,
                               int rows = 10) {
  vision::FlowField field;
  field.block_size = 8;
  field.cols = cols;
  field.rows = rows;
  field.flow.assign(static_cast<std::size_t>(cols * rows), motion);
  field.residual.assign(field.flow.size(), 0.0);
  return field;
}

FlowTracker make_tracker() {
  return FlowTracker(FlowTracker::Config{}, geom::SizeClassSet{});
}

TEST(FlowTracker, ResetCreatesTracks) {
  FlowTracker tracker = make_tracker();
  tracker.reset_from_detections({det_at({10, 10, 20, 20}, 1),
                                 det_at({50, 50, 30, 30}, 2)});
  ASSERT_EQ(tracker.tracks().size(), 2u);
  EXPECT_EQ(tracker.tracks()[0].last_truth_id, 1u);
  EXPECT_NE(tracker.tracks()[0].id, tracker.tracks()[1].id);
}

TEST(FlowTracker, PredictShiftsByFlow) {
  FlowTracker tracker = make_tracker();
  tracker.reset_from_detections({det_at({16, 16, 16, 16})});
  tracker.predict(uniform_flow({2.0, 1.0}), 1.0);
  EXPECT_DOUBLE_EQ(tracker.tracks()[0].box.x, 18.0);
  EXPECT_DOUBLE_EQ(tracker.tracks()[0].box.y, 17.0);
}

TEST(FlowTracker, PredictScalesFlow) {
  FlowTracker tracker = make_tracker();
  tracker.reset_from_detections({det_at({32, 32, 32, 32})});
  // Flow computed at 1/4 resolution: motion 2 px there = 8 px logical.
  tracker.predict(uniform_flow({2.0, 0.0}), 4.0);
  EXPECT_DOUBLE_EQ(tracker.tracks()[0].box.x, 40.0);
}

TEST(FlowTracker, UpdateMatchesAndRefreshes) {
  FlowTracker tracker = make_tracker();
  tracker.reset_from_detections({det_at({10, 10, 20, 20}, 1)});
  const auto result = tracker.update({det_at({12, 11, 20, 20}, 1)});
  EXPECT_EQ(result.matched_track_ids.size(), 1u);
  EXPECT_TRUE(result.unmatched_detections.empty());
  EXPECT_DOUBLE_EQ(tracker.tracks()[0].box.x, 12.0);
  EXPECT_EQ(tracker.tracks()[0].missed, 0);
}

TEST(FlowTracker, UnmatchedDetectionReportedNotAdopted) {
  FlowTracker tracker = make_tracker();
  tracker.reset_from_detections({det_at({10, 10, 20, 20}, 1)});
  const auto result = tracker.update(
      {det_at({12, 11, 20, 20}, 1), det_at({300, 300, 20, 20}, 2)});
  ASSERT_EQ(result.unmatched_detections.size(), 1u);
  EXPECT_EQ(result.unmatched_detections[0], 1u);
  EXPECT_EQ(tracker.tracks().size(), 1u);  // scheduling decides adoption
}

TEST(FlowTracker, MissedTracksDropAfterLimit) {
  FlowTracker::Config cfg;
  cfg.max_missed = 2;
  FlowTracker tracker(cfg, geom::SizeClassSet{});
  tracker.reset_from_detections({det_at({10, 10, 20, 20}, 1)});
  tracker.update({});
  tracker.update({});
  EXPECT_EQ(tracker.tracks().size(), 1u);
  const auto result = tracker.update({});
  EXPECT_EQ(tracker.tracks().size(), 0u);
  ASSERT_EQ(result.removed_track_ids.size(), 1u);
}

TEST(FlowTracker, MissCounterResetsOnMatch) {
  FlowTracker::Config cfg;
  cfg.max_missed = 2;
  FlowTracker tracker(cfg, geom::SizeClassSet{});
  tracker.reset_from_detections({det_at({10, 10, 20, 20}, 1)});
  tracker.update({});
  tracker.update({det_at({10, 10, 20, 20}, 1)});
  tracker.update({});
  tracker.update({});
  EXPECT_EQ(tracker.tracks().size(), 1u);  // 2 misses since match, still alive
}

TEST(FlowTracker, AddRemoveTrack) {
  FlowTracker tracker = make_tracker();
  const long id = tracker.add_track(det_at({5, 5, 64, 64}, 9));
  EXPECT_TRUE(tracker.has_track(id));
  EXPECT_EQ(tracker.find(id)->size_class, 1);  // 64+margin -> class 1
  tracker.remove_track(id);
  EXPECT_FALSE(tracker.has_track(id));
}

TEST(FlowTracker, SizeClassFixedWithinHorizon) {
  FlowTracker tracker = make_tracker();
  tracker.reset_from_detections({det_at({10, 10, 20, 20}, 1)});
  const geom::SizeClassId before = tracker.tracks()[0].size_class;
  // Object grows; class must stay (downsizing handled by the detector).
  tracker.update({det_at({10, 10, 200, 200}, 1)});
  EXPECT_EQ(tracker.tracks()[0].size_class, before);
}

TEST(FlowTracker, PredictedBoxesExported) {
  FlowTracker tracker = make_tracker();
  tracker.reset_from_detections({det_at({10, 10, 20, 20}, 1)});
  const auto boxes = tracker.predicted_boxes();
  ASSERT_EQ(boxes.size(), 1u);
  EXPECT_EQ(boxes[0].first, tracker.tracks()[0].id);
}

}  // namespace
}  // namespace mvs::track
