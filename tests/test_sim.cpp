#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "sim/camera_model.hpp"
#include "sim/dataset.hpp"
#include "sim/occlusion.hpp"
#include "sim/scenario.hpp"
#include "sim/world.hpp"

namespace mvs::sim {
namespace {

TEST(Route, LengthAndInterpolation) {
  const Route r({{0, 0}, {10, 0}, {10, 10}}, 5.0);
  EXPECT_DOUBLE_EQ(r.length(), 20.0);
  EXPECT_DOUBLE_EQ(r.position_at(5.0).x, 5.0);
  EXPECT_DOUBLE_EQ(r.position_at(15.0).y, 5.0);
  EXPECT_DOUBLE_EQ(r.position_at(-3.0).x, 0.0);   // clamped
  EXPECT_DOUBLE_EQ(r.position_at(99.0).y, 10.0);  // clamped
}

TEST(Route, HeadingFollowsSegments) {
  const Route r({{0, 0}, {10, 0}, {10, 10}}, 5.0);
  EXPECT_DOUBLE_EQ(r.heading_at(5.0).x, 1.0);
  EXPECT_DOUBLE_EQ(r.heading_at(15.0).y, 1.0);
}

TEST(LightSchedule, TwoPhaseCycle) {
  LightSchedule lights;
  lights.green_s = 10.0;
  lights.all_red_s = 2.0;
  // Phase 0 green in [0, 10), all red [10, 12), phase 1 green [12, 22).
  EXPECT_TRUE(lights.is_green(0, 5.0));
  EXPECT_FALSE(lights.is_green(1, 5.0));
  EXPECT_FALSE(lights.is_green(0, 11.0));
  EXPECT_FALSE(lights.is_green(1, 11.0));
  EXPECT_TRUE(lights.is_green(1, 15.0));
  EXPECT_FALSE(lights.is_green(0, 15.0));
  // Cycle repeats at 24 s.
  EXPECT_TRUE(lights.is_green(0, 24.0 + 5.0));
}

TEST(LightSchedule, UncontrolledAlwaysGreen) {
  const LightSchedule lights;
  EXPECT_TRUE(lights.is_green(-1, 123.0));
}

TEST(ObjectDims, ClassesDiffer) {
  EXPECT_GT(dims_for(detect::ObjectClass::kBus).length,
            dims_for(detect::ObjectClass::kCar).length);
  EXPECT_LT(dims_for(detect::ObjectClass::kPerson).width, 1.0);
}

World simple_world(double rate = 0.5, std::uint64_t seed = 1) {
  std::vector<Route> routes;
  routes.emplace_back(std::vector<geom::Vec2>{{0, 0}, {100, 0}}, 10.0);
  return World(std::move(routes), {{0, rate, {1.0, 1.0, 1.0, 1.0}}},
               LightSchedule{}, seed);
}

TEST(World, SpawnsAndAdvances) {
  World world = simple_world(2.0);
  for (int i = 0; i < 100; ++i) world.step(0.1);
  EXPECT_GT(world.spawned_count(), 3u);
  EXPECT_FALSE(world.objects().empty());
  EXPECT_NEAR(world.time(), 10.0, 1e-9);
}

TEST(World, ObjectsDepartAtRouteEnd) {
  World world = simple_world(5.0);
  for (int i = 0; i < 3000; ++i) world.step(0.1);
  // Route is 100 m at 10 m/s: everything spawned early must be gone.
  for (const WorldObject& obj : world.objects()) EXPECT_LT(obj.s, 100.0);
}

TEST(World, NoOvertakingOnSameRoute) {
  World world = simple_world(3.0, 7);
  for (int i = 0; i < 600; ++i) {
    world.step(0.1);
    // Objects on the same route keep their arc-length order with a gap.
    std::vector<double> positions;
    for (const WorldObject& obj : world.objects())
      positions.push_back(obj.s);
    std::sort(positions.begin(), positions.end());
    for (std::size_t k = 1; k < positions.size(); ++k)
      EXPECT_GT(positions[k] - positions[k - 1], 1.0);
  }
}

TEST(World, RedLightStopsTraffic) {
  std::vector<Route> routes;
  Route r({{0, 0}, {100, 0}}, 10.0);
  r.stop_line_s = 50.0;
  r.phase_group = 1;  // phase 1 is red at t=0 with the default schedule
  routes.push_back(std::move(r));
  World world(std::move(routes), {{0, 3.0, {1, 1, 1, 1}}}, LightSchedule{}, 3);
  // During phase-0 green (first 12 s), phase-1 traffic must hold at the line.
  for (int i = 0; i < 110; ++i) world.step(0.1);
  for (const WorldObject& obj : world.objects()) EXPECT_LT(obj.s, 51.0);
}

TEST(World, UniqueMonotoneIds) {
  World world = simple_world(5.0);
  std::set<std::uint64_t> ids;
  for (int i = 0; i < 500; ++i) {
    world.step(0.1);
    for (const WorldObject& obj : world.objects()) ids.insert(obj.id);
  }
  EXPECT_EQ(ids.size(), world.spawned_count());
}

TEST(World, DeterministicForSeed) {
  World a = simple_world(1.0, 5);
  World b = simple_world(1.0, 5);
  for (int i = 0; i < 200; ++i) {
    a.step(0.1);
    b.step(0.1);
  }
  ASSERT_EQ(a.objects().size(), b.objects().size());
  for (std::size_t k = 0; k < a.objects().size(); ++k)
    EXPECT_DOUBLE_EQ(a.objects()[k].s, b.objects()[k].s);
}

CameraModel test_camera() {
  CameraModel::Config cfg;
  cfg.position = {0, 0, 6};
  cfg.yaw_deg = 0;   // looking along +x
  cfg.pitch_deg = -15;
  return CameraModel(cfg);
}

WorldObject object_at(geom::Vec2 pos, geom::Vec2 heading = {1, 0}) {
  WorldObject obj;
  obj.id = 1;
  obj.position = pos;
  obj.heading = heading;
  obj.dims = dims_for(detect::ObjectClass::kCar);
  return obj;
}

TEST(CameraModel, PointInFrontProjectsInside) {
  const CameraModel cam = test_camera();
  const auto px = cam.project({20, 0, 1});
  ASSERT_TRUE(px.has_value());
  EXPECT_GT(px->x, 0);
  EXPECT_LT(px->x, 1280);
}

TEST(CameraModel, PointBehindRejected) {
  const CameraModel cam = test_camera();
  EXPECT_FALSE(cam.project({-20, 0, 1}).has_value());
}

TEST(CameraModel, DepthRangeEnforced) {
  const CameraModel cam = test_camera();
  EXPECT_FALSE(cam.project({0.5, 0, 5.9}).has_value());   // too close
  EXPECT_FALSE(cam.project({500, 0, 1}).has_value());     // too far
}

TEST(CameraModel, CloserObjectsLookBigger) {
  const CameraModel cam = test_camera();
  const auto near = cam.observe(object_at({15, 0}));
  const auto far = cam.observe(object_at({60, 0}));
  ASSERT_TRUE(near.has_value());
  ASSERT_TRUE(far.has_value());
  EXPECT_GT(near->box.area(), 2.0 * far->box.area());
  EXPECT_LT(near->distance_m, far->distance_m);
}

TEST(CameraModel, LateralOffsetMovesBoxSideways) {
  const CameraModel cam = test_camera();
  const auto center = cam.observe(object_at({30, 0}));
  const auto left = cam.observe(object_at({30, 5}));
  ASSERT_TRUE(center.has_value());
  ASSERT_TRUE(left.has_value());
  EXPECT_NE(center->box.center().x, left->box.center().x);
}

TEST(CameraModel, ObjectOutsideFrustumInvisible) {
  const CameraModel cam = test_camera();
  EXPECT_FALSE(cam.observe(object_at({30, 200})).has_value());
  EXPECT_FALSE(cam.observe(object_at({-30, 0})).has_value());
}

TEST(CameraModel, BoxClampedToFrame) {
  const CameraModel cam = test_camera();
  const auto gt = cam.observe(object_at({8, 0}));
  if (gt.has_value()) {
    EXPECT_GE(gt->box.x, 0.0);
    EXPECT_LE(gt->box.x2(), 1280.0);
    EXPECT_LE(gt->box.y2(), 704.0);
  }
}

class ScenarioFactory : public ::testing::TestWithParam<const char*> {};

TEST_P(ScenarioFactory, WellFormed) {
  const Scenario s = make_scenario(GetParam(), 1);
  EXPECT_EQ(s.name, GetParam());
  EXPECT_FALSE(s.cameras.empty());
  ASSERT_NE(s.world, nullptr);
  EXPECT_GT(s.fps, 0.0);
}

TEST_P(ScenarioFactory, ProducesVisibleObjects) {
  ScenarioPlayer player(make_scenario(GetParam(), 1), 60.0);
  std::size_t total = 0;
  for (const MultiFrame& frame : player.take(50))
    for (const auto& cam : frame.per_camera) total += cam.size();
  EXPECT_GT(total, 20u);
}

TEST_P(ScenarioFactory, CamerasShareViews) {
  // The paper's premise: at least some objects are observed by >= 2 cameras.
  ScenarioPlayer player(make_scenario(GetParam(), 1), 60.0);
  std::size_t shared = 0;
  for (const MultiFrame& frame : player.take(100)) {
    std::map<std::uint64_t, int> seen_by;
    for (const auto& cam : frame.per_camera)
      for (const auto& gt : cam) ++seen_by[gt.id];
    for (const auto& [id, count] : seen_by)
      if (count >= 2) ++shared;
  }
  EXPECT_GT(shared, 10u);
}

INSTANTIATE_TEST_SUITE_P(Scenarios, ScenarioFactory,
                         ::testing::Values("S1", "S2", "S3"));

TEST(Scenario, HardwareMatchesTableI) {
  const Scenario s1 = make_s1(1);
  ASSERT_EQ(s1.cameras.size(), 5u);
  int xavier = 0, tx2 = 0, nano = 0;
  for (const ScenarioCamera& cam : s1.cameras) {
    xavier += cam.device.name() == "xavier";
    tx2 += cam.device.name() == "tx2";
    nano += cam.device.name() == "nano";
  }
  EXPECT_EQ(xavier, 2);
  EXPECT_EQ(tx2, 2);
  EXPECT_EQ(nano, 1);

  const Scenario s2 = make_s2(1);
  ASSERT_EQ(s2.cameras.size(), 2u);
  const Scenario s3 = make_s3(1);
  ASSERT_EQ(s3.cameras.size(), 3u);
}

TEST(Scenario, UnknownNameThrows) {
  EXPECT_THROW(make_scenario("S9", 1), std::invalid_argument);
}

TEST(ScenarioPlayer, FrameIndexAndTimeAdvance) {
  ScenarioPlayer player(make_s2(1), 10.0);
  const MultiFrame a = player.next();
  const MultiFrame b = player.next();
  EXPECT_EQ(a.frame_index, 0);
  EXPECT_EQ(b.frame_index, 1);
  EXPECT_NEAR(b.time_s - a.time_s, 0.1, 1e-9);
  EXPECT_EQ(a.per_camera.size(), 2u);
}

TEST(ScenarioPlayer, S1WorkloadVariesOverTime) {
  // The Fig. 2 phenomenon: per-camera object counts fluctuate with the
  // traffic-light cycle.
  ScenarioPlayer player(make_s1(1), 90.0);
  std::vector<std::size_t> counts;
  for (const MultiFrame& frame : player.take(300))
    counts.push_back(frame.per_camera[0].size());
  const auto [lo, hi] = std::minmax_element(counts.begin(), counts.end());
  EXPECT_GT(*hi, *lo);  // non-constant workload
}

detect::GroundTruthObject gt(std::uint64_t id, geom::BBox box, double dist) {
  detect::GroundTruthObject obj;
  obj.id = id;
  obj.box = box;
  obj.distance_m = dist;
  return obj;
}

TEST(Occlusion, CloserObjectHides) {
  const std::vector<detect::GroundTruthObject> objs = {
      gt(1, {100, 100, 50, 50}, 10.0),   // closer, big
      gt(2, {110, 110, 30, 30}, 30.0),   // fully inside 1's box, farther
  };
  const auto visible = sim::apply_occlusion(objs, {0.6, true});
  ASSERT_EQ(visible.size(), 1u);
  EXPECT_EQ(visible[0].id, 1u);
  const auto events = sim::occlusion_events(objs, {0.6, true});
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].occluded_id, 2u);
  EXPECT_EQ(events[0].occluder_id, 1u);
  EXPECT_GT(events[0].covered_fraction, 0.99);
}

TEST(Occlusion, FartherObjectCannotOcclude) {
  const std::vector<detect::GroundTruthObject> objs = {
      gt(1, {100, 100, 50, 50}, 40.0),
      gt(2, {110, 110, 30, 30}, 10.0),  // closer small object, not hidden
  };
  const auto visible = sim::apply_occlusion(objs, {0.6, true});
  EXPECT_EQ(visible.size(), 2u);
}

TEST(Occlusion, PartialOverlapBelowThresholdKept) {
  const std::vector<detect::GroundTruthObject> objs = {
      gt(1, {100, 100, 50, 50}, 10.0),
      gt(2, {140, 140, 50, 50}, 30.0),  // ~4% covered
  };
  EXPECT_EQ(sim::apply_occlusion(objs, {0.6, true}).size(), 2u);
}

TEST(Occlusion, DisabledIsIdentity) {
  const std::vector<detect::GroundTruthObject> objs = {
      gt(1, {100, 100, 50, 50}, 10.0), gt(2, {110, 110, 30, 30}, 30.0)};
  EXPECT_EQ(sim::apply_occlusion(objs, {0.6, false}).size(), 2u);
}

}  // namespace
}  // namespace mvs::sim
