// Failure-injection and degraded-input robustness: the system must stay
// well-behaved (no crashes, graceful metric degradation, parseable output)
// when its inputs are much worse than the calibrated defaults.

#include <gtest/gtest.h>

#include "assoc/association.hpp"
#include "detect/simulated_detector.hpp"
#include "net/messages.hpp"
#include "runtime/pipeline.hpp"
#include "sim/dataset.hpp"
#include "sim/scenario.hpp"
#include "util/rng.hpp"

namespace mvs {
namespace {

TEST(Robustness, DetectorWithSevereMissRateStillRuns) {
  detect::SimulatedDetector::Config cfg;
  cfg.base_miss_rate = 0.6;  // detector misses most objects
  detect::SimulatedDetector detector(cfg);
  util::Rng rng(1);
  detect::GroundTruthObject obj;
  obj.id = 1;
  obj.box = {100, 100, 60, 60};
  int hits = 0;
  for (int t = 0; t < 200; ++t)
    for (const auto& d : detector.detect_full({obj}, 1280, 704, rng))
      hits += d.truth_id == 1;
  EXPECT_GT(hits, 20);   // still detects sometimes
  EXPECT_LT(hits, 140);  // but clearly degraded
}

TEST(Robustness, AssociatorWithTinyTrainingSetIsSafe) {
  sim::ScenarioPlayer player(sim::make_s2(9), 60.0);
  const auto tiny = player.take(3);  // nearly no supervision
  assoc::CrossCameraAssociator associator({{1280, 704}, {1280, 704}});
  associator.train(tiny);
  EXPECT_TRUE(associator.trained());
  // Association of arbitrary detections must not crash nor lose boxes.
  std::vector<std::vector<detect::Detection>> dets(2);
  detect::Detection d;
  d.box = {400, 300, 50, 40};
  dets[0].push_back(d);
  dets[1].push_back(d);
  const auto objects = associator.associate(dets);
  std::size_t accounted = 0;
  for (const auto& obj : objects)
    for (int det_index : obj.det_index) accounted += (det_index >= 0);
  EXPECT_EQ(accounted, 2u);
}

TEST(Robustness, PipelineSurvivesVeryShortTrainingSplit) {
  runtime::PipelineConfig cfg;
  cfg.policy = runtime::Policy::kBalb;
  cfg.horizon_frames = 10;
  cfg.training_frames = 5;  // association models nearly untrained
  cfg.seed = 2;
  runtime::Pipeline pipeline("S2", cfg);
  const auto result = pipeline.run(30);
  EXPECT_EQ(result.frames.size(), 30u);
  EXPECT_GE(result.object_recall, 0.0);  // degraded but defined
}

TEST(Robustness, PipelineSurvivesHorizonOfOne) {
  // T = 1: every frame is a key frame; the distributed stage never runs.
  runtime::PipelineConfig cfg;
  cfg.policy = runtime::Policy::kBalb;
  cfg.horizon_frames = 1;
  cfg.training_frames = 80;
  cfg.seed = 3;
  runtime::Pipeline pipeline("S2", cfg);
  const auto result = pipeline.run(12);
  for (const auto& frame : result.frames) EXPECT_TRUE(frame.key_frame);
  // All-key-frames means Full-like latency on the slowest device.
  EXPECT_NEAR(result.mean_slowest_infer_ms(), 280.0, 1e-9);
  EXPECT_GT(result.object_recall, 0.8);
}

TEST(Robustness, MessageDecoderSurvivesRandomBytes) {
  util::Rng rng(4);
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<std::uint8_t> junk(rng.index(200) + 1);
    for (auto& b : junk)
      b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    // Must never crash; may occasionally parse tiny degenerate messages.
    (void)net::DetectionListMsg::decode(junk);
    (void)net::AssignmentMsg::decode(junk);
  }
  SUCCEED();
}

TEST(Robustness, OcclusionHeavySceneStillTracked) {
  // Occlusion enabled on the busiest scenario: recall drops only modestly
  // versus the occlusion-free ground truth (objects reappear and the
  // tracker re-acquires them via new-region detection).
  sim::Scenario scenario = sim::make_s3(6);
  scenario.occlusion.enabled = true;
  sim::ScenarioPlayer player(std::move(scenario), 60.0);
  std::size_t visible = 0;
  for (int f = 0; f < 50; ++f)
    for (const auto& cam : player.next().per_camera) visible += cam.size();
  EXPECT_GT(visible, 50u);  // the scene does not collapse
}

TEST(Robustness, ZeroTrafficScenarioIsHandled) {
  // A world with no arrivals: recall is vacuous (1.0) and latency is just
  // the key-frame cost.
  runtime::PipelineConfig cfg;
  cfg.policy = runtime::Policy::kBalb;
  cfg.horizon_frames = 10;
  cfg.training_frames = 30;
  cfg.seed = 977;  // any seed; S2 is sparse enough to hit empty frames
  runtime::Pipeline pipeline("S2", cfg);
  const auto result = pipeline.run(20);
  for (const auto& frame : result.frames) {
    if (frame.gt_objects == 0) {
      EXPECT_DOUBLE_EQ(frame.frame_recall, 1.0);
    }
  }
}

}  // namespace
}  // namespace mvs
