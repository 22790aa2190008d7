// Cross-module integration tests: the full pipeline under stress conditions
// (occlusion injection, horizon sweeps, policy invariants on every
// scenario).

#include <gtest/gtest.h>

#include "runtime/config.hpp"
#include "runtime/pipeline.hpp"
#include "sim/dataset.hpp"
#include "sim/scenario.hpp"

namespace mvs {
namespace {

runtime::PipelineConfig quick(runtime::Policy policy, int horizon = 10) {
  runtime::PipelineConfig cfg;
  cfg.policy = policy;
  cfg.horizon_frames = horizon;
  cfg.training_frames = 120;
  cfg.seed = 3;
  return cfg;
}

class ScenarioPolicyMatrix
    : public ::testing::TestWithParam<std::tuple<const char*, runtime::Policy>> {
};

TEST_P(ScenarioPolicyMatrix, RunsWithSaneInvariants) {
  const auto& [scenario, policy] = GetParam();
  runtime::Pipeline pipeline(scenario, quick(policy));
  const auto result = pipeline.run(30);
  ASSERT_EQ(result.frames.size(), 30u);
  EXPECT_GT(result.object_recall, 0.5);
  for (const auto& frame : result.frames) {
    EXPECT_GE(frame.slowest_infer_ms, 0.0);
    for (double v : frame.camera_infer_ms) {
      EXPECT_GE(v, 0.0);
      EXPECT_LE(v, 300.0);  // never exceeds the slowest full frame
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, ScenarioPolicyMatrix,
    ::testing::Combine(::testing::Values("S1", "S3"),
                       ::testing::Values(runtime::Policy::kFull,
                                         runtime::Policy::kBalbInd,
                                         runtime::Policy::kBalb,
                                         runtime::Policy::kStaticPartition)),
    [](const auto& info) {
      std::string name = std::get<0>(info.param);
      name += "_";
      name += runtime::to_string(std::get<1>(info.param));
      for (char& c : name)
        if (c == '-') c = '_';
      return name;
    });

TEST(Integration, HorizonSweepTradeoffDirection) {
  // Longer horizons must not get slower; the recall at T=2 must be at least
  // that of T=40 (the Fig. 14 monotone ends).
  double latency_t2 = 0.0, latency_t40 = 0.0;
  double recall_t2 = 0.0, recall_t40 = 0.0;
  {
    runtime::Pipeline p("S2", quick(runtime::Policy::kBalb, 2));
    const auto r = p.run(80);
    latency_t2 = r.mean_slowest_infer_ms();
    recall_t2 = r.object_recall;
  }
  {
    runtime::Pipeline p("S2", quick(runtime::Policy::kBalb, 40));
    const auto r = p.run(80);
    latency_t40 = r.mean_slowest_infer_ms();
    recall_t40 = r.object_recall;
  }
  EXPECT_LT(latency_t40, latency_t2);
  EXPECT_GE(recall_t2, recall_t40 - 0.02);
}

TEST(Integration, OcclusionReducesVisibleGroundTruth) {
  sim::Scenario with = sim::make_s3(5);
  with.occlusion.enabled = true;
  sim::Scenario without = sim::make_s3(5);

  sim::ScenarioPlayer player_with(std::move(with), 60.0);
  sim::ScenarioPlayer player_without(std::move(without), 60.0);
  std::size_t n_with = 0, n_without = 0;
  for (int f = 0; f < 100; ++f) {
    for (const auto& cam : player_with.next().per_camera) n_with += cam.size();
    for (const auto& cam : player_without.next().per_camera)
      n_without += cam.size();
  }
  EXPECT_LT(n_with, n_without);
  EXPECT_GT(n_with, n_without / 2);  // occlusion thins, not empties
}

TEST(Integration, ConfigDrivenRunMatchesDirectRun) {
  const std::string text = R"({
    "scenario": "S2", "frames": 20,
    "pipeline": {"policy": "balb-ind", "horizon_frames": 10,
                 "training_frames": 100, "seed": 12}
  })";
  const auto config = runtime::parse_run_config(text);
  ASSERT_TRUE(config.has_value());
  runtime::Pipeline from_config(config->scenario, config->pipeline);
  const auto a = from_config.run(config->frames);

  runtime::PipelineConfig direct;
  direct.policy = runtime::Policy::kBalbInd;
  direct.horizon_frames = 10;
  direct.training_frames = 100;
  direct.seed = 12;
  runtime::Pipeline manual("S2", direct);
  const auto b = manual.run(20);

  EXPECT_DOUBLE_EQ(a.object_recall, b.object_recall);
  EXPECT_DOUBLE_EQ(a.mean_slowest_infer_ms(), b.mean_slowest_infer_ms());
}

TEST(Integration, ParallelCamerasDeterministic) {
  // The per-camera thread pool must not perturb results across runs.
  runtime::Pipeline a("S1", quick(runtime::Policy::kBalb));
  runtime::Pipeline b("S1", quick(runtime::Policy::kBalb));
  const auto ra = a.run(25);
  const auto rb = b.run(25);
  ASSERT_EQ(ra.frames.size(), rb.frames.size());
  for (std::size_t f = 0; f < ra.frames.size(); ++f) {
    ASSERT_EQ(ra.frames[f].camera_infer_ms.size(),
              rb.frames[f].camera_infer_ms.size());
    for (std::size_t c = 0; c < ra.frames[f].camera_infer_ms.size(); ++c)
      EXPECT_DOUBLE_EQ(ra.frames[f].camera_infer_ms[c],
                       rb.frames[f].camera_infer_ms[c]);
  }
  EXPECT_DOUBLE_EQ(ra.object_recall, rb.object_recall);
}

}  // namespace
}  // namespace mvs
