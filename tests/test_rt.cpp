// mvs::rt — paced streaming-perception runtime.
//
// The contracts under test:
//   * rt-of-one: infinite budget + finish-late is bit-identical to the
//     unpaced pipeline (same frames, same recall, same schedule stats);
//   * determinism: the virtual clock never reads a real clock, so metric
//     fingerprints are byte-identical across thread counts;
//   * conservation: arrived == processed + dropped + superseded under every
//     late policy;
//   * deadline boundary: a frame EXACTLY on its budget is not a miss;
//   * the streaming scorer matches at emission time, not capture time;
//   * city scenarios and the correlation gate behave as documented.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "obs/obs.hpp"
#include "policy/correlation.hpp"
#include "rt/runner.hpp"
#include "rt/streaming_scorer.hpp"
#include "runtime/config.hpp"
#include "runtime/pipeline.hpp"
#include "runtime/trace.hpp"
#include "sim/scenario.hpp"

namespace {

using namespace mvs;

runtime::PipelineConfig small_cfg(int threads = 2) {
  runtime::PipelineConfig cfg;
  cfg.threads = threads;
  cfg.training_frames = 60;
  return cfg;
}

// ---------------------------------------------------------------- rt-of-one

TEST(RtRunner, InfiniteBudgetFinishLateMatchesUnpacedPipeline) {
  const int kFrames = 50;
  runtime::PipelineConfig cfg = small_cfg();

  runtime::Pipeline unpaced("S2", cfg);
  const runtime::PipelineResult base = unpaced.run(kFrames);

  runtime::RtConfig rtc;
  rtc.paced = true;
  rtc.deadline_ms = 0.0;  // infinite budget
  rtc.late_policy = runtime::LatePolicy::kFinishLate;
  rtc.arrival_jitter_ms = 7.0;  // jitter must not matter: nothing is dropped
  rt::RtRunner paced("S2", cfg, rtc);
  const rt::RtResult r = paced.run(kFrames);

  EXPECT_EQ(r.counters.arrived, kFrames);
  EXPECT_EQ(r.counters.processed, kFrames);
  EXPECT_EQ(r.counters.dropped, 0);
  EXPECT_EQ(r.counters.superseded, 0);
  // Bit-identical, not approximately equal.
  EXPECT_EQ(r.object_recall, base.object_recall);

  const runtime::PipelineResult paced_frames = paced.pipeline().result();
  ASSERT_EQ(paced_frames.frames.size(), base.frames.size());
  for (std::size_t f = 0; f < base.frames.size(); ++f) {
    EXPECT_EQ(paced_frames.frames[f].slowest_infer_ms,
              base.frames[f].slowest_infer_ms)
        << "frame " << f;
    EXPECT_EQ(paced_frames.frames[f].frame_recall,
              base.frames[f].frame_recall)
        << "frame " << f;
  }
}

// ------------------------------------------------------------- determinism

rt::RtResult run_paced(int threads, std::string* fingerprint) {
  obs::reset();
  obs::set_enabled(true);
  runtime::RtConfig rtc;
  rtc.paced = true;
  rtc.deadline_ms = 60.0;  // tight enough that drops/supersedes happen
  rtc.late_policy = runtime::LatePolicy::kSupersede;
  rtc.arrival_jitter_ms = 5.0;
  rt::RtRunner runner("S1", small_cfg(threads), rtc);
  const rt::RtResult r = runner.run(60);
  *fingerprint = obs::metrics().fingerprint();
  obs::set_enabled(false);
  obs::reset();
  return r;
}

TEST(RtRunner, ThreadCountDoesNotChangeScheduleOrMetrics) {
  std::string fp1, fp8;
  const rt::RtResult r1 = run_paced(1, &fp1);
  const rt::RtResult r8 = run_paced(8, &fp8);
  EXPECT_EQ(fp1, fp8);
  EXPECT_EQ(r1.streaming_recall, r8.streaming_recall);
  EXPECT_EQ(r1.object_recall, r8.object_recall);
  EXPECT_EQ(r1.makespan_ms, r8.makespan_ms);
  EXPECT_EQ(r1.counters.processed, r8.counters.processed);
  EXPECT_EQ(r1.counters.dropped, r8.counters.dropped);
  EXPECT_EQ(r1.counters.superseded, r8.counters.superseded);
  EXPECT_EQ(r1.counters.deadline_miss, r8.counters.deadline_miss);
  EXPECT_EQ(r1.counters.gpu_busy_ms, r8.counters.gpu_busy_ms);
}

// ------------------------------------------------------------ conservation

TEST(RtRunner, FrameConservationHoldsUnderEveryLatePolicy) {
  const int kFrames = 70;
  for (const runtime::LatePolicy policy :
       {runtime::LatePolicy::kDrop, runtime::LatePolicy::kSupersede,
        runtime::LatePolicy::kFinishLate}) {
    for (const double deadline : {30.0, 100.0, 0.0}) {
      runtime::RtConfig rtc;
      rtc.paced = true;
      rtc.deadline_ms = deadline;
      rtc.late_policy = policy;
      rtc.arrival_jitter_ms = 4.0;
      rt::RtRunner runner("S3", small_cfg(), rtc);
      const rt::RtResult r = runner.run(kFrames);
      EXPECT_EQ(r.counters.arrived, kFrames);
      EXPECT_EQ(r.counters.arrived, r.counters.processed +
                                        r.counters.dropped +
                                        r.counters.superseded)
          << "policy=" << runtime::to_string(policy)
          << " deadline=" << deadline;
      if (policy == runtime::LatePolicy::kFinishLate) {
        EXPECT_EQ(r.counters.dropped, 0);
        EXPECT_EQ(r.counters.superseded, 0);
      }
      if (policy == runtime::LatePolicy::kDrop) {
        EXPECT_EQ(r.counters.superseded, 0);
      }
      EXPECT_EQ(r.instants, kFrames);  // every instant is scored exactly once
    }
  }
}

// -------------------------------------------------------- deadline boundary

TEST(RtRunner, ExactlyOnTimeIsNotAMiss) {
  EXPECT_FALSE(rt::deadline_missed(100.0, 100.0));  // exactly on time
  EXPECT_TRUE(rt::deadline_missed(100.0001, 100.0));
  EXPECT_FALSE(rt::deadline_missed(99.9999, 100.0));
  // Nonpositive budget = no deadline at all.
  EXPECT_FALSE(rt::deadline_missed(1e12, 0.0));
  EXPECT_FALSE(rt::deadline_missed(1e12, -1.0));
}

// ------------------------------------------------- supersede under overload

TEST(RtRunner, SupersedeShedsWorkAndBoundsLagUnderOverload) {
  // A 5 ms period is far below any achievable service time: the queue grows
  // without bound under finish-late, while newest-wins sheds the backlog.
  const int kFrames = 80;
  runtime::RtConfig base;
  base.paced = true;
  base.frame_period_ms = 5.0;
  base.deadline_ms = 100.0;

  runtime::RtConfig fin = base;
  fin.late_policy = runtime::LatePolicy::kFinishLate;
  rt::RtRunner finish_late("S2", small_cfg(), fin);
  const rt::RtResult rf = finish_late.run(kFrames);

  runtime::RtConfig sup = base;
  sup.late_policy = runtime::LatePolicy::kSupersede;
  rt::RtRunner supersede("S2", small_cfg(), sup);
  const rt::RtResult rs = supersede.run(kFrames);

  EXPECT_GT(rs.counters.superseded, 0);
  EXPECT_LT(rs.counters.processed, rf.counters.processed);
  // Shedding the backlog finishes the run sooner: finish-late must serve
  // every stale frame, newest-wins skips them in O(1) virtual time.
  EXPECT_LT(rs.makespan_ms, rf.makespan_ms);
  // Conservation still holds with most frames superseded.
  EXPECT_EQ(rs.counters.arrived, rs.counters.processed +
                                     rs.counters.dropped +
                                     rs.counters.superseded);
}

TEST(RtRunner, TraceRecordsRtEvents) {
  runtime::TraceRecorder trace;
  runtime::RtConfig rtc;
  rtc.paced = true;
  rtc.frame_period_ms = 5.0;  // overload
  rtc.deadline_ms = 50.0;
  rtc.late_policy = runtime::LatePolicy::kSupersede;
  rt::RtRunner runner("S2", small_cfg(), rtc);
  runner.attach_trace(&trace);
  const rt::RtResult r = runner.run(60);
  EXPECT_EQ(trace.count(runtime::TraceEventType::kRtSupersede),
            static_cast<std::size_t>(r.counters.superseded));
  EXPECT_EQ(trace.count(runtime::TraceEventType::kRtDrop),
            static_cast<std::size_t>(r.counters.dropped));
  EXPECT_GT(trace.count(runtime::TraceEventType::kRtDeadlineMiss) +
                trace.count(runtime::TraceEventType::kRtDrop),
            0u);
}

// --------------------------------------------------------- streaming scorer

TEST(StreamingScorer, MatchesAtEmissionTimeNotCaptureTime) {
  rt::StreamingScorer scorer(/*cameras=*/1, /*iou=*/0.4);
  const geom::BBox box_a{10, 10, 20, 20};
  const geom::BBox box_b{200, 200, 20, 20};
  std::vector<std::vector<detect::GroundTruthObject>> gt_a(1), gt_b(1);
  gt_a[0].push_back({1, box_a, detect::ObjectClass::kCar, 10.0});
  gt_b[0].push_back({1, box_b, detect::ObjectClass::kCar, 10.0});

  // No emission yet: everything is a miss.
  EXPECT_EQ(scorer.score_instant(0.0, gt_a), 0.0);

  // Result for t=0 emitted at t=5; by t=10 it is adopted and still matches
  // (object has not moved).
  std::vector<std::vector<geom::BBox>> reported(1);
  reported[0] = {box_a};
  scorer.note_emission(5.0, 0.0, reported);
  EXPECT_EQ(scorer.score_instant(10.0, gt_a), 1.0);

  // The world moved to B, but the freshest emission still says A: streaming
  // scoring charges the stale answer as a miss.
  EXPECT_EQ(scorer.score_instant(20.0, gt_b), 0.0);

  // A fresh emission lands exactly AT the next instant: emit <= t is
  // inclusive, so it is adopted there.
  reported[0] = {box_b};
  scorer.note_emission(30.0, 28.0, reported);
  EXPECT_EQ(scorer.score_instant(30.0, gt_b), 1.0);

  // An emission from the future (emit 50 > t 40) must NOT be visible early.
  reported[0] = {box_a};
  scorer.note_emission(50.0, 45.0, reported);
  EXPECT_EQ(scorer.score_instant(40.0, gt_b), 1.0);  // still the t=30 answer

  EXPECT_EQ(scorer.instants(), 5);
  EXPECT_EQ(scorer.emissions(), 3u);
  // 3 hits out of 5 sampled objects.
  EXPECT_DOUBLE_EQ(scorer.streaming_recall(), 3.0 / 5.0);
}

TEST(StreamingScorer, LagIsAgeOfAdoptedEmission) {
  rt::StreamingScorer scorer(1, 0.4);
  std::vector<std::vector<detect::GroundTruthObject>> gt(1);
  std::vector<std::vector<geom::BBox>> reported(1);
  scorer.note_emission(/*emit=*/8.0, /*capture=*/0.0, reported);
  scorer.score_instant(10.0, gt);  // lag = 10 - 0
  scorer.score_instant(20.0, gt);  // lag = 20 - 0 (still the same emission)
  EXPECT_DOUBLE_EQ(scorer.lag_ms().mean(), 15.0);
  EXPECT_DOUBLE_EQ(scorer.lag_ms().max(), 20.0);
}

// ------------------------------------------------------------ city scenario

TEST(CityScenario, NameRoundTripsAndFactoryBuilds) {
  sim::CityConfig cc;
  cc.cameras = 12;
  cc.block_m = 70.0;
  cc.rate_per_s = 0.05;
  cc.flash_at_s = 20.0;
  cc.flash_multiplier = 3.0;
  cc.day_night = true;
  const std::string name = sim::city_scenario_name(cc);
  const auto parsed = sim::parse_city_name(name);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->cameras, cc.cameras);
  EXPECT_EQ(parsed->block_m, cc.block_m);
  EXPECT_EQ(parsed->rate_per_s, cc.rate_per_s);
  EXPECT_EQ(parsed->flash_at_s, cc.flash_at_s);
  EXPECT_EQ(parsed->flash_multiplier, cc.flash_multiplier);
  EXPECT_EQ(parsed->day_night, cc.day_night);
  // Canonical: re-encoding the parse yields the same name.
  EXPECT_EQ(sim::city_scenario_name(*parsed), name);

  const sim::Scenario s = sim::make_scenario(name, 7);
  EXPECT_EQ(s.cameras.size(), 12u);
  EXPECT_TRUE(s.quality.enabled);
  EXPECT_GT(s.warmup_s, 0.0);
}

/// City names that each move one field of a 4-camera grid to a bound of
/// the config's "city" block, paired with whether that block accepts the
/// value: nan and +-inf in every field, and each range's edges.
std::vector<std::pair<std::string, bool>> city_edge_names() {
  using sim::CityConfig;
  std::vector<std::pair<std::string, bool>> names;
  const auto add = [&](auto field, auto value, bool valid) {
    CityConfig c;
    c.cameras = 4;
    c.*field = value;
    names.emplace_back(sim::city_scenario_name(c), valid);
  };
  const double kNan = std::nan("");
  const double kInf = std::numeric_limits<double>::infinity();
  for (const auto field :
       {&CityConfig::block_m, &CityConfig::rate_per_s,
        &CityConfig::camera_depth_m, &CityConfig::flash_at_s,
        &CityConfig::flash_duration_s, &CityConfig::flash_multiplier,
        &CityConfig::night_period_s, &CityConfig::night_miss_boost})
    for (const double value : {kNan, kInf, -kInf}) add(field, value, false);
  add(&CityConfig::cameras, 0, false);
  add(&CityConfig::cameras, 1, true);
  add(&CityConfig::cameras, 1000, true);
  add(&CityConfig::cameras, 1001, false);
  add(&CityConfig::block_m, 0.0, false);
  add(&CityConfig::block_m, 1e-9, true);
  add(&CityConfig::rate_per_s, -1e-9, false);
  add(&CityConfig::rate_per_s, 0.0, true);
  add(&CityConfig::camera_depth_m, 0.0, false);
  add(&CityConfig::camera_depth_m, 1e-9, true);
  add(&CityConfig::flash_at_s, -5.0, true);
  add(&CityConfig::flash_duration_s, 0.0, false);
  add(&CityConfig::flash_duration_s, 1e-9, true);
  add(&CityConfig::flash_multiplier, 0.0, false);
  add(&CityConfig::flash_multiplier, 1e-9, true);
  add(&CityConfig::night_period_s, 0.0, false);
  add(&CityConfig::night_period_s, 1e-9, true);
  add(&CityConfig::night_miss_boost, -1e-9, false);
  add(&CityConfig::night_miss_boost, 0.0, true);
  add(&CityConfig::night_miss_boost, 1.0, true);
  add(&CityConfig::night_miss_boost, 1.0 + 1e-9, false);
  return names;
}

TEST(CityScenario, BareNameYieldsDefaults) {
  const auto parsed = sim::parse_city_name("city");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->cameras, 50);
  EXPECT_FALSE(sim::parse_city_name("S1").has_value());
  EXPECT_FALSE(sim::parse_city_name("city:bogus").has_value());
  const std::string tail =
      ";block=120;rate=0.01;depth=60;flash=0,5,1;night=0,10,0";
  const auto four = sim::parse_city_name("city:cams=4" + tail);
  ASSERT_TRUE(four.has_value());
  EXPECT_EQ(four->cameras, 4);
  // 2^32 + 1 must not wrap to a 1-camera grid; trailing text is not ignored.
  EXPECT_FALSE(sim::parse_city_name("city:cams=4294967297" + tail).has_value());
  EXPECT_FALSE(sim::parse_city_name("city:cams=4" + tail + ";zzz").has_value());
  EXPECT_FALSE(sim::parse_city_name("city:cams=" + tail).has_value());
  for (const auto& [name, valid] : city_edge_names())
    EXPECT_EQ(sim::parse_city_name(name).has_value(), valid) << name;
}

TEST(CityScenario, NameParserAgreesWithTheConfigBlock) {
  for (const auto& [name, valid] : city_edge_names()) {
    runtime::RunConfig config;
    config.scenario = name;
    EXPECT_EQ(sim::parse_city_name(name).has_value(),
              runtime::validate(config))
        << name;
  }
}

TEST(CityScenario, FlashCrowdMultipliesArrivalRate) {
  sim::CityConfig cc;
  cc.cameras = 4;
  cc.flash_at_s = 10.0;
  cc.flash_duration_s = 5.0;
  cc.flash_multiplier = 4.0;
  const sim::Scenario s = sim::make_city(cc, 11);
  ASSERT_TRUE(s.world != nullptr);
  const double t0 = s.warmup_s + 10.0 + 1.0;  // inside the burst
  EXPECT_DOUBLE_EQ(s.world->rate_multiplier(t0), 4.0);
  EXPECT_DOUBLE_EQ(s.world->rate_multiplier(s.warmup_s + 9.0), 1.0);
  EXPECT_DOUBLE_EQ(s.world->rate_multiplier(s.warmup_s + 16.0), 1.0);
}

TEST(CityScenario, DayNightSquareWave) {
  sim::QualitySchedule q;
  q.enabled = true;
  q.period_s = 120.0;
  EXPECT_FALSE(q.is_night(0.0));
  EXPECT_FALSE(q.is_night(119.0));
  EXPECT_TRUE(q.is_night(120.0));
  EXPECT_TRUE(q.is_night(239.0));
  EXPECT_FALSE(q.is_night(240.0));  // next day
}

TEST(CityScenario, PacedCityRunProcessesFrames) {
  sim::CityConfig cc;
  cc.cameras = 9;
  const std::string name = sim::city_scenario_name(cc);
  runtime::PipelineConfig cfg = small_cfg();
  cfg.policy = runtime::Policy::kBalbInd;  // no O(C^2) central stage
  cfg.training_frames = 40;
  runtime::RtConfig rtc;
  rtc.paced = true;
  rtc.deadline_ms = 150.0;
  rt::RtRunner runner(name, cfg, rtc);
  EXPECT_EQ(runner.pipeline().camera_count(), 9u);
  const rt::RtResult r = runner.run(40);
  EXPECT_EQ(r.counters.arrived, 40);
  EXPECT_GT(r.counters.processed, 0);
  EXPECT_GE(r.streaming_recall, 0.0);
  EXPECT_LE(r.streaming_recall, 1.0);
}

// --------------------------------------------------------- correlation gate

TEST(CorrelationGate, LearnsEntryAndReachabilityFromSightings) {
  policy::CorrelationGateConfig gc;
  gc.enabled = true;
  gc.threshold = 0.5;
  gc.window = 10;
  gc.hold = 0;  // no warm-start window: gating bites on the first refresh
  policy::CorrelationGate gate(gc, 4);
  EXPECT_FALSE(gate.fitted());
  EXPECT_TRUE(gate.hot(3));  // conservative before fit

  // Object 1: camera 0 (frame 1) -> camera 1 (frame 6, within the window).
  // Object 2: camera 2 (frame 1) -> camera 3 (frame 51, OUTSIDE the window).
  // (Frame-0 sightings would not mark entries: warmup leftovers are
  // excluded from entry learning.)
  std::vector<policy::CameraSightings> frames(60);
  for (auto& f : frames) f.assign(4, {});
  frames[1][0] = {1};
  frames[6][1] = {1};
  frames[1][2] = {2};
  frames[51][3] = {2};
  gate.fit(frames);
  ASSERT_TRUE(gate.fitted());

  EXPECT_TRUE(gate.entry(0));   // object 1 entered here
  EXPECT_TRUE(gate.entry(2));   // object 2 entered here
  EXPECT_FALSE(gate.entry(1));
  EXPECT_FALSE(gate.entry(3));
  EXPECT_TRUE(gate.reachable(0, 1));
  EXPECT_FALSE(gate.reachable(2, 3));  // transition fell outside the window
  EXPECT_FALSE(gate.reachable(1, 0));

  // Activity only in camera 0: cameras 0 (active+entry), 1 (reachable) and
  // 2 (entry) are hot; camera 3 has no reason to run.
  gate.refresh({1, 0, 0, 0});
  EXPECT_TRUE(gate.hot(0));
  EXPECT_TRUE(gate.hot(1));
  EXPECT_TRUE(gate.hot(2));
  EXPECT_FALSE(gate.hot(3));
}

TEST(CorrelationGate, HoldKeepsCameraWarmAfterActivityEnds) {
  policy::CorrelationGateConfig gc;
  gc.enabled = true;
  gc.threshold = 0.5;
  gc.window = 10;
  gc.hold = 2;
  policy::CorrelationGate gate(gc, 2);
  std::vector<policy::CameraSightings> frames(20);
  for (auto& f : frames) f.assign(2, {});
  frames[1][0] = {1};
  frames[4][1] = {1};
  gate.fit(frames);

  gate.refresh({1, 0});
  EXPECT_TRUE(gate.hot(1));  // reachable from active camera 0
  gate.refresh({0, 0});
  EXPECT_TRUE(gate.hot(1));  // hold still counting down
  gate.refresh({0, 0});
  EXPECT_TRUE(gate.hot(1));
  gate.refresh({0, 0});
  EXPECT_FALSE(gate.hot(1));  // hold expired
}

TEST(CorrelationGate, NoEvidenceCameraStaysHot) {
  policy::CorrelationGateConfig gc;
  gc.enabled = true;
  policy::CorrelationGate gate(gc, 2);
  std::vector<policy::CameraSightings> frames(5);
  for (auto& f : frames) f.assign(2, {});
  frames[0][0] = {1};  // camera 1 never sees anything during training
  gate.fit(frames);
  gate.refresh({0, 0});
  EXPECT_TRUE(gate.hot(1)) << "no evidence -> never prune";
}

// Gating must only ever REMOVE work, and the default stays bit-identical.
TEST(CorrelationGate, GatedPipelineCutsGpuTimeOnCityGrid) {
  sim::CityConfig cc;
  cc.cameras = 9;
  const std::string name = sim::city_scenario_name(cc);
  runtime::PipelineConfig cfg = small_cfg();
  cfg.policy = runtime::Policy::kBalbInd;
  cfg.training_frames = 60;

  runtime::Pipeline plain(name, cfg);
  const runtime::PipelineResult base = plain.run(40);

  runtime::PipelineConfig gated_cfg = cfg;
  gated_cfg.frame_policy.correlation_gate = true;
  // Short hold: the post-fit warm-start window (one hold) must expire well
  // inside the 40-frame run for gating to shed any work.
  gated_cfg.frame_policy.gate_hold = 4;
  runtime::Pipeline gated(name, gated_cfg);
  const runtime::PipelineResult cut = gated.run(40);

  double base_gpu = 0.0, cut_gpu = 0.0;
  for (const runtime::FrameStats& f : base.frames)
    for (double v : f.camera_infer_ms) base_gpu += v;
  for (const runtime::FrameStats& f : cut.frames)
    for (double v : f.camera_infer_ms) cut_gpu += v;
  EXPECT_LT(cut_gpu, base_gpu);
}

}  // namespace
