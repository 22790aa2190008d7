#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>
#include <string>
#include <tuple>

#include "assoc/association.hpp"
#include "fleet/fleet_api.hpp"
#include "obs/obs.hpp"
#include "runtime/oracles.hpp"
#include "runtime/pipeline.hpp"
#include "runtime/trace.hpp"
#include "sim/dataset.hpp"
#include "sim/scenario.hpp"

namespace mvs::runtime {
namespace {

PipelineConfig fast_config(Policy policy, std::uint64_t seed = 5) {
  PipelineConfig cfg;
  cfg.policy = policy;
  cfg.horizon_frames = 10;
  cfg.training_frames = 120;
  cfg.seed = seed;
  return cfg;
}

TEST(Oracles, CoverageIncludesSelfAndIsSorted) {
  sim::ScenarioPlayer player(sim::make_s2(3), 60.0);
  const auto frames = player.take(120);
  assoc::CrossCameraAssociator associator({{1280, 704}, {1280, 704}});
  associator.train(frames);
  for (double x = 50; x < 1280; x += 300) {
    const auto cover = coverage_of(associator, 0, {x, 400});
    EXPECT_FALSE(cover.empty());
    EXPECT_TRUE(std::find(cover.begin(), cover.end(), 0) != cover.end());
    EXPECT_TRUE(std::is_sorted(cover.begin(), cover.end()));
  }
}

TEST(Oracles, RegionKeyDeterministic) {
  sim::ScenarioPlayer player(sim::make_s2(3), 60.0);
  const auto frames = player.take(120);
  assoc::CrossCameraAssociator associator({{1280, 704}, {1280, 704}});
  associator.train(frames);
  const auto key = [&](geom::Vec2 center) {
    return region_key_of(associator, 0, center,
                         coverage_of(associator, 0, center));
  };
  EXPECT_EQ(key({200, 300}), key({200, 300}));
  // Nearby points in the same 64-px cell share the key.
  EXPECT_EQ(key({200, 300}), key({205, 305}));
}

class PolicyRuns : public ::testing::TestWithParam<Policy> {};

TEST_P(PolicyRuns, ExecutesAndReportsSaneNumbers) {
  Pipeline pipeline("S2", fast_config(GetParam()));
  const PipelineResult result = pipeline.run(40);
  ASSERT_EQ(result.frames.size(), 40u);
  EXPECT_GE(result.object_recall, 0.0);
  EXPECT_LE(result.object_recall, 1.0);
  EXPECT_GT(result.mean_slowest_infer_ms(), 0.0);
  // Key-frame cadence: frames 0, 10, 20, 30 (except Full which has none).
  for (std::size_t f = 0; f < result.frames.size(); ++f) {
    if (GetParam() == Policy::kFull) break;
    EXPECT_EQ(result.frames[f].key_frame, f % 10 == 0);
  }
  // Per-camera latency vector matches the scenario camera count.
  EXPECT_EQ(result.frames[0].camera_infer_ms.size(), 2u);
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, PolicyRuns,
    ::testing::Values(Policy::kFull, Policy::kBalbInd, Policy::kBalbCen,
                      Policy::kBalb, Policy::kStaticPartition),
    [](const ::testing::TestParamInfo<Policy>& info) {
      std::string name = to_string(info.param);
      for (char& c : name)
        if (c == '-') c = '_';
      return name;
    });

TEST(PipelineBehaviour, FullChargesFullFrameEveryFrame) {
  Pipeline pipeline("S2", fast_config(Policy::kFull));
  const PipelineResult result = pipeline.run(10);
  for (const FrameStats& f : result.frames)
    EXPECT_DOUBLE_EQ(f.slowest_infer_ms, 280.0);  // nano full frame
}

TEST(PipelineBehaviour, BalbFasterThanFull) {
  Pipeline full("S2", fast_config(Policy::kFull));
  Pipeline balb("S2", fast_config(Policy::kBalb));
  const double full_latency = full.run(60).mean_slowest_infer_ms();
  const double balb_latency = balb.run(60).mean_slowest_infer_ms();
  EXPECT_LT(balb_latency, 0.8 * full_latency);
}

TEST(PipelineBehaviour, BalbRecallUsable) {
  Pipeline balb("S2", fast_config(Policy::kBalb));
  EXPECT_GT(balb.run(60).object_recall, 0.7);
}

TEST(PipelineBehaviour, KeyFramesChargeFullInspection) {
  Pipeline balb("S2", fast_config(Policy::kBalb));
  const PipelineResult result = balb.run(20);
  EXPECT_DOUBLE_EQ(result.frames[0].slowest_infer_ms, 280.0);
  // Regular frames must be cheaper than key frames on average.
  double regular = 0.0;
  int count = 0;
  for (const FrameStats& f : result.frames)
    if (!f.key_frame) {
      regular += f.slowest_infer_ms;
      ++count;
    }
  EXPECT_LT(regular / count, 280.0);
}

TEST(PipelineBehaviour, CentralOverheadOnlyOnKeyFrames) {
  Pipeline balb("S2", fast_config(Policy::kBalb));
  const PipelineResult result = balb.run(20);
  for (const FrameStats& f : result.frames) {
    if (!f.key_frame) {
      EXPECT_DOUBLE_EQ(f.central_ms, 0.0);
    }
  }
  EXPECT_GT(result.frames[0].central_ms, 0.0);
  EXPECT_GT(result.frames[0].comm_ms, 0.0);
}

TEST(PipelineBehaviour, TrackingOverheadOnRegularFrames) {
  Pipeline balb("S2", fast_config(Policy::kBalb));
  const PipelineResult result = balb.run(15);
  bool any_tracking = false;
  for (const FrameStats& f : result.frames)
    if (!f.key_frame && f.tracking_ms > 0.0) any_tracking = true;
  EXPECT_TRUE(any_tracking);
}

/// Compare the deterministic FrameStats fields (everything except measured
/// wall-clock overheads, which legitimately vary run to run).
void expect_deterministic_stats_equal(const PipelineResult& a,
                                      const PipelineResult& b) {
  EXPECT_DOUBLE_EQ(a.object_recall, b.object_recall);
  ASSERT_EQ(a.frames.size(), b.frames.size());
  for (std::size_t f = 0; f < a.frames.size(); ++f) {
    const FrameStats& fa = a.frames[f];
    const FrameStats& fb = b.frames[f];
    EXPECT_EQ(fa.frame, fb.frame);
    EXPECT_EQ(fa.key_frame, fb.key_frame);
    ASSERT_EQ(fa.camera_infer_ms.size(), fb.camera_infer_ms.size());
    for (std::size_t c = 0; c < fa.camera_infer_ms.size(); ++c)
      EXPECT_DOUBLE_EQ(fa.camera_infer_ms[c], fb.camera_infer_ms[c]);
    EXPECT_DOUBLE_EQ(fa.slowest_infer_ms, fb.slowest_infer_ms);
    EXPECT_DOUBLE_EQ(fa.frame_recall, fb.frame_recall);
    EXPECT_EQ(fa.gt_objects, fb.gt_objects);
    EXPECT_EQ(fa.tracked_objects, fb.tracked_objects);
    EXPECT_DOUBLE_EQ(fa.comm_ms, fb.comm_ms);
    EXPECT_DOUBLE_EQ(fa.queue_ms, fb.queue_ms);
    EXPECT_EQ(fa.retries, fb.retries);
    EXPECT_EQ(fa.dropped_msgs, fb.dropped_msgs);
    EXPECT_EQ(fa.cameras_online, fb.cameras_online);
  }
}

/// Trace events sorted into a canonical order: camera steps run concurrently,
/// so the recording order across cameras is scheduling-dependent even though
/// the event SET is deterministic.
std::vector<TraceEvent> sorted_events(const TraceRecorder& trace) {
  std::vector<TraceEvent> events = trace.events();
  std::sort(events.begin(), events.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              return std::tie(a.frame, a.camera, a.type, a.object_key,
                              a.value) < std::tie(b.frame, b.camera, b.type,
                                                  b.object_key, b.value);
            });
  return events;
}

/// Run `frames` frames of `scenario` at `threads` workers with a trace
/// attached; the trace comes back in canonical order.
std::pair<PipelineResult, std::vector<TraceEvent>> traced_run(
    const std::string& scenario, PipelineConfig cfg, int threads, int frames) {
  cfg.threads = threads;
  TraceRecorder trace;
  Pipeline pipeline(scenario, cfg);
  pipeline.attach_trace(&trace);
  PipelineResult result = pipeline.run(frames);
  return {std::move(result), sorted_events(trace)};
}

void expect_same_events(const std::vector<TraceEvent>& ea,
                        const std::vector<TraceEvent>& eb) {
  ASSERT_EQ(ea.size(), eb.size());
  for (std::size_t i = 0; i < ea.size(); ++i) {
    EXPECT_EQ(ea[i].frame, eb[i].frame);
    EXPECT_EQ(ea[i].camera, eb[i].camera);
    EXPECT_EQ(ea[i].type, eb[i].type);
    EXPECT_EQ(ea[i].object_key, eb[i].object_key);
    EXPECT_DOUBLE_EQ(ea[i].value, eb[i].value);
  }
}

TEST(PipelineBehaviour, DeterministicAcrossThreadCountsAndTiling) {
  // Same seed at threads=1 and threads=8: FrameStats and trace streams must
  // be identical. Flow rows tile over the pool on every frame; S2's two
  // cameras leave six of eight workers to take rows, while at threads=1
  // one worker and the caller share them.
  const PipelineConfig cfg = fast_config(Policy::kBalb, 21);
  const auto [ra, ea] = traced_run("S2", cfg, 1, 30);
  const auto [rb, eb] = traced_run("S2", cfg, 8, 30);
  expect_deterministic_stats_equal(ra, rb);
  expect_same_events(ea, eb);
}

TEST(PipelineBehaviour, KeyFramePlanBesideRendersDeterministic) {
  // A key frame runs its plan (association fanned out per pair, BALB, the
  // plan's round trip; BALB-Ind's tracker resets) as tile 0 of the group
  // whose other tiles render each camera and rebase its flow pyramid.
  // Forty frames cover four key frames; threads=1 and threads=8 must agree
  // on every FrameStats field and every trace event.
  sim::CityConfig city;
  city.cameras = 12;
  PipelineConfig gated = fast_config(Policy::kBalb, 31);
  gated.frame_policy.correlation_gate = true;
  gated.transport = net::TransportKind::kLossy;
  gated.faults.loss_rate = 0.1;
  gated.faults.jitter_ms = 2.0;
  gated.faults.dropouts.push_back({3, 5, 25});
  const std::vector<std::pair<std::string, PipelineConfig>> cases = {
      {"S1", fast_config(Policy::kBalb, 31)},
      {"S3", fast_config(Policy::kBalbInd, 31)},
      {"S1", fast_config(Policy::kStaticPartition, 31)},
      {sim::city_scenario_name(city), gated},
  };
  for (const auto& [scenario, cfg] : cases) {
    SCOPED_TRACE(scenario + " " + to_string(cfg.policy));
    const auto [ra, ea] = traced_run(scenario, cfg, 1, 40);
    const auto [rb, eb] = traced_run(scenario, cfg, 8, 40);
    std::size_t key_frames = 0;
    for (const FrameStats& f : ra.frames) key_frames += f.key_frame ? 1 : 0;
    EXPECT_EQ(key_frames, 4u);
    expect_deterministic_stats_equal(ra, rb);
    expect_same_events(ea, eb);
  }
}

TEST(PipelineBehaviour, CityGridDeterministicAcrossThreadCounts) {
  // Thirty cameras on four threads: every camera stage — the regular-frame
  // step and the key-frame render + pyramid rebase — fans out over more
  // cameras than workers, the shape of the paced city workload. Four
  // horizons of frames cover three key-frame rebases feeding regular frames.
  sim::CityConfig city;
  city.cameras = 30;
  PipelineConfig one = fast_config(Policy::kBalb, 17);
  one.frame_policy.kind = policy::PolicyKind::kHeuristic;
  one.frame_policy.correlation_gate = true;
  one.threads = 1;
  PipelineConfig wide = one;
  wide.threads = 4;
  const std::string name = sim::city_scenario_name(city);
  Pipeline a(name, one);
  Pipeline b(name, wide);
  const PipelineResult ra = a.run(40);
  const PipelineResult rb = b.run(40);
  ASSERT_EQ(ra.frames.front().camera_infer_ms.size(), 30u);
  expect_deterministic_stats_equal(ra, rb);
}

TEST(PipelineBehaviour, ObsDeterministicAcrossThreadCounts) {
  // With observability on, metric values and span counts must be
  // bit-identical at threads=1 and threads=8 — only durations (excluded
  // from the fingerprint) may differ. Guards against instrumentation that
  // depends on the thread schedule (e.g. last-writer-wins gauges written
  // from pool threads).
  const auto run_observed = [](int threads, std::string* fingerprint,
                               std::map<std::string, long long>* spans) {
    obs::reset();
    obs::set_enabled(true);
    PipelineConfig cfg = fast_config(Policy::kBalb, 21);
    cfg.threads = threads;
    Pipeline pipeline("S2", cfg);
    (void)pipeline.run(30);
    obs::set_enabled(false);
    *fingerprint = obs::metrics().fingerprint();
    *spans = obs::tracer().span_counts();
    obs::reset();
  };

  std::string fp_one, fp_wide;
  std::map<std::string, long long> spans_one, spans_wide;
  run_observed(1, &fp_one, &spans_one);
  run_observed(8, &fp_wide, &spans_wide);

  EXPECT_FALSE(fp_one.empty());
  EXPECT_EQ(fp_one, fp_wide);
  EXPECT_FALSE(spans_one.empty());
  EXPECT_EQ(spans_one, spans_wide);
  // The instrumented stages all fired.
  for (const char* name : {"pipeline.frame", "pipeline.camera",
                           "pipeline.tracking", "gpu.batch"})
    EXPECT_GT(spans_one.count(name), 0u) << name;
}

TEST(PipelineBehaviour, FramePolicyKindsDeterministicAcrossThreadCounts) {
  // Every detect-or-track policy kind must be bit-identical at threads=1
  // and threads=8: decide() only touches per-camera state, so the parallel
  // per-camera step may not perturb decisions or results.
  policy::PolicyConfig kinds[3];
  kinds[0].kind = policy::PolicyKind::kFixed;
  kinds[1].kind = policy::PolicyKind::kHeuristic;
  kinds[2].kind = policy::PolicyKind::kLearned;
  {
    // Minimal valid logistic model: detect when frames_since_detect >= ~2.
    policy::Model m;
    m.mean.assign(policy::kFeatureCount, 0.0);
    m.scale.assign(policy::kFeatureCount, 1.0);
    m.weights.assign(policy::kFeatureCount, 0.0);
    m.weights[0] = 2.0;
    m.bias = -3.0;
    kinds[2].model_json = policy::dump_model(m);
  }
  for (const policy::PolicyConfig& pc : kinds) {
    PipelineConfig one = fast_config(Policy::kBalb, 33);
    one.frame_policy = pc;
    one.threads = 1;
    PipelineConfig wide = one;
    wide.threads = 8;
    Pipeline a("S2", one);
    Pipeline b("S2", wide);
    const PipelineResult ra = a.run(30);
    const PipelineResult rb = b.run(30);
    expect_deterministic_stats_equal(ra, rb);
  }
}

TEST(PipelineBehaviour, FixedPolicySelectionBitIdenticalToPrePolicy) {
  // Selecting policy "fixed" (with or without feature-trace recording, with
  // paired_rng off) must reproduce the default pipeline bit-for-bit: the
  // policy layer and its recording hooks may not perturb the RNG stream,
  // the slicing, or any stat.
  const PipelineConfig base = fast_config(Policy::kBalb, 7);
  Pipeline plain("S2", base);
  const PipelineResult rp = plain.run(30);

  PipelineConfig fixed_cfg = base;
  fixed_cfg.frame_policy.kind = policy::PolicyKind::kFixed;
  EXPECT_FALSE(fixed_cfg.paired_rng) << "paired_rng must default off";
  Pipeline fixed_run("S2", fixed_cfg);
  expect_deterministic_stats_equal(rp, fixed_run.run(30));

  PipelineConfig recording = fixed_cfg;
  recording.frame_policy.feature_trace =
      ::testing::TempDir() + "/policy_trace_bitident.jsonl";
  Pipeline recorded("S2", recording);
  expect_deterministic_stats_equal(rp, recorded.run(30));
}

TEST(PipelineBehaviour, HeuristicPolicySkipsDetectionAndSavesGpu) {
  // The heuristic must actually skip regular-frame inspections: strictly
  // less GPU busy than fixed, while key frames stay untouched.
  const PipelineConfig base = fast_config(Policy::kBalb, 9);
  PipelineConfig heur = base;
  heur.frame_policy.kind = policy::PolicyKind::kHeuristic;

  Pipeline a("S2", base);
  Pipeline b("S2", heur);
  const PipelineResult ra = a.run(40);
  const PipelineResult rb = b.run(40);

  const auto busy = [](const PipelineResult& r) {
    double total = 0.0;
    for (const FrameStats& f : r.frames)
      for (double ms : f.camera_infer_ms) total += ms;
    return total;
  };
  EXPECT_LT(busy(rb), busy(ra));
  for (std::size_t i = 0; i < ra.frames.size(); ++i) {
    if (!ra.frames[i].key_frame) continue;
    EXPECT_EQ(ra.frames[i].camera_infer_ms, rb.frames[i].camera_infer_ms)
        << "key frame " << ra.frames[i].frame << " must be unaffected";
  }
}

TEST(PipelineBehaviour, RunFrameMatchesRunExactly) {
  // run_frame_ref x N must be bit-identical to run(N), and run() must keep
  // its delta semantics when mixed with stepwise calls.
  Pipeline batch("S2", fast_config(Policy::kBalb, 11));
  Pipeline step("S2", fast_config(Policy::kBalb, 11));
  const PipelineResult rb = batch.run(25);
  for (int f = 0; f < 25; ++f) step.run_frame_ref();
  expect_deterministic_stats_equal(rb, step.result());

  // A subsequent run() only reports its own frames but snapshots accumulate.
  const PipelineResult more = step.run(5);
  EXPECT_EQ(more.frames.size(), 5u);
  EXPECT_EQ(more.frames.front().frame, rb.frames.back().frame + 1);
  EXPECT_EQ(step.result().frames.size(), 30u);
}

TEST(PipelineBehaviour, FleetOfOneBitIdenticalToStandalonePipeline) {
  // A fleet hosting exactly one session (ideal transport, same seed) must
  // reproduce the standalone pipeline bit-for-bit: shared-pool execution,
  // stepwise driving, and cross-session arbitration may not perturb
  // single-session results.
  const PipelineConfig cfg = fast_config(Policy::kBalb, 5);
  Pipeline standalone("S2", cfg);
  const PipelineResult solo = standalone.run(25);

  fleet::Fleet fleet;
  fleet::SessionSpec spec;
  spec.name = "solo";
  spec.scenario = "S2";
  spec.pipeline = cfg;
  const fleet::AdmitResult admitted = fleet.admit(spec);
  ASSERT_TRUE(admitted.admitted);
  fleet.run(25);
  const PipelineResult hosted = fleet.result(admitted.handle);
  expect_deterministic_stats_equal(solo, hosted);

  // The arbiter must also charge the lone session exactly its own plan: the
  // fleet's attributed latency equals the isolated counterfactual.
  const fleet::FleetSnapshot snap = fleet.snapshot();
  ASSERT_EQ(snap.sessions.size(), 1u);
  EXPECT_DOUBLE_EQ(snap.sessions[0].mean_ms, snap.sessions[0].mean_isolated_ms);
  EXPECT_EQ(snap.shared_batches, snap.isolated_batches);
  EXPECT_DOUBLE_EQ(snap.shared_busy_ms, snap.isolated_busy_ms);
}

TEST(PipelineBehaviour, FleetOfOneWithFixedPolicyBitIdentical) {
  // Hosting a session that explicitly selects policy "fixed" must still be
  // bit-identical to the standalone default pipeline: the fleet's
  // policy-aware admission path may not perturb execution.
  const PipelineConfig plain = fast_config(Policy::kBalb, 5);
  Pipeline standalone("S2", plain);
  const PipelineResult solo = standalone.run(25);

  PipelineConfig cfg = plain;
  cfg.frame_policy.kind = policy::PolicyKind::kFixed;
  fleet::Fleet fleet;
  fleet::SessionSpec spec;
  spec.name = "solo-fixed";
  spec.scenario = "S2";
  spec.pipeline = cfg;
  const fleet::AdmitResult admitted = fleet.admit(spec);
  ASSERT_TRUE(admitted.admitted);
  fleet.run(25);
  expect_deterministic_stats_equal(solo, fleet.result(admitted.handle));
}

/// Absolute outputs of one seed-42, 40-frame run, pinned exactly. The other
/// guards compare runs with each other; these catch a change that moves
/// every run the same way (a reordered RNG draw, a lost adoption).
struct PinnedRun {
  const char* name;
  std::string scenario;
  PipelineConfig config;
  double mean_slowest_infer_ms;
  double object_recall;
  long tracked_objects;  ///< sum over frames of FrameStats::tracked_objects
  /// Trace-event counts, kKeyFrame .. kNetDrop (the types a pipeline emits).
  std::array<std::size_t, 9> events;
};

std::vector<PinnedRun> pinned_runs() {
  std::vector<PinnedRun> runs;
  const auto add = [&](const char* name, const std::string& scenario,
                       PipelineConfig cfg, double slowest, double recall,
                       long tracked, std::array<std::size_t, 9> events) {
    runs.push_back({name, scenario, cfg, slowest, recall, tracked, events});
  };
  const auto cfg = [](Policy policy) { return fast_config(policy, 42); };
  add("Full/S1", "S1", cfg(Policy::kFull), 280,
      1, 0, {0, 0, 0, 0, 0, 0, 0, 0, 0});
  add("Full/S2", "S2", cfg(Policy::kFull), 280,
      0.72499999999999998, 0, {0, 0, 0, 0, 0, 0, 0, 0, 0});
  add("Full/S3", "S3", cfg(Policy::kFull), 280,
      0.99543378995433784, 0, {0, 0, 0, 0, 0, 0, 0, 0, 0});
  add("BALB/S1", "S1", cfg(Policy::kBalb), 50.167500000000004,
      0.99331848552338531, 527, {4, 51, 9, 1, 9, 0, 0, 0, 0});
  add("BALB/S2", "S2", cfg(Policy::kBalb), 57.462499999999999,
      0.875, 75, {4, 7, 1, 1, 1, 0, 0, 0, 0});
  add("BALB/S3", "S3", cfg(Policy::kBalb), 167.56874999999999,
      0.9634703196347032, 222, {4, 21, 7, 0, 4, 0, 0, 0, 0});
  add("BALB-Ind/S1", "S1", cfg(Policy::kBalbInd), 131.52500000000001,
      1, 1588, {0, 0, 32, 0, 21, 0, 0, 0, 0});
  add("BALB-Ind/S2", "S2", cfg(Policy::kBalbInd), 65.63624999999999,
      0.61250000000000004, 62, {0, 0, 3, 0, 4, 0, 0, 0, 0});
  add("BALB-Ind/S3", "S3", cfg(Policy::kBalbInd), 190.06874999999999,
      1, 398, {0, 0, 14, 0, 8, 0, 0, 0, 0});
  add("BALB-Cen/S1", "S1", cfg(Policy::kBalbCen), 51.243750000000013,
      0.93986636971046766, 498, {4, 53, 0, 0, 5, 0, 0, 0, 0});
  add("BALB-Cen/S2", "S2", cfg(Policy::kBalbCen), 47.837499999999999,
      0.77500000000000002, 64, {4, 7, 0, 0, 1, 0, 0, 0, 0});
  add("BALB-Cen/S3", "S3", cfg(Policy::kBalbCen), 157.11250000000001,
      0.87671232876712324, 198, {4, 21, 0, 0, 3, 0, 0, 0, 0});
  add("SP/S1", "S1", cfg(Policy::kStaticPartition), 59.40437499999998,
      0.97104677060133626, 531, {4, 48, 13, 0, 7, 0, 0, 0, 0});
  add("SP/S2", "S2", cfg(Policy::kStaticPartition), 54.064999999999998,
      0.59999999999999998, 51, {4, 6, 2, 0, 2, 0, 0, 0, 0});
  add("SP/S3", "S3", cfg(Policy::kStaticPartition), 175.875,
      0.95890410958904104, 235, {4, 21, 11, 0, 4, 0, 0, 0, 0});
  // Every optional path of the camera step at once: heuristic detect-or-
  // track, the correlation gate, tight masks, and a lossy link with a
  // camera that drops out and rejoins.
  sim::CityConfig city;
  city.cameras = 6;
  city.rate_per_s = 0.08;
  PipelineConfig heur = cfg(Policy::kBalb);
  heur.frame_policy.kind = policy::PolicyKind::kHeuristic;
  heur.frame_policy.correlation_gate = true;
  heur.tight_masks = true;
  heur.transport = net::TransportKind::kLossy;
  heur.faults.loss_rate = 0.1;
  heur.faults.jitter_ms = 2.0;
  heur.faults.dropouts.push_back({1, 5, 15});
  add("BALB-heuristic/city", sim::city_scenario_name(city), heur,
      64.012500000000003, 0.81727574750830567, 265,
      {4, 27, 3, 1, 4, 1, 1, 10, 0});
  return runs;
}

TEST(PipelineReference, PinnedOutputsPerPolicy) {
  for (const PinnedRun& pin : pinned_runs()) {
    SCOPED_TRACE(pin.name);
    TraceRecorder trace;
    Pipeline pipeline(pin.scenario, pin.config);
    pipeline.attach_trace(&trace);
    const PipelineResult r = pipeline.run(40);
    long tracked = 0;
    for (const FrameStats& f : r.frames)
      tracked += static_cast<long>(f.tracked_objects);
    std::array<std::size_t, 9> events{};
    std::size_t counted = 0;
    for (std::size_t t = 0; t < events.size(); ++t) {
      events[t] = trace.count(static_cast<TraceEventType>(t));
      counted += events[t];
    }
    EXPECT_EQ(counted, trace.total()) << "a non-pipeline event type fired";
    EXPECT_EQ(r.mean_slowest_infer_ms(), pin.mean_slowest_infer_ms);
    EXPECT_EQ(r.object_recall, pin.object_recall);
    EXPECT_EQ(tracked, pin.tracked_objects);
    EXPECT_EQ(events, pin.events);
  }
}

TEST(PipelineBehaviour, DeterministicForSeed) {
  Pipeline a("S2", fast_config(Policy::kBalb, 77));
  Pipeline b("S2", fast_config(Policy::kBalb, 77));
  const PipelineResult ra = a.run(30);
  const PipelineResult rb = b.run(30);
  EXPECT_DOUBLE_EQ(ra.object_recall, rb.object_recall);
  EXPECT_DOUBLE_EQ(ra.mean_slowest_infer_ms(), rb.mean_slowest_infer_ms());
  for (std::size_t f = 0; f < ra.frames.size(); ++f)
    EXPECT_DOUBLE_EQ(ra.frames[f].slowest_infer_ms,
                     rb.frames[f].slowest_infer_ms);
}

}  // namespace
}  // namespace mvs::runtime
