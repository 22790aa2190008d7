// mvs_perfbench: the benchmark of record (perfbench/README.md defines every
// workload and metric). One process runs one workload for about --seconds of
// wall time and prints each metric of BENCHMARK.json by name and unit; the
// last stdout line is the JSON result. perfbench/run.py builds this binary
// and is the entry point.
//
//   mvs_perfbench --workload s1-pipeline --seed 42 --seconds 10 --trace 0
//
// A run repeats EPISODES: build the system (timed as set-up), run
// kWarmupSteps untimed steps, then a fixed number of timed steps, one call at
// a time (closed loop). Episodes cycle through a fixed set of seeds derived
// from --seed, and a repeated seed must reproduce its simulated outputs
// exactly. With --trace 1 the cycle runs once more with obs spans on and the
// per-layer ledger is read back from it. Layers are timed from outside: the
// spans this file opens wrap the public calls it makes, and everything else
// is read from what those calls return.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "fleet/fleet_api.hpp"
#include "obs/obs.hpp"
#include "rt/runner.hpp"
#include "runtime/pipeline.hpp"
#include "sim/scenario.hpp"
#include "util/thread_pool.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace mvs;
using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Seed whose simulated outputs are pinned in references().
constexpr std::uint64_t kDefaultSeed = 42;
/// Untimed steps at the start of every episode: one scheduling horizon, so
/// the first key frame, first-touch allocations and tracker start-up never
/// reach the step-time samples.
constexpr int kWarmupSteps = 10;
/// The step-time tail. With 10-frame horizons every tenth step is a key
/// frame; where key frames are the slow tenth, p90 sits on the boundary of
/// the two modes and jumps between them, while p95 stays inside one.
constexpr double kTailPercentile = 95.0;
/// Samples a run needs so that at least ten lie beyond kTailPercentile.
constexpr std::size_t kMinTimedSteps = 200;
/// Episodes whose set-ups and rates a run's medians are taken over.
constexpr std::size_t kMinStatEpisodes = 5;
/// Relative tolerance when comparing with the pinned reference values.
constexpr double kReferenceRtol = 1e-9;
/// Attribution segments must sum to the frame total within this (ms).
constexpr double kConservationTolMs = 1e-6;

// ---------------------------------------------------------------------------
// One episode.

/// Simulated outputs of one episode: equal for equal seeds at any pool width,
/// with or without tracing.
struct Outcome {
  double recall = 0.0;
  double sim_latency_ms = 0.0;
  long attempted = 0;  ///< frames that had a latency limit to meet
  long missed = 0;     ///< ... and missed it (or were never served)
  std::vector<std::pair<std::string, double>> counts;  ///< per-layer counts

  double miss_frac() const {
    return attempted > 0 ? static_cast<double>(missed) / attempted : 0.0;
  }
  void count(const std::string& name, double value) {
    counts.emplace_back(name, value);
  }
  double get(const std::string& name) const {
    for (const auto& [k, v] : counts)
      if (k == name) return v;
    return 0.0;
  }
  bool operator==(const Outcome& o) const {
    return recall == o.recall && sim_latency_ms == o.sim_latency_ms &&
           attempted == o.attempted && missed == o.missed &&
           counts == o.counts;
  }
};

struct Episode {
  double setup_s = 0.0;
  long steps = 0;               ///< step calls, warm-up included
  std::vector<double> step_ms;  ///< timed steps only
  double timed_frames = 0.0;    ///< frames served during the timed steps
  Outcome out;
  std::map<std::string, double> walls;  ///< per-layer wall-clock means
  std::vector<std::string> errors;      ///< failed output checks
  long checks = 0;                      ///< output checks made
  // Traced episodes only: the spans of the timed steps.
  std::vector<obs::SpanEvent> spans;
  std::uint64_t t0_us = 0, t1_us = 0;
  double net_messages = 0.0, net_retries = 0.0;  ///< obs counters
  double steal_frac = -1.0;  ///< share of CPU time stolen (-1: unknown)

  double timed_ms() const {
    double s = 0.0;
    for (double v : step_ms) s += v;
    return s;
  }
  void check(bool ok, const std::string& what) {
    ++checks;
    if (!ok) errors.push_back(what);
  }
};

bool close_rel(double a, double b, double rtol, double atol = 1e-9) {
  return std::fabs(a - b) <= atol + rtol * std::max(std::fabs(a), std::fabs(b));
}

/// Runs the warm-up and timed steps of an episode. Each step is one public
/// call wrapped in a span named after it; with tracing on, the tracer is
/// cleared when timing starts and read back when it ends.
class StepLoop {
 public:
  StepLoop(Episode& ep, bool traced) : ep_(ep), traced_(traced) {}

  template <typename Fn>
  void warmup(const char* span, Fn&& step) {
    for (int i = 0; i < kWarmupSteps; ++i) {
      obs::Span s(span);
      step();
      ++ep_.steps;
    }
  }

  template <typename Fn>
  void timed(const char* span, int n, Fn&& step) {
    if (traced_) {
      obs::tracer().reset();
      ep_.t0_us = obs::tracer().now_us();
    }
    ep_.step_ms.reserve(ep_.step_ms.size() + static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      const auto t0 = Clock::now();
      {
        obs::Span s(span);
        step();
      }
      ep_.step_ms.push_back(ms_between(t0, Clock::now()));
      ++ep_.steps;
    }
    if (traced_) {
      ep_.t1_us = obs::tracer().now_us();
      ep_.spans = obs::tracer().collect();
    }
  }

 private:
  Episode& ep_;
  bool traced_;
};

/// Per-frame pipeline statistics folded over an episode. Simulated values
/// cover every frame; measured walls only the timed ones.
struct FrameTally {
  long frames = 0, misses = 0, tracked = 0, tasks = 0, full_frames = 0;
  long regular_cam_frames = 0, detect_cam_frames = 0;
  long retries = 0, dropped = 0;
  double slowest_sum = 0.0;
  long timed = 0, timed_key = 0, timed_regular = 0;
  double tracking_ms = 0.0, central_ms = 0.0, distributed_ms = 0.0,
         batching_ms = 0.0;

  void add(const runtime::FrameStats& fs, bool is_timed, double limit_ms) {
    ++frames;
    slowest_sum += fs.slowest_infer_ms;
    if (fs.slowest_infer_ms > limit_ms) ++misses;
    tracked += static_cast<long>(fs.tracked_objects);
    retries += fs.retries;
    dropped += fs.dropped_msgs;
    if (!fs.key_frame) {
      for (double ms : fs.camera_infer_ms) {
        ++regular_cam_frames;
        if (ms > 0.0) ++detect_cam_frames;
      }
    }
    if (!is_timed) return;
    ++timed;
    tracking_ms += fs.tracking_ms;
    if (fs.key_frame) {
      ++timed_key;
      central_ms += fs.central_ms;
    } else {
      ++timed_regular;
      distributed_ms += fs.distributed_ms;
      batching_ms += fs.batching_ms;
    }
  }
  void add_gpu_work(const std::vector<runtime::CameraGpuWork>& work) {
    for (const runtime::CameraGpuWork& w : work) {
      tasks += static_cast<long>(w.tasks.size());
      if (w.full_frame) ++full_frames;
    }
  }
  static double ratio(double a, double b) { return b > 0.0 ? a / b : 0.0; }

  void report(Episode& ep) const {
    const double n = static_cast<double>(frames);
    ep.out.count("track.active_tracks_per_frame", ratio(tracked, n));
    ep.out.count("gpu.tasks_per_frame", ratio(tasks, n));
    ep.out.count("gpu.full_frames_per_frame", ratio(full_frames, n));
    ep.out.count("policy.detect_frac",
                 ratio(detect_cam_frames, regular_cam_frames));
    ep.out.count("net.retries", static_cast<double>(retries));
    ep.out.count("net.dropped_msgs", static_cast<double>(dropped));
    ep.walls["track.wall_ms_mean"] = ratio(tracking_ms, timed);
    ep.walls["core.central_wall_ms_mean"] = ratio(central_ms, timed_key);
    ep.walls["core.distributed_wall_ms_mean"] =
        ratio(distributed_ms, timed_regular);
    ep.walls["gpu.batching_wall_ms_mean"] = ratio(batching_ms, timed_regular);
  }
};

void check_attribution(Episode& ep) {
  ep.check(obs::critical_path().frames() > 0,
           "attribution recorded no frames");
  const double err = obs::critical_path().max_conservation_error_ms();
  ep.out.count("obs.attribution.frames",
               static_cast<double>(obs::critical_path().frames()));
  ep.walls["obs.attribution.max_conservation_error_ms"] = err;
  ep.check(err < kConservationTolMs,
           "attribution conservation error " + std::to_string(err) + " ms");
}

// ---------------------------------------------------------------------------
// Workloads.

struct Env {
  int width = 1;             ///< pool width (worker threads)
  util::ThreadPool* pool = nullptr;  ///< shared by pipeline and rt workloads
};

/// One unpaced BALB pipeline on S1 (5 cameras), fixed detect policy, ideal
/// transport.
constexpr int kS1Frames = 40;
constexpr double kFramePeriodMs = 100.0;

Episode s1_pipeline(const Env& env, std::uint64_t seed, bool traced) {
  Episode ep;
  runtime::PipelineConfig cfg;
  cfg.policy = runtime::Policy::kBalb;
  cfg.horizon_frames = 10;
  cfg.seed = seed;
  cfg.keep_history = false;
  const auto t0 = Clock::now();
  std::unique_ptr<runtime::Pipeline> pipeline;
  {
    obs::Span s("pipeline.ctor");
    pipeline = std::make_unique<runtime::Pipeline>("S1", cfg, env.pool);
  }
  ep.setup_s = ms_between(t0, Clock::now()) / 1000.0;

  FrameTally tally;
  bool timing = false;
  auto step = [&] {
    const runtime::FrameStats& fs = pipeline->run_frame_ref();
    tally.add(fs, timing, kFramePeriodMs);
    tally.add_gpu_work(pipeline->last_gpu_work());
    if (timing) ep.timed_frames += 1.0;
  };
  StepLoop loop(ep, traced);
  loop.warmup("pipeline.run_frame", step);
  timing = true;
  loop.timed("pipeline.run_frame", kS1Frames, step);

  ep.out.recall = pipeline->result().object_recall;
  ep.out.sim_latency_ms = tally.slowest_sum / static_cast<double>(tally.frames);
  ep.out.attempted = tally.frames;
  ep.out.missed = tally.misses;
  tally.report(ep);
  ep.check(tally.frames == kWarmupSteps + kS1Frames, "frame count");
  ep.check(ep.out.recall > 0.0 && ep.out.recall <= 1.0, "recall in (0, 1]");
  return ep;
}

/// Paced streaming runtime on a 30-camera city grid: ten times the pool
/// width, yet small enough for a run to cover twenty inputs.
constexpr int kCityCameras = 30;
constexpr int kCityFrames = 30;

Episode city_paced(const Env& env, std::uint64_t seed, bool traced) {
  Episode ep;
  sim::CityConfig city;
  city.cameras = kCityCameras;
  runtime::PipelineConfig cfg;
  cfg.policy = runtime::Policy::kBalb;
  cfg.seed = seed;
  cfg.frame_policy.kind = policy::PolicyKind::kHeuristic;
  cfg.frame_policy.correlation_gate = true;
  cfg.transport = net::TransportKind::kLossy;
  cfg.faults.loss_rate = 0.05;
  cfg.faults.jitter_ms = 4.0;
  runtime::RtConfig rc;
  rc.paced = true;
  rc.deadline_ms = kFramePeriodMs;
  rc.late_policy = runtime::LatePolicy::kSupersede;
  rc.arrival_jitter_ms = 5.0;
  rc.miss_budget = 0.1;

  const auto t0 = Clock::now();
  std::unique_ptr<rt::RtRunner> runner;
  {
    obs::Span s("rt.ctor");
    runner = std::make_unique<rt::RtRunner>(sim::city_scenario_name(city),
                                            cfg, rc, env.pool);
  }
  ep.setup_s = ms_between(t0, Clock::now()) / 1000.0;

  auto resolved = [&] {
    const rt::RtCounters& c = runner->counters();
    return c.processed + c.dropped + c.superseded;
  };
  bool timing = false;
  auto step = [&] {
    const long before = resolved();
    runner->step();
    if (timing) ep.timed_frames += static_cast<double>(resolved() - before);
  };
  StepLoop loop(ep, traced);
  loop.warmup("rt.step", step);
  const long processed_before_timing = runner->counters().processed;
  timing = true;
  loop.timed("rt.step", kCityFrames, step);
  const long processed_after_timing = runner->counters().processed;
  {
    obs::Span s("rt.finish");
    runner->finish();
  }

  const rt::RtResult r = runner->result();
  const rt::RtCounters& c = r.counters;
  ep.out.recall = r.streaming_recall;
  ep.out.sim_latency_ms = r.mean_lag_ms;
  ep.out.attempted = c.arrived;
  ep.out.missed = c.deadline_miss + c.superseded;
  ep.out.count("rt.arrived", static_cast<double>(c.arrived));
  ep.out.count("rt.processed", static_cast<double>(c.processed));
  ep.out.count("rt.dropped", static_cast<double>(c.dropped));
  ep.out.count("rt.superseded", static_cast<double>(c.superseded));
  ep.out.count("rt.deadline_miss", static_cast<double>(c.deadline_miss));
  ep.out.count("rt.gpu_busy_ms", c.gpu_busy_ms);
  ep.out.count("rt.processed_frac",
               c.arrived > 0 ? static_cast<double>(c.processed) / c.arrived
                             : 0.0);

  // Processed frames in order; those processed during the timed steps carry
  // the measured walls.
  const runtime::PipelineResult pr = runner->pipeline().result();
  FrameTally tally;
  for (std::size_t i = 0; i < pr.frames.size(); ++i) {
    const long k = static_cast<long>(i);
    tally.add(pr.frames[i],
              k >= processed_before_timing && k < processed_after_timing,
              kFramePeriodMs);
  }
  tally.report(ep);

  ep.check(c.arrived == kWarmupSteps + kCityFrames, "arrival count");
  ep.check(c.arrived == c.processed + c.dropped + c.superseded,
           "rt conservation: arrived == processed + dropped + superseded");
  ep.check(static_cast<long>(pr.frames.size()) == c.processed,
           "one frame record per processed frame");
  ep.check(r.streaming_recall > 0.0 && r.streaming_recall <= 1.0,
           "streaming recall in (0, 1]");
  check_attribution(ep);
  return ep;
}

/// Fleet outcome of an episode. A session's offered
/// frames are its native frame instants over the episode's ticks (episode
/// lengths are multiples of every wheel period, so the count is exact); a
/// frame that was offered but not served (deferred, rate-halved or
/// rejected) counts as a miss, as does one over its SLO.
void fleet_outcome(Episode& ep, const fleet::FleetSnapshot& snap,
                   const std::vector<int>& rejected_fps) {
  long offered = 0, served = 0, missed = 0;
  double latency_sum = 0.0, recall_sum = 0.0, busy_sum = 0.0;
  const int wheel = std::max(1, snap.wheel_hz);
  auto offered_for = [&](int fps) {
    return snap.ticks * static_cast<long>(fps) / wheel;
  };
  for (const fleet::SessionSnapshot& s : snap.sessions) {
    const long o = offered_for(s.fps);
    offered += o;
    served += s.frames;
    missed += s.slo_violations + std::max(0L, o - s.frames);
    latency_sum += s.mean_ms * static_cast<double>(s.frames);
    recall_sum += s.object_recall * static_cast<double>(s.frames);
    busy_sum += s.busy_sum_ms;
    ep.check(s.frames <= o, "session served more frames than offered");
  }
  for (int fps : rejected_fps) {
    offered += offered_for(fps);
    missed += offered_for(fps);
  }
  ep.out.attempted = offered;
  ep.out.missed = missed;
  ep.out.sim_latency_ms =
      served > 0 ? latency_sum / static_cast<double>(served) : 0.0;
  ep.out.recall =
      served > 0 ? recall_sum / static_cast<double>(served) : 0.0;
  ep.out.count("fleet.admitted", snap.admitted);
  ep.out.count("fleet.rejected", snap.rejected);
  long degraded = 0;
  for (const fleet::SessionSnapshot& s : snap.sessions)
    if (s.stride > 1 || s.tight_masks) ++degraded;
  ep.out.count("fleet.degraded", static_cast<double>(degraded));
  ep.out.count("fleet.session_frames", static_cast<double>(served));
  ep.out.count("fleet.shared_batches",
               static_cast<double>(snap.shared_batches));
  ep.out.count("fleet.isolated_batches",
               static_cast<double>(snap.isolated_batches));
  ep.out.count("fleet.batch_merge_ratio",
               snap.isolated_batches > 0
                   ? 1.0 - static_cast<double>(snap.shared_batches) /
                               static_cast<double>(snap.isolated_batches)
                   : 0.0);
  ep.out.count("fleet.shared_busy_ms", snap.shared_busy_ms);
  long deferred = 0;
  for (const fleet::SessionSnapshot& s : snap.sessions)
    deferred += s.deferred_ticks;
  ep.out.count("fleet.deferred_ticks", static_cast<double>(deferred));
  ep.out.count("fleet.batch_splits", static_cast<double>(snap.batch_splits));
  ep.out.count("fleet.queue_depth_mean", snap.mean_queue_depth);
  ep.out.count("fleet.migrations", static_cast<double>(snap.migrations));
  ep.out.count("fleet.cross_batches_saved",
               static_cast<double>(snap.cross_batches_saved));
  ep.out.count("net.retries", static_cast<double>(snap.total_retries));
  ep.out.count("net.dropped_msgs",
               static_cast<double>(snap.total_dropped_msgs));
  double max_frames = 0.0, sum_frames = 0.0;
  for (const fleet::ShardRollup& r : snap.shard_rollups) {
    max_frames = std::max(max_frames, static_cast<double>(r.frames));
    sum_frames += static_cast<double>(r.frames);
  }
  const double shards = static_cast<double>(snap.shard_rollups.size());
  ep.out.count("fleet.shard_skew",
               sum_frames > 0.0 ? max_frames / (sum_frames / shards) : 0.0);

  ep.check(close_rel(busy_sum, snap.shared_busy_ms, 1e-9, 1e-6),
           "sum of session busy_sum_ms equals fleet shared busy");
  ep.check(served > 0, "fleet served frames");
}

/// Admits `specs` on a fresh plane (timed as set-up), then steps it.
Episode run_fleet(const fleet::FleetConfig& cfg,
                  const std::vector<fleet::SessionSpec>& specs, int ticks,
                  bool traced) {
  Episode ep;
  const auto t0 = Clock::now();
  std::unique_ptr<fleet::FleetApi> plane;
  {
    obs::Span s("fleet.make");
    plane = fleet::make_fleet(cfg);
  }
  const auto t_admit = Clock::now();
  const int base_fps = static_cast<int>(1000.0 / cfg.frame_period_ms);
  std::vector<int> rejected_fps;
  for (const fleet::SessionSpec& spec : specs) {
    obs::Span s("fleet.admit");
    if (!plane->admit(spec).admitted)
      rejected_fps.push_back(spec.fps > 0 ? spec.fps : base_fps);
  }
  const auto t1 = Clock::now();
  ep.setup_s = ms_between(t0, t1) / 1000.0;
  ep.walls["fleet.admit_ms_mean"] =
      ms_between(t_admit, t1) / static_cast<double>(specs.size());

  auto session_frames = [&] {
    long n = 0;
    for (const fleet::SessionSnapshot& s : plane->snapshot().sessions)
      n += s.frames;
    return n;
  };
  auto step = [&] { plane->step(); };
  StepLoop loop(ep, traced);
  loop.warmup("fleet.step", step);
  const long frames_before = session_frames();
  loop.timed("fleet.step", ticks - kWarmupSteps, step);

  const auto ts = Clock::now();
  fleet::FleetSnapshot snap;
  {
    obs::Span s("fleet.snapshot");
    snap = plane->snapshot();
  }
  ep.walls["fleet.snapshot_ms"] = ms_between(ts, Clock::now());
  long frames_after = 0;
  for (const fleet::SessionSnapshot& s : snap.sessions)
    frames_after += s.frames;
  ep.timed_frames = static_cast<double>(frames_after - frames_before);
  ep.check(snap.ticks == ticks, "tick count");
  fleet_outcome(ep, snap, rejected_fps);
  return ep;
}

/// A dozen real S2/S3 sessions at 10/15/30 fps (a 30 Hz wheel), some on
/// lossy links, under a tight SLO with batch splitting, on two shards with
/// rebalancing over one shared pool.
constexpr int kMixedSessions = 12;
constexpr int kMixedTicks = 180;  // 6 s of a 30 Hz wheel; a multiple of 6
constexpr double kMixedSloMs = 1200.0;

Episode fleet_mixed(const Env& env, std::uint64_t seed, bool traced) {
  fleet::FleetConfig cfg;
  cfg.shards = 2;
  cfg.threads = env.width;
  cfg.slo_ms = kMixedSloMs;
  cfg.allow_split = true;
  cfg.rebalance_interval = 20;
  static constexpr int kFps[] = {10, 15, 30};
  std::vector<fleet::SessionSpec> specs(kMixedSessions);
  for (int i = 0; i < kMixedSessions; ++i) {
    fleet::SessionSpec& spec = specs[static_cast<std::size_t>(i)];
    spec.name = "mixed-" + std::to_string(i);
    spec.scenario = i % 2 == 0 ? "S2" : "S3";
    spec.fps = kFps[i % 3];
    spec.weight = i % 4 == 0 ? 2.0 : 1.0;
    spec.pipeline.seed = seed * 1000003ULL + static_cast<std::uint64_t>(i);
    if (i % 4 == 1) {
      netsim::FaultConfig faults;
      faults.loss_rate = 0.05;
      faults.jitter_ms = 2.0;
      spec.faults = faults;
    }
  }
  return run_fleet(cfg, specs, kMixedTicks, traced);
}

struct Workload {
  const char* name;
  Episode (*episode)(const Env&, std::uint64_t, bool);
  int cycle;         ///< episode seeds per run (see main)
  bool attribution;  ///< always-on critical-path attribution
};

constexpr Workload kWorkloads[] = {
    {"s1-pipeline", s1_pipeline, 40, false},
    {"city-paced", city_paced, 20, true},
    {"fleet-mixed", fleet_mixed, 7, true},
};

// ---------------------------------------------------------------------------
// Pinned simulated outputs at kDefaultSeed (any pool width, any build type
// whose floating point matches Release). A behaviour change moves them; the
// run then fails until they are re-pinned in a change that says why.

struct Reference {
  const char* workload;
  double recall, sim_latency_ms;
  long attempted, missed;
  std::vector<std::pair<const char*, double>> counts;
};

const std::vector<Reference>& references() {
  static const std::vector<Reference> refs = {
      {"s1-pipeline", 0.9759638366718659, 50.106725, 2000, 205,
       {{"track.active_tracks_per_frame", 15.489500000000001},
        {"gpu.tasks_per_frame", 17.1},
        {"gpu.full_frames_per_frame", 0.5000000000000002},
        {"policy.detect_frac", 0.8183333333333334},
        {"net.retries", 0.0},
        {"net.dropped_msgs", 0.0}}},
      {"city-paced", 0.7087667317038174, 175.41666666666666, 800, 335,
       {{"rt.arrived", 40.0},
        {"rt.processed", 31.600000000000012},
        {"rt.dropped", 0.7000000000000001},
        {"rt.superseded", 7.700000000000001},
        {"rt.deadline_miss", 9.049999999999997},
        {"rt.gpu_busy_ms", 22421.76500000002},
        {"rt.processed_frac", 0.7899999999999999},
        {"track.active_tracks_per_frame", 18.257409274193545},
        {"gpu.tasks_per_frame", 0.0},
        {"gpu.full_frames_per_frame", 0.0},
        {"policy.detect_frac", 0.3297361280694613},
        {"net.retries", 57.25},
        {"net.dropped_msgs", 0.0},
        {"obs.attribution.frames", 32.300000000000004}}},
      {"fleet-mixed", 0.831724382102635, 123.04282783313923, 9240, 1317,
       {{"fleet.admitted", 11.0},
        {"fleet.rejected", 0.9999999999999998},
        {"fleet.degraded", 0.857142857142857},
        {"fleet.session_frames", 1139.0000000000002},
        {"fleet.shared_batches", 2554.5714285714284},
        {"fleet.isolated_batches", 3976.4285714285716},
        {"fleet.batch_merge_ratio", 0.357557653621951},
        {"fleet.shared_busy_ms", 106973.32857142859},
        {"fleet.deferred_ticks", 0.9999999999999998},
        {"fleet.batch_splits", 0.5714285714285714},
        {"fleet.queue_depth_mean", 0.005555555555555555},
        {"fleet.migrations", 0.0},
        {"fleet.cross_batches_saved", 504.0},
        {"net.retries", 16.857142857142858},
        {"net.dropped_msgs", 0.0},
        {"fleet.shard_skew", 1.0008779631255487}}},
  };
  return refs;
}

void check_reference(const char* workload, const Outcome& o, Episode& ep) {
  for (const Reference& ref : references()) {
    if (std::strcmp(ref.workload, workload) != 0) continue;
    ep.check(close_rel(o.recall, ref.recall, kReferenceRtol),
             "reference recall");
    ep.check(close_rel(o.sim_latency_ms, ref.sim_latency_ms, kReferenceRtol),
             "reference sim latency");
    ep.check(o.attempted == ref.attempted && o.missed == ref.missed,
             "reference attempted/missed frames");
    for (const auto& [name, value] : ref.counts)
      ep.check(close_rel(o.get(name), value, kReferenceRtol),
               std::string("reference ") + name);
    return;
  }
  ep.check(false, std::string("no reference values for ") + workload);
}

/// The run's simulated outputs over one cycle of episode seeds: recall and
/// latency are episode means, frame counts are summed (so miss_frac is
/// frames missed over frames attempted) and per-layer counts are means.
Outcome cycle_outcome(const std::vector<Episode>& eps, std::size_t cycle) {
  Outcome o;
  const std::size_t n = std::min(cycle, eps.size());
  if (n == 0) return o;
  o.counts = eps[0].out.counts;
  for (auto& [k, v] : o.counts) v = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const Outcome& e = eps[i].out;
    o.recall += e.recall / static_cast<double>(n);
    o.sim_latency_ms += e.sim_latency_ms / static_cast<double>(n);
    o.attempted += e.attempted;
    o.missed += e.missed;
    if (e.counts.size() != o.counts.size()) continue;
    for (std::size_t j = 0; j < o.counts.size(); ++j)
      o.counts[j].second += e.counts[j].second / static_cast<double>(n);
  }
  return o;
}

// ---------------------------------------------------------------------------
// Statistics over raw samples.

/// Nearest-rank percentile of raw samples (never of log2 histograms).
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double n = static_cast<double>(v.size());
  const double rank = std::clamp(std::ceil(p / 100.0 * n), 1.0, n);
  return v[static_cast<std::size_t>(rank) - 1];
}

std::size_t beyond(const std::vector<double>& v, double threshold) {
  return static_cast<std::size_t>(std::count_if(
      v.begin(), v.end(), [&](double x) { return x > threshold; }));
}

double median(std::vector<double> v) { return percentile(std::move(v), 50.0); }

/// Clock ticks the hypervisor took from this machine's CPUs (the steal
/// column of /proc/stat); -1 where unavailable. Stolen time inflates every
/// wall-clock metric, so each run reports its share.
long long steal_ticks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  long long v[8] = {};
  if (!(in >> cpu) || cpu != "cpu") return -1;
  for (long long& x : v)
    if (!(in >> x)) return -1;
  return v[7];
}

/// Share of `cpus` CPUs' time stolen between two steal_ticks() readings
/// `seconds` apart; -1 when either reading failed.
double steal_share(long long before, long long after, double seconds,
                   int cpus) {
  if (before < 0 || after < 0 || seconds <= 0.0) return -1.0;
  return static_cast<double>(after - before) /
         (seconds * cpus * static_cast<double>(sysconf(_SC_CLK_TCK)));
}

/// The episodes whose wall-clock samples a run reports: the least stolen,
/// at least a quarter of them, at least kMinStatEpisodes and at least
/// kMinTimedSteps timed steps (all of them when steal cannot be read). The hypervisor's steal comes and
/// goes within a run and inflates every wall time it overlaps; the simulated
/// outputs always come from every episode.
std::vector<const Episode*> least_stolen(const std::vector<Episode>& eps) {
  std::vector<const Episode*> order;
  bool known = true;
  for (const Episode& e : eps) {
    order.push_back(&e);
    known = known && e.steal_frac >= 0.0;
  }
  if (!known) return order;
  std::stable_sort(order.begin(), order.end(),
                   [](const Episode* a, const Episode* b) {
                     return a->steal_frac < b->steal_frac;
                   });
  std::vector<const Episode*> keep;
  std::size_t samples = 0;
  for (const Episode* e : order) {
    if (4 * keep.size() >= eps.size() && keep.size() >= kMinStatEpisodes &&
        samples >= kMinTimedSteps)
      break;
    keep.push_back(e);
    samples += e->step_ms.size();
  }
  return keep;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

// ---------------------------------------------------------------------------
// Traced ledger. Self time is a span's duration minus its same-thread
// children. The main thread is the one that makes the step calls; its
// timeline over the timed steps splits exactly into, per span name, self
// time while no worker span runs (serial) and while one does (parallel
// region), plus the residual outside any step span.

struct Ledger {
  std::map<std::string, double> serial_ms, parallel_ms;  ///< main thread
  std::map<std::string, double> self_ms, dur_ms;         ///< all threads
  double wall_ms = 0.0, residual_ms = 0.0;
  double worker_busy_ms = 0.0, parallel_wall_ms = 0.0;
  double spans = 0.0, steps = 0.0, step_ms = 0.0;
  double net_messages = 0.0, net_retries = 0.0;

  void add(const Episode& ep, const char* step_span) {
    const std::vector<obs::SpanEvent>& ev = ep.spans;
    const std::uint64_t t0 = ep.t0_us, t1 = ep.t1_us;
    wall_ms += static_cast<double>(t1 - t0) / 1000.0;
    steps += static_cast<double>(ep.step_ms.size());
    step_ms += ep.timed_ms();
    spans += static_cast<double>(ev.size());
    net_messages += ep.net_messages;
    net_retries += ep.net_retries;

    int main_tid = -1;
    for (const obs::SpanEvent& e : ev)
      if (e.depth == 0 && std::strcmp(e.name, step_span) == 0) {
        main_tid = e.tid;
        break;
      }

    // Children's total duration per span (same thread), via the recorded
    // nesting depth; collect() sorts by (tid, ts, depth).
    std::vector<double> child_us(ev.size(), 0.0);
    std::vector<std::vector<std::size_t>> children(ev.size());
    std::vector<std::size_t> open;
    int tid = -1;
    for (std::size_t i = 0; i < ev.size(); ++i) {
      if (ev[i].tid != tid) {
        tid = ev[i].tid;
        open.clear();
      }
      const auto d = static_cast<std::size_t>(ev[i].depth);
      if (open.size() > d) open.resize(d);
      if (d > 0 && open.size() == d) {
        child_us[open.back()] += static_cast<double>(ev[i].dur_us);
        if (ev[i].tid == main_tid) children[open.back()].push_back(i);
      }
      open.push_back(i);
    }

    // Union of top-level worker spans: when the main thread sits inside it,
    // the pool is working for that step.
    std::vector<std::pair<std::uint64_t, std::uint64_t>> busy;
    for (const obs::SpanEvent& e : ev)
      if (e.tid != main_tid && e.depth == 0) {
        busy.emplace_back(e.ts_us, e.ts_us + e.dur_us);
        worker_busy_ms += static_cast<double>(e.dur_us) / 1000.0;
      }
    std::sort(busy.begin(), busy.end());
    std::vector<std::pair<std::uint64_t, std::uint64_t>> merged;
    for (const auto& iv : busy) {
      if (!merged.empty() && iv.first <= merged.back().second)
        merged.back().second = std::max(merged.back().second, iv.second);
      else
        merged.push_back(iv);
    }
    auto overlap_us = [&](std::uint64_t a, std::uint64_t b) {
      double s = 0.0;
      auto it = std::upper_bound(
          merged.begin(), merged.end(), std::make_pair(a, a),
          [](const auto& x, const auto& y) { return x.second < y.second; });
      // upper_bound on end: first interval ending after a.
      for (; it != merged.end() && it->first < b; ++it) {
        const std::uint64_t lo = std::max(a, it->first);
        const std::uint64_t hi = std::min(b, it->second);
        if (hi > lo) s += static_cast<double>(hi - lo);
      }
      return s;
    };

    double main_top_us = 0.0;
    for (std::size_t i = 0; i < ev.size(); ++i) {
      const obs::SpanEvent& e = ev[i];
      const double self_us = static_cast<double>(e.dur_us) - child_us[i];
      self_ms[e.name] += self_us / 1000.0;
      dur_ms[e.name] += static_cast<double>(e.dur_us) / 1000.0;
      if (e.tid != main_tid) continue;
      if (e.depth == 0) main_top_us += static_cast<double>(e.dur_us);
      // Parallel part of this span's self time: its interval minus its
      // children's, intersected with the worker union.
      double par_us = 0.0;
      std::uint64_t cursor = e.ts_us;
      const std::uint64_t end = e.ts_us + e.dur_us;
      for (std::size_t c : children[i]) {
        const std::uint64_t cs = std::clamp(ev[c].ts_us, cursor, end);
        par_us += overlap_us(cursor, cs);
        cursor = std::clamp(ev[c].ts_us + ev[c].dur_us, cursor, end);
      }
      par_us += overlap_us(cursor, end);
      par_us = std::min(par_us, std::max(0.0, self_us));
      parallel_ms[e.name] += par_us / 1000.0;
      serial_ms[e.name] += (self_us - par_us) / 1000.0;
      parallel_wall_ms += par_us / 1000.0;
    }
    residual_ms += static_cast<double>(t1 - t0) / 1000.0 - main_top_us / 1000.0;
  }

  double rows_ms() const {
    double s = residual_ms;
    for (const auto& [k, v] : serial_ms) s += v;
    for (const auto& [k, v] : parallel_ms) s += v;
    return s;
  }
};

/// Source span name -> layer the per-layer metric is reported under.
constexpr std::pair<const char*, const char*> kSpanLayers[] = {
    {"pipeline.camera", "vision.camera"},
    {"pipeline.frame", "runtime.frame"},
    {"pipeline.key_frame", "runtime.key_frame"},
    {"pipeline.central", "core.central"},
    {"pipeline.distributed", "core.distributed"},
    {"pipeline.tracking", "track.tracking"},
    {"policy.decide", "policy.decide"},
    {"gpu.batch", "gpu.batch"},
    {"net.cycle", "net.cycle"},
    {"rt.step", "rt.step"},
    {"fleet.step", "fleet.step"},
    {"fleet.tick", "fleet.tick"},
    {"fleet.arbiter", "fleet.arbiter"},
    {"gpu.batch_plan", "gpu.batch_plan"},
};

const char* step_span_of(const std::string& workload) {
  if (workload == "s1-pipeline") return "pipeline.run_frame";
  if (workload == "city-paced") return "rt.step";
  return "fleet.step";
}

// ---------------------------------------------------------------------------
// Output.

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_result(bool correct, long attempted, long failed,
                  const std::vector<Metric>& metrics) {
  std::string s = "{\"correct\": ";
  s += correct ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(attempted);
  s += ", \"failed\": " + std::to_string(failed);
  s += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i) s += ", ";
    s += "\"" + metrics[i].name + "\": {\"value\": " +
         json_number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
         "\"}";
  }
  s += "}}";
  std::printf("%s\n", s.c_str());
}

std::string outcome_json(const Outcome& o) {
  std::string s = "{\"recall\": " + json_number(o.recall) +
                  ", \"sim_latency_ms\": " + json_number(o.sim_latency_ms) +
                  ", \"attempted\": " + std::to_string(o.attempted) +
                  ", \"missed\": " + std::to_string(o.missed);
  for (const auto& [k, v] : o.counts) s += ", \"" + k + "\": " + json_number(v);
  return s + "}";
}

int usage(const char* msg) {
  std::fprintf(stderr,
               "error: %s\nusage: mvs_perfbench --workload NAME [--seed N] "
               "[--seconds S] [--trace 0|1]\nworkloads:",
               msg);
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      workload_name = v;
    } else if (a == "--seed") {
      seed = std::strtoull(v.c_str(), &end, 10);
      if (v.empty() || *end != '\0') return usage("--seed takes an integer");
    } else if (a == "--seconds") {
      seconds = std::strtod(v.c_str(), &end);
      if (v.empty() || *end != '\0' || !(seconds > 0.0) || seconds > 3600.0)
        return usage("--seconds takes a number in (0, 3600]");
    } else if (a == "--trace") {
      if (v != "0" && v != "1") return usage("--trace takes 0 or 1");
      trace = v == "1";
    } else {
      return usage(("unknown argument " + a).c_str());
    }
  }
  const Workload* wl = nullptr;
  for (const Workload& w : kWorkloads)
    if (workload_name == w.name) wl = &w;
  if (!wl) return usage(("unknown workload '" + workload_name + "'").c_str());

  const int nproc =
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  // The thread that calls into a pool works alongside its workers, so a
  // pool of nproc - 1 (at most 3) keeps the busy threads within the CPUs.
  Env env;
  env.width = std::max(1, std::min(4, nproc) - 1);
  util::ThreadPool pool(static_cast<std::size_t>(env.width));
  env.pool = &pool;
  obs::set_enabled(false);
  obs::set_attribution_enabled(wl->attribution);

  std::printf(
      "# env {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %s, "
      "\"trace\": %d, \"pool_width\": %d, \"nproc\": %d, \"build_type\": "
      "\"%s\", \"warmup_steps_per_episode\": %d, \"tail_percentile\": %s}\n",
      wl->name, static_cast<unsigned long long>(seed),
      json_number(seconds).c_str(), trace ? 1 : 0, env.width, nproc,
      PERFBENCH_BUILD_TYPE, kWarmupSteps,
      json_number(kTailPercentile).c_str());

  // Episode i runs on seed * 1000 + i % cycle: one cycle covers several
  // inputs, later episodes repeat them and must reproduce their outputs.
  const std::size_t cycle = static_cast<std::size_t>(wl->cycle);
  std::vector<Episode> plain, traced;
  long attempted = 0, failed = 0;
  std::vector<std::string> errors;
  auto run_episode = [&](std::size_t index, bool with_trace) {
    obs::reset();
    obs::set_enabled(with_trace);
    const long long st0 = steal_ticks();
    const auto w0 = Clock::now();
    Episode ep;
    try {
      ep = wl->episode(env, seed * 1000 + index % cycle, with_trace);
    } catch (const std::exception& e) {
      ep = Episode{};
      ep.check(false, std::string("exception: ") + e.what());
    }
    if (with_trace) {
      ep.net_messages = static_cast<double>(
          obs::metrics().counter("net.messages").value());
      ep.net_retries =
          static_cast<double>(obs::metrics().counter("net.retries").value());
    }
    obs::set_enabled(false);
    ep.steal_frac = steal_share(st0, steal_ticks(),
                                ms_between(w0, Clock::now()) / 1000.0, nproc);
    if (with_trace)
      ep.check(ep.out == plain[index % cycle].out,
               "traced outputs equal untraced outputs");
    else if (index >= cycle)
      ep.check(ep.out == plain[index % cycle].out,
               "outputs repeat for a repeated episode seed");
    attempted += ep.steps + ep.checks;
    failed += static_cast<long>(ep.errors.size());
    for (const std::string& e : ep.errors) errors.push_back(e);
    (with_trace ? traced : plain).push_back(std::move(ep));
    return errors.empty();
  };

  // Untimed runs: whole cycle first, then until --seconds and enough samples.
  // Traced runs: one untraced cycle, then the same cycle traced.
  const auto start = Clock::now();
  const long long steal0 = steal_ticks();
  std::size_t samples = 0;
  for (std::size_t i = 0; run_episode(i, false); ++i) {
    samples += plain.back().step_ms.size();
    const double elapsed = ms_between(start, Clock::now()) / 1000.0;
    if (i + 1 >= cycle &&
        (trace || (elapsed >= seconds && samples >= kMinTimedSteps)))
      break;
  }
  if (trace && errors.empty())
    for (std::size_t i = 0; i < cycle && run_episode(i, true); ++i) {
    }

  const double run_s = ms_between(start, Clock::now()) / 1000.0;
  const double steal_frac = steal_share(steal0, steal_ticks(), run_s, nproc);
  std::printf("# run {\"wall_s\": %s, \"steal_frac\": %s, \"episodes\": %zu, "
              "\"episode_seeds\": %zu}\n",
              json_number(run_s).c_str(), json_number(steal_frac).c_str(),
              plain.size() + traced.size(), cycle);
  const Outcome out = cycle_outcome(plain, cycle);
  if (errors.empty() && seed == kDefaultSeed) {
    Episode ref;
    check_reference(wl->name, out, ref);
    attempted += ref.checks;
    failed += static_cast<long>(ref.errors.size());
    for (const std::string& e : ref.errors) errors.push_back(e);
  }
  std::printf("# outcome %s\n", outcome_json(out).c_str());
  std::printf("# %zu untraced episodes over %zu episode seeds%s; %d warm-up "
              "steps per episode (%zu in all) excluded from timing\n",
              plain.size(), cycle, trace ? ", then the same seeds traced" : "",
              kWarmupSteps, (plain.size() + traced.size()) * kWarmupSteps);
  for (const std::string& e : errors)
    std::printf("# FAILED CHECK: %s\n", e.c_str());

  std::vector<Metric> metrics;
  const std::vector<const Episode*> timed = least_stolen(plain);
  std::vector<double> step_ms, fps, setup_s, steal;
  for (const Episode* ep : timed) {
    step_ms.insert(step_ms.end(), ep->step_ms.begin(), ep->step_ms.end());
    const double ms = ep->timed_ms();
    if (ms > 0.0) fps.push_back(1000.0 * ep->timed_frames / ms);
    setup_s.push_back(ep->setup_s);
    steal.push_back(ep->steal_frac);
  }
  std::printf("# wall-clock statistics from the %zu least-stolen of %zu "
              "untraced episodes (steal %.4f to %.4f of CPU time)\n",
              timed.size(), plain.size(),
              *std::min_element(steal.begin(), steal.end()),
              *std::max_element(steal.begin(), steal.end()));
  const double failed_frac =
      attempted > 0 ? static_cast<double>(failed) / attempted : 0.0;

  if (!trace) {
    const double p50 = median(step_ms);
    const double tail = percentile(step_ms, kTailPercentile);
    metrics = {
        {"frames_per_s", median(fps), "frames/s"},
        {"step_ms_p50", p50, "ms"},
        {"step_ms_p95", tail, "ms"},
        {"setup_s", median(setup_s), "s"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
        {"recall", out.recall, "fraction"},
        {"sim_latency_ms_mean", out.sim_latency_ms, "sim_ms"},
        {"miss_frac", out.miss_frac(), "fraction"},
    };
    std::printf("# %-20s %14.6g frames/s (median of %zu episodes)\n",
                "frames_per_s", metrics[0].value, fps.size());
    std::printf("# %-20s %14.6g ms (n=%zu timed steps)\n", "step_ms_p50", p50,
                step_ms.size());
    std::printf("# %-20s %14.6g ms (n=%zu, %zu beyond it)\n", "step_ms_p95",
                tail, step_ms.size(), beyond(step_ms, tail));
    std::printf("# %-20s %14.6g s (median of %zu set-ups)\n", "setup_s",
                metrics[3].value, setup_s.size());
    for (std::size_t i = 4; i < metrics.size(); ++i)
      std::printf("# %-20s %14.6g %s\n", metrics[i].name.c_str(),
                  metrics[i].value, metrics[i].unit.c_str());
  } else {
    // Per-layer metrics: walls are medians over untraced episodes, counts
    // come from the (repeating) simulated outputs, self times from the
    // traced episodes.
    std::map<std::string, std::vector<double>> walls;
    for (const Episode* ep : timed)
      for (const auto& [k, v] : ep->walls) walls[k].push_back(v);
    Ledger ledger;
    const char* step_span = step_span_of(wl->name);
    for (const Episode& ep : traced) ledger.add(ep, step_span);
    double untraced_ms = 0.0;
    for (std::size_t i = 0; i < traced.size(); ++i)
      untraced_ms += plain[i].timed_ms();
    const double steps = std::max(1.0, ledger.steps);

    auto wall = [&](const char* k) {
      const auto it = walls.find(k);
      return it == walls.end() ? 0.0 : median(it->second);
    };
    auto self = [&](const char* span) {
      const auto it = ledger.self_ms.find(span);
      return it == ledger.self_ms.end() ? 0.0 : it->second / steps;
    };
    metrics = {
        {"track.wall_ms_mean", wall("track.wall_ms_mean"), "ms"},
        {"track.active_tracks_per_frame",
         out.get("track.active_tracks_per_frame"), "count"},
        {"core.central_wall_ms_mean", wall("core.central_wall_ms_mean"), "ms"},
        {"core.distributed_wall_ms_mean", wall("core.distributed_wall_ms_mean"),
         "ms"},
        {"gpu.batching_wall_ms_mean", wall("gpu.batching_wall_ms_mean"), "ms"},
        {"gpu.tasks_per_frame", out.get("gpu.tasks_per_frame"), "count"},
        {"gpu.full_frames_per_frame", out.get("gpu.full_frames_per_frame"),
         "count"},
        {"policy.detect_frac", out.get("policy.detect_frac"), "fraction"},
        {"net.retries", out.get("net.retries"), "count"},
        {"net.dropped_msgs", out.get("net.dropped_msgs"), "count"},
        {"net.retry_ratio",
         ledger.net_messages > 0.0 ? ledger.net_retries / ledger.net_messages
                                   : 0.0,
         "fraction"},
        {"rt.processed_frac", out.get("rt.processed_frac"), "fraction"},
        {"rt.dropped", out.get("rt.dropped"), "count"},
        {"rt.superseded", out.get("rt.superseded"), "count"},
        {"fleet.admit_ms_mean", wall("fleet.admit_ms_mean"), "ms"},
        {"fleet.snapshot_ms", wall("fleet.snapshot_ms"), "ms"},
        {"fleet.shared_batches", out.get("fleet.shared_batches"), "count"},
        {"fleet.isolated_batches", out.get("fleet.isolated_batches"), "count"},
        {"fleet.batch_merge_ratio", out.get("fleet.batch_merge_ratio"),
         "fraction"},
        {"fleet.deferred_ticks", out.get("fleet.deferred_ticks"), "count"},
        {"fleet.batch_splits", out.get("fleet.batch_splits"), "count"},
        {"fleet.queue_depth_mean", out.get("fleet.queue_depth_mean"), "count"},
        {"fleet.migrations", out.get("fleet.migrations"), "count"},
        {"fleet.cross_batches_saved", out.get("fleet.cross_batches_saved"),
         "count"},
        {"fleet.shard_skew", out.get("fleet.shard_skew"), "ratio"},
        {"obs.attribution.max_conservation_error_ms",
         wall("obs.attribution.max_conservation_error_ms"), "ms"},
    };
    for (const auto& [span, layer] : kSpanLayers)
      metrics.push_back({std::string(layer) + ".self_ms", self(span), "ms"});
    const auto session = ledger.dur_ms.find("fleet.session");
    metrics.push_back(
        {"fleet.session.busy_ms",
         session == ledger.dur_ms.end() ? 0.0 : session->second / steps, "ms"});
    metrics.push_back(
        {"util.pool_busy_frac",
         ledger.parallel_wall_ms > 0.0
             ? ledger.worker_busy_ms / (env.width * ledger.parallel_wall_ms)
             : 0.0,
         "fraction"});
    metrics.push_back({"obs.spans_per_step", ledger.spans / steps, "count"});
    metrics.push_back(
        {"obs.trace_overhead_frac",
         untraced_ms > 0.0 ? ledger.step_ms / untraced_ms - 1.0 : 0.0,
         "fraction"});
    metrics.push_back({"ledger.wall_ms", ledger.wall_ms / steps, "ms"});
    metrics.push_back({"ledger.residual_ms", ledger.residual_ms / steps, "ms"});

    // The ledger table, ms per timed step.
    std::printf("# ledger (main thread, ms per step over %.0f traced steps)\n",
                ledger.steps);
    std::printf("#   %-24s %12s %12s\n", "span", "serial", "parallel");
    for (const auto& [name, serial] : ledger.serial_ms)
      std::printf("#   %-24s %12.6f %12.6f\n", name.c_str(), serial / steps,
                  ledger.parallel_ms[name] / steps);
    std::printf("#   %-24s %12.6f\n", "ledger.residual_ms",
                ledger.residual_ms / steps);
    std::printf("#   %-24s %12.6f (rows sum to %.6f)\n", "traced wall",
                ledger.wall_ms / steps, ledger.rows_ms() / steps);
    ++attempted;
    if (!close_rel(ledger.rows_ms(), ledger.wall_ms, 1e-9, 1e-6)) {
      ++failed;
      errors.push_back("ledger rows do not sum to the traced wall");
      std::printf("# FAILED CHECK: %s\n", errors.back().c_str());
    }
  }

  std::printf("# %-20s %14.6g fraction (%ld of %ld operations)\n",
              "failed_frac", failed_frac, failed, attempted);
  const bool correct = errors.empty();
  print_result(correct, attempted, failed, metrics);
  std::fflush(stdout);
  return correct ? 0 : 1;
}
