#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>

#include "fleet/fleet.hpp"
#include "fleet/shard.hpp"
#include "gpu/batch_planner.hpp"
#include "gpu/device_profile.hpp"
#include "policy/policy.hpp"
#include "util/json.hpp"
#include "util/thread_pool.hpp"

namespace mvs::fleet {
namespace {

runtime::PipelineConfig fast_config(std::uint64_t seed = 5) {
  runtime::PipelineConfig cfg;
  cfg.policy = runtime::Policy::kBalb;
  cfg.horizon_frames = 10;
  cfg.training_frames = 120;
  cfg.seed = seed;
  return cfg;
}

SessionSpec spec(const std::string& name, std::uint64_t seed = 5,
                 double weight = 1.0) {
  SessionSpec s;
  s.name = name;
  s.scenario = "S2";
  s.pipeline = fast_config(seed);
  s.weight = weight;
  return s;
}

/// Static admission demand of an S2 deployment with assumed_tasks = 0:
/// one full-frame inspection per camera amortized over the horizon.
double s2_static_demand_ms(int horizon = 10) {
  return (gpu::jetson_xavier().full_frame_ms() +
          gpu::jetson_nano().full_frame_ms()) /
         static_cast<double>(horizon);
}

runtime::CameraGpuWork work(std::vector<geom::SizeClassId> tasks,
                            bool full = false) {
  runtime::CameraGpuWork w;
  w.full_frame = full;
  w.tasks = std::move(tasks);
  return w;
}

// ---------------------------------------------------------------- arbiter --

TEST(Arbiter, LoneSubmissionMatchesPlanBatchesBitExactly) {
  const gpu::DeviceProfile nano = gpu::jetson_nano();
  const std::vector<geom::SizeClassId> tasks{0, 0, 0, 1, 2, 2, 2, 3};
  const gpu::BatchPlan solo = gpu::plan_batches(tasks, nano);

  GpuArbiter arbiter;
  arbiter.begin_tick();
  arbiter.submit(0, 0, nano, work(tasks));
  const TickPlan plan = arbiter.plan_tick();

  ASSERT_EQ(plan.shares.size(), 1u);
  EXPECT_EQ(plan.shares[0].session, 0);
  EXPECT_EQ(plan.shares[0].camera, 0);
  // Bit-exact, not approximately equal: the attribution loop must follow the
  // merged plan's batch order so a lone submission reproduces plan_batches'
  // floating-point accumulation exactly.
  EXPECT_DOUBLE_EQ(plan.shares[0].attributed_ms, solo.actual_latency_ms);
  EXPECT_DOUBLE_EQ(plan.shares[0].isolated_ms, solo.actual_latency_ms);
  EXPECT_EQ(plan.shared_batches, static_cast<long>(solo.batches.size()));
  EXPECT_EQ(plan.isolated_batches, plan.shared_batches);
  EXPECT_DOUBLE_EQ(plan.shared_busy_ms, solo.actual_latency_ms);
}

TEST(Arbiter, FullFrameChargedExclusively) {
  const gpu::DeviceProfile nano = gpu::jetson_nano();
  GpuArbiter arbiter;
  arbiter.begin_tick();
  arbiter.submit(0, 0, nano, work({}, /*full=*/true));
  arbiter.submit(1, 0, nano, work({}, /*full=*/true));
  const TickPlan plan = arbiter.plan_tick();
  ASSERT_EQ(plan.shares.size(), 2u);
  // Full frames never merge: each session pays its own device's full cost,
  // and no partial-frame batches exist on either side.
  EXPECT_DOUBLE_EQ(plan.shares[0].attributed_ms, nano.full_frame_ms());
  EXPECT_DOUBLE_EQ(plan.shares[1].attributed_ms, nano.full_frame_ms());
  EXPECT_EQ(plan.shared_batches, 0);
  EXPECT_EQ(plan.isolated_batches, 0);
  EXPECT_DOUBLE_EQ(plan.shared_busy_ms, 2.0 * nano.full_frame_ms());
  EXPECT_DOUBLE_EQ(plan.isolated_busy_ms, plan.shared_busy_ms);
}

TEST(Arbiter, CrossSessionMergeSavesBatchesAndLatency) {
  // Size class 2 on the nano has batch limit 2: two sessions each submitting
  // one such task merge into a single full batch instead of two half-full
  // ones.
  const gpu::DeviceProfile nano = gpu::jetson_nano();
  GpuArbiter arbiter;
  arbiter.begin_tick();
  arbiter.submit(0, 0, nano, work({2}));
  arbiter.submit(1, 0, nano, work({2}));
  const TickPlan plan = arbiter.plan_tick();

  EXPECT_EQ(plan.shared_batches, 1);
  EXPECT_EQ(plan.isolated_batches, 2);
  const double full_batch = nano.actual_batch_latency_ms(2, 2);
  const double half_batch = nano.actual_batch_latency_ms(2, 1);
  EXPECT_DOUBLE_EQ(plan.shared_busy_ms, full_batch);
  EXPECT_DOUBLE_EQ(plan.isolated_busy_ms, 2.0 * half_batch);
  EXPECT_LT(plan.shared_busy_ms, plan.isolated_busy_ms);
  // Equal counts split the shared batch evenly, and each session's share is
  // cheaper than running its own under-filled batch.
  EXPECT_DOUBLE_EQ(plan.shares[0].attributed_ms, 0.5 * full_batch);
  EXPECT_DOUBLE_EQ(plan.shares[1].attributed_ms, 0.5 * full_batch);
  EXPECT_LT(plan.shares[0].attributed_ms, plan.shares[0].isolated_ms);
}

TEST(Arbiter, DifferentDeviceClassesNeverMerge) {
  GpuArbiter arbiter;
  const gpu::DeviceProfile nano = gpu::jetson_nano();
  const gpu::DeviceProfile xavier = gpu::jetson_xavier();
  arbiter.begin_tick();
  arbiter.submit(0, 0, nano, work({1, 1}));
  arbiter.submit(1, 0, xavier, work({1, 1}));
  const TickPlan plan = arbiter.plan_tick();
  // One batch per device class either way: pooling only amortizes within a
  // class, so shared and isolated plans coincide.
  EXPECT_EQ(plan.shared_batches, plan.isolated_batches);
  EXPECT_DOUBLE_EQ(plan.shared_busy_ms, plan.isolated_busy_ms);
  EXPECT_DOUBLE_EQ(plan.shares[0].attributed_ms, plan.shares[0].isolated_ms);
  EXPECT_DOUBLE_EQ(plan.shares[1].attributed_ms, plan.shares[1].isolated_ms);
}

TEST(Arbiter, AttributionConservesTotalBusyTime) {
  const gpu::DeviceProfile nano = gpu::jetson_nano();
  const gpu::DeviceProfile xavier = gpu::jetson_xavier();
  GpuArbiter arbiter;
  arbiter.begin_tick();
  arbiter.submit(0, 0, nano, work({0, 0, 1, 2}, /*full=*/true));
  arbiter.submit(0, 1, xavier, work({3, 3, 3}));
  arbiter.submit(1, 0, nano, work({0, 1, 1}));
  arbiter.submit(2, 0, xavier, work({3}, /*full=*/true));
  const TickPlan plan = arbiter.plan_tick();

  double attributed = 0.0;
  for (const Attribution& a : plan.shares) attributed += a.attributed_ms;
  EXPECT_NEAR(attributed, plan.shared_busy_ms, 1e-9);
  EXPECT_LE(plan.shared_batches, plan.isolated_batches);
  EXPECT_LE(plan.shared_busy_ms, plan.isolated_busy_ms + 1e-9);
}

TEST(Arbiter, BeginTickDiscardsPreviousSubmissions) {
  const gpu::DeviceProfile nano = gpu::jetson_nano();
  GpuArbiter arbiter;
  arbiter.begin_tick();
  arbiter.submit(0, 0, nano, work({0}));
  EXPECT_EQ(arbiter.submission_count(), 1u);
  arbiter.begin_tick();
  EXPECT_EQ(arbiter.submission_count(), 0u);
  EXPECT_TRUE(arbiter.plan_tick().shares.empty());
}

// --------------------------------------------------- elastic device pools --

TEST(Arbiter, DevicePoolDrainsQueueingDelay) {
  // Two sessions submit disjoint size classes -> two merged batches on the
  // nano class. On one device the second batch in plan order waits for the
  // first; its owner is charged exactly that wait as queueing delay. A
  // second device removes the contention entirely.
  const gpu::DeviceProfile nano = gpu::jetson_nano();
  GpuArbiter arbiter;
  arbiter.begin_tick();
  arbiter.submit(0, 0, nano, work({0}));
  arbiter.submit(1, 0, nano, work({2}));

  const TickPlan serial_plan = arbiter.plan_tick();
  const double lat0 = nano.actual_batch_latency_ms(0, 1);
  ASSERT_EQ(serial_plan.shares.size(), 2u);
  EXPECT_DOUBLE_EQ(serial_plan.shares[0].queue_ms, 0.0);
  EXPECT_DOUBLE_EQ(serial_plan.shares[1].queue_ms, lat0);
  EXPECT_DOUBLE_EQ(serial_plan.queue_ms_total, lat0);

  arbiter.set_device_count(nano.name(), 2);
  EXPECT_EQ(arbiter.device_count(nano.name()), 2);
  const TickPlan pooled_plan = arbiter.plan_tick();
  EXPECT_DOUBLE_EQ(pooled_plan.shares[0].queue_ms, 0.0);
  EXPECT_DOUBLE_EQ(pooled_plan.shares[1].queue_ms, 0.0);
  EXPECT_DOUBLE_EQ(pooled_plan.queue_ms_total, 0.0);
  // Attribution (busy time) is pool-size independent; only waiting changes.
  EXPECT_DOUBLE_EQ(pooled_plan.shares[1].attributed_ms,
                   serial_plan.shares[1].attributed_ms);
  EXPECT_DOUBLE_EQ(pooled_plan.shared_busy_ms, serial_plan.shared_busy_ms);
}

TEST(Arbiter, LoneSubmissionHasZeroQueueOnAnyPoolSize) {
  const gpu::DeviceProfile nano = gpu::jetson_nano();
  for (int devices = 1; devices <= 3; ++devices) {
    GpuArbiter arbiter;
    arbiter.set_device_count(nano.name(), devices);
    arbiter.begin_tick();
    arbiter.submit(0, 0, nano, work({0, 1, 2, 2, 3}, /*full=*/true));
    const TickPlan plan = arbiter.plan_tick();
    // Exactly zero, not approximately: the fleet-of-one identity requires
    // the lone schedule to accumulate in attribution order.
    EXPECT_DOUBLE_EQ(plan.shares[0].queue_ms, 0.0) << devices;
    EXPECT_DOUBLE_EQ(plan.queue_ms_total, 0.0) << devices;
  }
}

TEST(FleetElasticity, ScaleDevicesTracksPoolsAndEmitsEvents) {
  Fleet fleet;
  runtime::TraceRecorder trace;
  fleet.attach_trace(&trace);
  ASSERT_TRUE(fleet.admit(spec("a", 5)).admitted);

  // S2 registers the xavier and nano classes at one device each.
  FleetSnapshot snap = fleet.snapshot();
  ASSERT_EQ(snap.device_pools.size(), 2u);
  for (const auto& [name, count] : snap.device_pools) EXPECT_EQ(count, 1);

  const std::string device_class = snap.device_pools.front().first;
  EXPECT_EQ(fleet.scale_devices(device_class, +2), 3);
  EXPECT_EQ(fleet.scale_devices(device_class, -1), 2);
  // Pools never shrink below one device.
  EXPECT_EQ(fleet.scale_devices(device_class, -10), 1);
  EXPECT_EQ(trace.count(runtime::TraceEventType::kDeviceScale), 3u);

  snap = fleet.snapshot();
  for (const auto& [name, count] : snap.device_pools)
    EXPECT_EQ(count, 1) << name;
}

// --------------------------------------------------------- batch splitting --

TEST(Arbiter, SplitShedsLowestWeightAndConservesBusy) {
  // Merged class-2 counts 3 + 1 plan as two full batches (limit 2). The
  // high-weight session misses a sub-batch SLO, so the arbiter splits the
  // last batch: half its count (1 task) is shed from the lowest-weight
  // contributor and the class re-plans as [2, 1].
  const gpu::DeviceProfile nano = gpu::jetson_nano();
  GpuArbiter arbiter;
  arbiter.begin_tick();
  arbiter.submit(0, 0, nano, work({2, 2, 2}), /*weight=*/1.0);
  arbiter.submit(1, 0, nano, work({2}), /*weight=*/2.0);

  TickContext ctx;
  ctx.allow_split = true;
  ctx.slo_ms = 0.25 * nano.actual_batch_latency_ms(2, 2);  // force a miss
  const TickPlan plan = arbiter.plan_tick(ctx);

  EXPECT_EQ(plan.splits, 1);
  ASSERT_EQ(plan.deferred.size(), 1u);
  EXPECT_EQ(plan.deferred[0].session, 0);  // lowest weight sheds first
  EXPECT_EQ(plan.deferred[0].size_class, 2);
  EXPECT_EQ(plan.deferred[0].count, 1);
  // The tick charges exactly the batches it executes: [2] + [1].
  const double expected_busy = nano.actual_batch_latency_ms(2, 2) +
                               nano.actual_batch_latency_ms(2, 1);
  EXPECT_DOUBLE_EQ(plan.shared_busy_ms, expected_busy);
  double attributed = 0.0;
  for (const Attribution& a : plan.shares) attributed += a.attributed_ms;
  EXPECT_NEAR(attributed, plan.shared_busy_ms, 1e-9);

  // Without permission (or without an SLO) the same submissions never split.
  EXPECT_EQ(arbiter.plan_tick().splits, 0);
  TickContext no_split = ctx;
  no_split.allow_split = false;
  EXPECT_EQ(arbiter.plan_tick(no_split).splits, 0);
}

TEST(Arbiter, SplitAttributionConservesAcrossRandomSeeds) {
  // Randomized conservation sweep: whatever the split decisions, the sum of
  // per-submission attributed_ms must equal the executed busy time, and
  // re-submitting the deferred slices next tick conserves the total demand.
  const gpu::DeviceProfile nano = gpu::jetson_nano();
  const gpu::DeviceProfile xavier = gpu::jetson_xavier();
  for (std::uint32_t seed = 0; seed < 12; ++seed) {
    std::mt19937 rng(seed);
    std::uniform_int_distribution<int> n_tasks(0, 6);
    std::uniform_int_distribution<int> size_class(0, 3);
    std::uniform_real_distribution<double> weight(0.5, 3.0);

    GpuArbiter arbiter;
    arbiter.set_device_count(nano.name(), 1 + static_cast<int>(seed % 2));
    arbiter.begin_tick();
    std::size_t submitted = 0;
    for (int session = 0; session < 3; ++session) {
      for (int camera = 0; camera < 2; ++camera) {
        std::vector<geom::SizeClassId> tasks;
        const int n = n_tasks(rng);
        for (int t = 0; t < n; ++t)
          tasks.push_back(static_cast<geom::SizeClassId>(size_class(rng)));
        submitted += tasks.size();
        arbiter.submit(session, camera, camera == 0 ? nano : xavier,
                       work(std::move(tasks), session == 0), weight(rng));
      }
    }

    TickContext ctx;
    ctx.allow_split = true;
    ctx.slo_ms = 0.5;  // tight enough to trigger splits on busy seeds
    const TickPlan plan = arbiter.plan_tick(ctx);

    double attributed = 0.0;
    for (const Attribution& a : plan.shares) attributed += a.attributed_ms;
    EXPECT_NEAR(attributed, plan.shared_busy_ms, 1e-9) << "seed " << seed;

    std::size_t deferred = 0;
    for (const DeferredSlice& slice : plan.deferred) {
      EXPECT_GT(slice.count, 0);
      deferred += static_cast<std::size_t>(slice.count);
    }
    EXPECT_LE(deferred, submitted);
    EXPECT_EQ(plan.deferred.empty(), plan.splits == 0);

    // Next tick: run ONLY the deferred slices; the two ticks together must
    // charge at least as much as executing everything (a split never makes
    // work disappear) and every deferred task is attributed somewhere.
    if (deferred > 0) {
      arbiter.begin_tick();
      for (const DeferredSlice& slice : plan.deferred) {
        std::vector<geom::SizeClassId> tasks(
            static_cast<std::size_t>(slice.count), slice.size_class);
        arbiter.submit(slice.session, slice.camera,
                       slice.camera == 0 ? nano : xavier,
                       work(std::move(tasks)));
      }
      const TickPlan follow_up = arbiter.plan_tick();  // no further splitting
      EXPECT_EQ(follow_up.splits, 0);
      EXPECT_GT(follow_up.shared_busy_ms, 0.0);
      double follow_attributed = 0.0;
      for (const Attribution& a : follow_up.shares)
        follow_attributed += a.attributed_ms;
      EXPECT_NEAR(follow_attributed, follow_up.shared_busy_ms, 1e-9);
    }
  }
}

// --------------------------------------------------------- tick wheel --

TEST(FleetTickWheel, LcmWheelFiresExactNativeRates) {
  Fleet fleet;  // frame_period 100 ms -> base rate 10 Hz
  EXPECT_EQ(fleet.wheel_hz(), 10);

  SessionSpec ten = spec("ten", 5);
  ten.fps = 10;
  SessionSpec fifteen = spec("fifteen", 6);
  fifteen.fps = 15;
  SessionSpec thirty = spec("thirty", 7);
  thirty.fps = 30;

  ASSERT_TRUE(fleet.admit(ten).admitted);
  EXPECT_EQ(fleet.wheel_hz(), 10);  // 10 divides the wheel: no growth
  ASSERT_TRUE(fleet.admit(fifteen).admitted);
  EXPECT_EQ(fleet.wheel_hz(), 30);  // lcm(10, 15)
  ASSERT_TRUE(fleet.admit(thirty).admitted);
  EXPECT_EQ(fleet.wheel_hz(), 30);  // 30 already divides

  fleet.run(30);  // exactly one second of wheel ticks
  const FleetSnapshot snap = fleet.snapshot();
  ASSERT_EQ(snap.sessions.size(), 3u);
  EXPECT_EQ(snap.sessions[0].fps, 10);
  EXPECT_EQ(snap.sessions[0].frames, 10);
  EXPECT_EQ(snap.sessions[1].fps, 15);
  EXPECT_EQ(snap.sessions[1].frames, 15);
  EXPECT_EQ(snap.sessions[2].fps, 30);
  EXPECT_EQ(snap.sessions[2].frames, 30);
  EXPECT_EQ(snap.wheel_hz, 30);
}

TEST(FleetTickWheel, WheelGrowthMidRunPreservesCadence) {
  Fleet fleet;
  SessionSpec base = spec("base", 5);  // fps 0 -> fleet base rate (10)
  ASSERT_TRUE(fleet.admit(base).admitted);
  fleet.run(5);
  EXPECT_EQ(fleet.ticks(), 5);

  // Admitting 15 fps grows the wheel x3; the tick counter and the existing
  // session's period rescale so its cadence continues exactly.
  SessionSpec fast = spec("fast", 6);
  fast.fps = 15;
  ASSERT_TRUE(fleet.admit(fast).admitted);
  EXPECT_EQ(fleet.wheel_hz(), 30);
  EXPECT_EQ(fleet.ticks(), 15);

  fleet.run(30);  // one more second
  const FleetSnapshot snap = fleet.snapshot();
  EXPECT_EQ(snap.sessions[0].frames, 5 + 10);
  EXPECT_EQ(snap.sessions[1].frames, 15);
}

TEST(FleetTickWheel, NegativeFpsIsRejected) {
  Fleet fleet;
  SessionSpec bad = spec("bad", 5);
  bad.fps = -3;
  const AdmitResult result = fleet.admit(bad);
  EXPECT_FALSE(result.admitted);
  EXPECT_EQ(fleet.snapshot().rejected, 1);
}

// ----------------------------------------------------- session config API --

TEST(FleetSessionApi, PerSessionFaultsImplyLossyTransport) {
  // The self-contained spec carries its own fault profile: a permanent
  // camera-0 dropout must flow into the session's transport without the
  // caller touching pipeline.faults.
  Fleet fleet;
  SessionSpec s = spec("faulty", 5);
  netsim::FaultConfig faults;
  faults.dropouts.push_back({0, 0, -1});  // camera 0 never comes back
  s.faults = faults;
  const AdmitResult admitted = fleet.admit(s);
  ASSERT_TRUE(admitted.admitted);
  ASSERT_TRUE(admitted.handle.valid());
  fleet.run(3);

  const runtime::PipelineResult result = fleet.result(admitted.handle);
  ASSERT_EQ(result.frames.size(), 3u);
  for (const runtime::FrameStats& f : result.frames)
    EXPECT_EQ(f.cameras_online, 1);  // S2 has 2 cameras; one is down
}

TEST(FleetSessionApi, PerSessionSloOverridesViolationAccounting) {
  // Two identical sessions, one with an impossible 0.001 ms personal SLO:
  // only that session accrues violations (the fleet-wide SLO is off).
  Fleet fleet;
  SessionSpec strict = spec("strict", 5);
  strict.slo_ms = 0.001;
  SessionSpec lax = spec("lax", 5);
  const AdmitResult strict_admit = fleet.admit(strict);
  const AdmitResult lax_admit = fleet.admit(lax);
  ASSERT_TRUE(strict_admit.admitted);
  ASSERT_TRUE(lax_admit.admitted);
  fleet.run(4);

  // Admission order is snapshot order; the handles confirm the mapping.
  const FleetSnapshot snap = fleet.snapshot();
  ASSERT_EQ(snap.sessions.size(), 2u);
  EXPECT_EQ(snap.sessions[0].handle, strict_admit.handle);
  EXPECT_EQ(snap.sessions[1].handle, lax_admit.handle);
  EXPECT_EQ(snap.sessions[0].slo_violations, 4);
  EXPECT_EQ(snap.sessions[1].slo_violations, 0);
  EXPECT_DOUBLE_EQ(snap.sessions[0].slo_ms, 0.001);
}

// ---------------------------------------------------------- re-admission --

TEST(FleetReadmission, RestoresRateThenMasksWithTraceEvents) {
  // SLO forces the second session onto the bottom ladder rung (masks + rate)
  // at admission. Permissive hysteresis thresholds let the periodic scan
  // restore one rung per interval once the first session is gone: full rate
  // first, then mask un-tightening — each with a session_readmit event.
  const double d = s2_static_demand_ms();
  FleetConfig cfg;
  cfg.slo_ms = 1.4 * d;
  cfg.assumed_tasks_per_camera = 0.0;
  cfg.readmit_interval = 5;
  cfg.readmit_low_water = 1e6;   // always scan
  cfg.readmit_high_water = 1e6;  // any projection fits
  Fleet fleet(cfg);
  runtime::TraceRecorder trace;
  fleet.attach_trace(&trace);

  const AdmitResult first = fleet.admit(spec("a", 5));
  ASSERT_TRUE(first.admitted);
  const AdmitResult second = fleet.admit(spec("b", 6));
  ASSERT_TRUE(second.admitted);
  EXPECT_TRUE(second.masks_tightened);
  EXPECT_TRUE(second.rate_halved);

  ASSERT_EQ(fleet.evict(first.handle), FleetStatus::kOk);
  fleet.run(5);  // first scan: rate rung restored
  FleetSnapshot snap = fleet.snapshot();
  EXPECT_EQ(snap.sessions[1].stride, 1);
  EXPECT_TRUE(snap.sessions[1].tight_masks);
  EXPECT_EQ(snap.readmitted, 1);
  EXPECT_EQ(trace.count(runtime::TraceEventType::kSessionReadmit), 1u);

  fleet.run(5);  // second scan: mask rung restored
  snap = fleet.snapshot();
  EXPECT_EQ(snap.sessions[1].stride, 1);
  EXPECT_FALSE(snap.sessions[1].tight_masks);
  EXPECT_EQ(snap.readmitted, 2);
  EXPECT_EQ(trace.count(runtime::TraceEventType::kSessionReadmit), 2u);

  // Fully restored: later scans are no-ops — restoration never oscillates
  // (degradation is applied only at admission).
  fleet.run(20);
  snap = fleet.snapshot();
  EXPECT_EQ(snap.readmitted, 2);
  EXPECT_EQ(snap.sessions[1].stride, 1);
  EXPECT_FALSE(snap.sessions[1].tight_masks);
  EXPECT_EQ(trace.count(runtime::TraceEventType::kSessionReadmit), 2u);
}

TEST(FleetReadmission, HysteresisKeepsDegradationUnderLoad) {
  // With the low-water mark at zero the windowed busy never falls below the
  // band, so degradation stays sticky no matter how long the fleet runs —
  // no admit/degrade/readmit oscillation under square-wave load changes.
  const double d = s2_static_demand_ms();
  FleetConfig cfg;
  cfg.slo_ms = 1.6 * d;
  cfg.assumed_tasks_per_camera = 0.0;
  cfg.readmit_interval = 3;
  cfg.readmit_low_water = 0.0;
  Fleet fleet(cfg);

  const AdmitResult first = fleet.admit(spec("a", 5));
  ASSERT_TRUE(first.admitted);
  const AdmitResult second = fleet.admit(spec("b", 6));
  ASSERT_TRUE(second.admitted);
  EXPECT_TRUE(second.rate_halved);

  // Square-wave load: pause/resume the heavy tenant repeatedly.
  for (int cycle = 0; cycle < 3; ++cycle) {
    ASSERT_EQ(fleet.pause(first.handle), FleetStatus::kOk);
    fleet.run(6);
    ASSERT_EQ(fleet.resume(first.handle), FleetStatus::kOk);
    fleet.run(6);
  }
  const FleetSnapshot snap = fleet.snapshot();
  EXPECT_EQ(snap.readmitted, 0);
  EXPECT_EQ(snap.sessions[1].stride, 2);
}

TEST(FleetReadmission, ZeroIntervalKeepsDegradationSticky) {
  const double d = s2_static_demand_ms();
  FleetConfig cfg;
  cfg.slo_ms = 1.6 * d;
  cfg.assumed_tasks_per_camera = 0.0;
  cfg.readmit_interval = 0;  // re-admission disabled
  cfg.readmit_low_water = 1e6;
  cfg.readmit_high_water = 1e6;
  Fleet fleet(cfg);
  const AdmitResult first = fleet.admit(spec("a", 5));
  ASSERT_TRUE(first.admitted);
  const AdmitResult second = fleet.admit(spec("b", 6));
  ASSERT_TRUE(second.admitted);
  EXPECT_TRUE(second.rate_halved);
  ASSERT_EQ(fleet.evict(first.handle), FleetStatus::kOk);
  fleet.run(12);
  EXPECT_EQ(fleet.snapshot().readmitted, 0);
  EXPECT_EQ(fleet.snapshot().sessions[1].stride, 2);
}

// ---------------------------------------------------------- re-degrading --

TEST(FleetRedegrade, TightensMasksThenHalvesRateHighestIdFirst) {
  // High-water mark at zero: every scan sees mean busy above the mark, so
  // each interval applies exactly ONE degrade rung. Order is the mirror of
  // re-admission: masks tighten first (cheapest in latency), then the rate
  // halves; the highest session id degrades first so the longest-served
  // tenants keep quality longest. Each rung emits a session_redegrade event.
  const double d = s2_static_demand_ms();
  FleetConfig cfg;
  cfg.slo_ms = 100.0 * d;  // everything admits undegraded
  cfg.assumed_tasks_per_camera = 0.0;
  cfg.readmit_interval = 5;
  cfg.readmit_low_water = 0.0;
  cfg.readmit_high_water = 0.0;  // any busy at all exceeds the mark
  Fleet fleet(cfg);
  runtime::TraceRecorder trace;
  fleet.attach_trace(&trace);

  const AdmitResult first = fleet.admit(spec("a", 5));
  const AdmitResult second = fleet.admit(spec("b", 6));
  ASSERT_TRUE(first.admitted);
  ASSERT_TRUE(second.admitted);
  EXPECT_FALSE(second.masks_tightened);
  EXPECT_FALSE(second.rate_halved);

  fleet.run(5);  // scan 1: session 1 (highest id) tightens masks
  FleetSnapshot snap = fleet.snapshot();
  EXPECT_TRUE(snap.sessions[1].tight_masks);
  EXPECT_EQ(snap.sessions[1].stride, 1);
  EXPECT_FALSE(snap.sessions[0].tight_masks);
  EXPECT_EQ(snap.redegraded, 1);
  EXPECT_EQ(trace.count(runtime::TraceEventType::kSessionRedegrade), 1u);

  fleet.run(5);  // scan 2: session 0 tightens masks
  snap = fleet.snapshot();
  EXPECT_TRUE(snap.sessions[0].tight_masks);
  EXPECT_EQ(snap.sessions[0].stride, 1);
  EXPECT_EQ(snap.redegraded, 2);

  fleet.run(5);  // scan 3: masks exhausted; session 1 halves its rate
  snap = fleet.snapshot();
  EXPECT_EQ(snap.sessions[1].stride, 2);
  EXPECT_EQ(snap.sessions[0].stride, 1);
  EXPECT_EQ(snap.redegraded, 3);

  fleet.run(5);  // scan 4: session 0 halves its rate
  snap = fleet.snapshot();
  EXPECT_EQ(snap.sessions[0].stride, 2);
  EXPECT_EQ(snap.redegraded, 4);

  // Ladder exhausted: further scans change nothing, and with the high-water
  // ceiling at zero nothing ever re-admits either.
  fleet.run(20);
  snap = fleet.snapshot();
  EXPECT_EQ(snap.redegraded, 4);
  EXPECT_EQ(snap.readmitted, 0);
  EXPECT_EQ(trace.count(runtime::TraceEventType::kSessionRedegrade), 4u);
}

TEST(FleetRedegrade, HysteresisBandChangesNothingEitherWay) {
  // Mean busy sits between the water marks (low 0, high huge): neither the
  // re-admission path nor the re-degrade path may fire — the band is the
  // hysteresis that keeps rungs from flapping.
  const double d = s2_static_demand_ms();
  FleetConfig cfg;
  cfg.slo_ms = 100.0 * d;
  cfg.assumed_tasks_per_camera = 0.0;
  cfg.readmit_interval = 3;
  cfg.readmit_low_water = 0.0;
  cfg.readmit_high_water = 1e6;
  Fleet fleet(cfg);

  ASSERT_TRUE(fleet.admit(spec("a", 5)).admitted);
  ASSERT_TRUE(fleet.admit(spec("b", 6)).admitted);
  fleet.run(30);

  const FleetSnapshot snap = fleet.snapshot();
  EXPECT_EQ(snap.redegraded, 0);
  EXPECT_EQ(snap.readmitted, 0);
  for (const SessionSnapshot& s : snap.sessions) {
    EXPECT_EQ(s.stride, 1);
    EXPECT_FALSE(s.tight_masks);
  }
}

TEST(FleetRedegrade, AllowDegradeOffDisablesTheDownLadder) {
  const double d = s2_static_demand_ms();
  FleetConfig cfg;
  cfg.slo_ms = 100.0 * d;
  cfg.assumed_tasks_per_camera = 0.0;
  cfg.allow_degrade = false;
  cfg.readmit_interval = 3;
  cfg.readmit_low_water = 0.0;
  cfg.readmit_high_water = 0.0;  // permanent pressure, but degrading is off
  Fleet fleet(cfg);

  ASSERT_TRUE(fleet.admit(spec("a", 5)).admitted);
  fleet.run(15);

  const FleetSnapshot snap = fleet.snapshot();
  EXPECT_EQ(snap.redegraded, 0);
  EXPECT_EQ(snap.sessions[0].stride, 1);
  EXPECT_FALSE(snap.sessions[0].tight_masks);
}

// ------------------------------------------------------------- admission --

TEST(FleetAdmission, DegradeLadderThenReject) {
  const double d = s2_static_demand_ms();
  FleetConfig cfg;
  cfg.slo_ms = 1.6 * d;
  cfg.assumed_tasks_per_camera = 0.0;
  Fleet fleet(cfg);
  runtime::TraceRecorder trace;
  fleet.attach_trace(&trace);

  // First session fits undegraded (d <= 1.6 d).
  const AdmitResult first = fleet.admit(spec("a", 5));
  EXPECT_TRUE(first.admitted);
  EXPECT_FALSE(first.masks_tightened);
  EXPECT_FALSE(first.rate_halved);
  EXPECT_NEAR(first.projected_ms, d, 1e-9);

  // Second exceeds the SLO (2 d); mask tightening (1.75 d) still exceeds,
  // rate halving (1.5 d) fits.
  const AdmitResult second = fleet.admit(spec("b", 6));
  EXPECT_TRUE(second.admitted);
  EXPECT_FALSE(second.masks_tightened);
  EXPECT_TRUE(second.rate_halved);
  EXPECT_NEAR(second.projected_ms, 1.5 * d, 1e-9);

  // Third cannot fit even fully degraded (1.5 d + 0.375 d > 1.6 d).
  const AdmitResult third = fleet.admit(spec("c", 7));
  EXPECT_FALSE(third.admitted);
  EXPECT_FALSE(third.handle.valid());
  EXPECT_FALSE(third.reason.empty());

  const FleetSnapshot snap = fleet.snapshot();
  EXPECT_EQ(snap.admitted, 2);
  EXPECT_EQ(snap.rejected, 1);
  ASSERT_EQ(snap.sessions.size(), 2u);
  EXPECT_EQ(snap.sessions[0].stride, 1);
  EXPECT_EQ(snap.sessions[1].stride, 2);
  EXPECT_EQ(trace.count(runtime::TraceEventType::kSessionAdmit), 2u);
  EXPECT_EQ(trace.count(runtime::TraceEventType::kSessionReject), 1u);
}

TEST(FleetAdmission, MaskTighteningIsTheFirstRung) {
  const double d = s2_static_demand_ms();
  FleetConfig cfg;
  cfg.slo_ms = 1.8 * d;
  cfg.assumed_tasks_per_camera = 0.0;
  Fleet fleet(cfg);
  ASSERT_TRUE(fleet.admit(spec("a", 5)).admitted);
  // 2 d > 1.8 d, but tightened masks (d + 0.75 d = 1.75 d) fit without
  // touching the frame rate.
  const AdmitResult second = fleet.admit(spec("b", 6));
  EXPECT_TRUE(second.admitted);
  EXPECT_TRUE(second.masks_tightened);
  EXPECT_FALSE(second.rate_halved);
  const FleetSnapshot snap = fleet.snapshot();
  EXPECT_TRUE(snap.sessions[1].tight_masks);
  EXPECT_EQ(snap.sessions[1].stride, 1);
}

TEST(FleetAdmission, NoDegradeMeansOutrightRejection) {
  const double d = s2_static_demand_ms();
  FleetConfig cfg;
  cfg.slo_ms = 1.9 * d;
  cfg.assumed_tasks_per_camera = 0.0;
  cfg.allow_degrade = false;
  Fleet fleet(cfg);
  ASSERT_TRUE(fleet.admit(spec("a", 5)).admitted);
  const AdmitResult second = fleet.admit(spec("b", 6));
  EXPECT_FALSE(second.admitted);
  EXPECT_EQ(fleet.snapshot().rejected, 1);
}

TEST(FleetAdmission, NoSloAdmitsEverything) {
  Fleet fleet;  // slo_ms = 0: admission control off
  EXPECT_TRUE(fleet.admit(spec("a", 5)).admitted);
  EXPECT_TRUE(fleet.admit(spec("b", 6)).admitted);
  EXPECT_EQ(fleet.session_count(), 2u);
  EXPECT_EQ(fleet.snapshot().rejected, 0);
}

TEST(FleetAdmission, DetectOrTrackPolicyScalesPartialDemand) {
  // A session running a detect-or-track policy submits partial-frame work
  // on only expected_detect_ratio of its regular frames, so the admission
  // estimator scales the partial term by exactly that factor; full-frame
  // key inspections are never skipped and stay un-scaled.
  FleetConfig cfg;
  cfg.slo_ms = 1e6;  // admission on, nothing rejected
  cfg.assumed_tasks_per_camera = 2.0;

  Fleet fixed_fleet(cfg);
  const AdmitResult fixed = fixed_fleet.admit(spec("fixed", 5));
  ASSERT_TRUE(fixed.admitted);

  Fleet tracked_fleet(cfg);
  SessionSpec tracked_spec = spec("tracked", 5);
  tracked_spec.pipeline.frame_policy.kind = policy::PolicyKind::kHeuristic;
  tracked_spec.pipeline.frame_policy.expected_detect_ratio = 0.5;
  const AdmitResult tracked = tracked_fleet.admit(tracked_spec);
  ASSERT_TRUE(tracked.admitted);

  EXPECT_LT(tracked.projected_ms, fixed.projected_ms);
  const double partial = fixed.projected_ms - s2_static_demand_ms();
  ASSERT_GT(partial, 0.0);
  EXPECT_NEAR(tracked.projected_ms, s2_static_demand_ms() + 0.5 * partial,
              1e-9);
}

TEST(FleetAdmission, DispatchOverheadRaisesProjectedDemand) {
  // With one batch firing per camera-frame, a fixed-cadence S2 deployment
  // over two single-device pools is charged exactly one overhead per
  // device per frame on top of the ideal estimate.
  FleetConfig cfg;
  cfg.slo_ms = 1e6;
  cfg.assumed_tasks_per_camera = 1.0;
  Fleet ideal(cfg);
  cfg.dispatch_overhead_ms = 2.0;
  Fleet charged(cfg);

  const AdmitResult base = ideal.admit(spec("a", 5));
  const AdmitResult loaded = charged.admit(spec("a", 5));
  ASSERT_TRUE(base.admitted);
  ASSERT_TRUE(loaded.admitted);
  EXPECT_NEAR(loaded.projected_ms,
              base.projected_ms + 2 * cfg.dispatch_overhead_ms, 1e-9);
}

TEST(FleetAdmission, WiderPoolsHalveIncrementalDemand) {
  // Doubling every device pool halves the per-frame cost the estimator
  // charges the NEXT deployment (already-admitted sessions keep the static
  // estimate taken at their own admit time).
  FleetConfig cfg;
  cfg.slo_ms = 1e6;
  cfg.assumed_tasks_per_camera = 1.0;
  Fleet fleet(cfg);
  const AdmitResult first = fleet.admit(spec("a", 5));
  ASSERT_TRUE(first.admitted);

  for (const auto& [name, count] : fleet.snapshot().device_pools)
    EXPECT_EQ(fleet.scale_devices(name, +1), count + 1);

  const AdmitResult second = fleet.admit(spec("b", 6));
  ASSERT_TRUE(second.admitted);
  EXPECT_NEAR(second.projected_ms - first.projected_ms,
              0.5 * first.projected_ms, 1e-9);
}

// ------------------------------------------------------------- lifecycle --

TEST(FleetLifecycle, PauseResumeEvictTransitions) {
  Fleet fleet;
  runtime::TraceRecorder trace;
  fleet.attach_trace(&trace);
  const SessionHandle h = fleet.admit(spec("a", 5)).handle;
  ASSERT_TRUE(h.valid());
  EXPECT_EQ(fleet.state(h), SessionState::kActive);

  fleet.step();
  EXPECT_EQ(fleet.result(h).frames.size(), 1u);

  // Paused sessions consume no ticks.
  EXPECT_EQ(fleet.pause(h), FleetStatus::kOk);
  EXPECT_EQ(fleet.state(h), SessionState::kPaused);
  EXPECT_EQ(fleet.pause(h), FleetStatus::kInvalidState);  // already paused
  fleet.run(2);
  EXPECT_EQ(fleet.result(h).frames.size(), 1u);

  EXPECT_EQ(fleet.resume(h), FleetStatus::kOk);
  EXPECT_EQ(fleet.resume(h), FleetStatus::kInvalidState);  // already active
  fleet.step();
  EXPECT_EQ(fleet.result(h).frames.size(), 2u);

  // Eviction is final; the result survives the pipeline's destruction.
  EXPECT_EQ(fleet.evict(h), FleetStatus::kOk);
  EXPECT_EQ(fleet.state(h), SessionState::kEvicted);
  EXPECT_EQ(fleet.evict(h), FleetStatus::kInvalidState);
  EXPECT_EQ(fleet.pause(h), FleetStatus::kInvalidState);
  EXPECT_EQ(fleet.resume(h), FleetStatus::kInvalidState);
  EXPECT_EQ(fleet.session_count(), 0u);
  EXPECT_EQ(fleet.result(h).frames.size(), 2u);
  fleet.step();
  EXPECT_EQ(fleet.result(h).frames.size(), 2u);

  EXPECT_EQ(trace.count(runtime::TraceEventType::kSessionPause), 1u);
  EXPECT_EQ(trace.count(runtime::TraceEventType::kSessionResume), 1u);
  EXPECT_EQ(trace.count(runtime::TraceEventType::kSessionEvict), 1u);

  // Unknown ids: every transition refuses typed, state reads evicted.
  const SessionHandle unknown{99, 1};
  EXPECT_EQ(fleet.pause(unknown), FleetStatus::kUnknownSession);
  EXPECT_EQ(fleet.evict(unknown), FleetStatus::kUnknownSession);
  EXPECT_EQ(fleet.state(unknown), SessionState::kEvicted);
}

TEST(FleetLifecycle, ReleaseRecyclesTheSlotUnderABumpedGeneration) {
  // release() is the end of the handle's life: the retained result is
  // dropped, the slot goes back on the free list, and the NEXT admission
  // reuses it under gen + 1 — so the old handle (and any copy) is detected
  // as stale instead of silently addressing the new tenant.
  Fleet fleet;
  const SessionHandle h = fleet.admit(spec("a", 5)).handle;
  ASSERT_TRUE(h.valid());
  fleet.run(2);

  // Releasing a live session is refused; evict first.
  EXPECT_EQ(fleet.release(h), FleetStatus::kInvalidState);
  ASSERT_EQ(fleet.evict(h), FleetStatus::kOk);
  FleetStatus status = FleetStatus::kOk;
  EXPECT_EQ(fleet.result(h, &status).frames.size(), 2u);
  EXPECT_EQ(status, FleetStatus::kOk);

  ASSERT_EQ(fleet.release(h), FleetStatus::kOk);
  EXPECT_EQ(fleet.release(h), FleetStatus::kStaleHandle);  // idempotent-safe
  EXPECT_TRUE(fleet.result(h, &status).frames.empty());
  EXPECT_EQ(status, FleetStatus::kStaleHandle);
  EXPECT_EQ(fleet.pause(h), FleetStatus::kStaleHandle);
  EXPECT_EQ(fleet.state(h), SessionState::kEvicted);

  // The recycled slot reuses the id with a bumped generation; the new
  // tenant is addressable while the old handle stays permanently stale.
  const SessionHandle next = fleet.admit(spec("b", 6)).handle;
  ASSERT_TRUE(next.valid());
  EXPECT_EQ(next.id, h.id);
  EXPECT_EQ(next.gen, h.gen + 1);
  EXPECT_EQ(fleet.state(next), SessionState::kActive);
  EXPECT_EQ(fleet.pause(h), FleetStatus::kStaleHandle);
}

// -------------------------------------------------------------- dispatch --

TEST(FleetDispatch, WeightedPriorityStarvesTheLightSession) {
  // SLO admits both sessions undegraded on the static estimate (2 d fits),
  // but once a session has run a key frame its observed demand (full-frame
  // inspections on both cameras) exceeds the whole SLO, so every later tick
  // can run exactly one session. Weighted dispatch always picks the heavy
  // one; the light session is deferred from tick 1 on.
  const double d = s2_static_demand_ms();
  FleetConfig cfg;
  cfg.slo_ms = 2.0 * d + 1.0;
  cfg.assumed_tasks_per_camera = 0.0;
  cfg.dispatch = DispatchPolicy::kWeightedPriority;
  Fleet fleet(cfg);
  runtime::TraceRecorder trace;
  fleet.attach_trace(&trace);
  ASSERT_TRUE(fleet.admit(spec("heavy", 5, /*weight=*/2.0)).admitted);
  ASSERT_TRUE(fleet.admit(spec("light", 6, /*weight=*/1.0)).admitted);

  fleet.run(8);
  const FleetSnapshot snap = fleet.snapshot();
  ASSERT_EQ(snap.sessions.size(), 2u);
  EXPECT_EQ(snap.sessions[0].frames, 8);
  EXPECT_EQ(snap.sessions[0].deferred_ticks, 0);
  EXPECT_EQ(snap.sessions[1].frames, 1);  // only the un-contended tick 0
  EXPECT_EQ(snap.sessions[1].deferred_ticks, 7);
  EXPECT_EQ(trace.count(runtime::TraceEventType::kSessionDefer), 7u);
  EXPECT_GT(snap.mean_queue_depth, 0.0);
}

TEST(FleetDispatch, RoundRobinSharesTheDeferralBurden) {
  const double d = s2_static_demand_ms();
  FleetConfig cfg;
  cfg.slo_ms = 2.0 * d + 1.0;
  cfg.assumed_tasks_per_camera = 0.0;
  cfg.dispatch = DispatchPolicy::kRoundRobin;
  Fleet fleet(cfg);
  ASSERT_TRUE(fleet.admit(spec("a", 5)).admitted);
  ASSERT_TRUE(fleet.admit(spec("b", 6)).admitted);

  fleet.run(8);
  const FleetSnapshot snap = fleet.snapshot();
  // Tick 0 runs both (static estimates fit); afterwards the rotation
  // alternates which session runs, so frames and deferrals split evenly.
  EXPECT_GE(snap.sessions[0].frames, 4);
  EXPECT_GE(snap.sessions[1].frames, 4);
  EXPECT_GT(snap.sessions[0].deferred_ticks, 0);
  EXPECT_GT(snap.sessions[1].deferred_ticks, 0);
  EXPECT_LE(std::abs(snap.sessions[0].frames - snap.sessions[1].frames), 1);
}

TEST(FleetDispatch, ParseDispatchNames) {
  EXPECT_EQ(parse_dispatch("rr"), DispatchPolicy::kRoundRobin);
  EXPECT_EQ(parse_dispatch("Round-Robin"), DispatchPolicy::kRoundRobin);
  EXPECT_EQ(parse_dispatch("weighted"), DispatchPolicy::kWeightedPriority);
  EXPECT_EQ(parse_dispatch("weighted-priority"),
            DispatchPolicy::kWeightedPriority);
  EXPECT_FALSE(parse_dispatch("fifo").has_value());
}

// --------------------------------------------------------------- rollups --

TEST(FleetRollups, CrossSessionBatchingBeatsIsolatedDevices) {
  // Two identical S2 deployments share one xavier-class and one nano-class
  // queue: their regular-frame task multisets merge into fewer, fuller
  // batches than dedicated per-session devices would run.
  Fleet fleet;
  ASSERT_TRUE(fleet.admit(spec("a", 5)).admitted);
  ASSERT_TRUE(fleet.admit(spec("b", 6)).admitted);
  fleet.run(15);

  const FleetSnapshot snap = fleet.snapshot();
  EXPECT_EQ(snap.ticks, 15);
  EXPECT_LT(snap.shared_batches, snap.isolated_batches);
  EXPECT_LT(snap.shared_busy_ms, snap.isolated_busy_ms);
  EXPECT_GT(snap.mean_occupancy, 0.0);
  EXPECT_GT(snap.p95_tick_busy_ms, 0.0);
  for (const SessionSnapshot& s : snap.sessions) {
    EXPECT_EQ(s.frames, 15);
    EXPECT_GT(s.p50_ms, 0.0);
    EXPECT_LE(s.p50_ms, s.p95_ms);
    EXPECT_LE(s.p95_ms, s.p99_ms);
  }
}

TEST(FleetRollups, SnapshotJsonRoundTrips) {
  Fleet fleet;
  ASSERT_TRUE(fleet.admit(spec("json-session", 5)).admitted);
  fleet.run(3);
  const std::string text = fleet.snapshot().to_json();
  std::string error;
  const auto doc = util::Json::parse(text, &error);
  ASSERT_TRUE(doc.has_value()) << error;
  const util::Json* fleet_obj = doc->find("fleet");
  ASSERT_NE(fleet_obj, nullptr);
  EXPECT_DOUBLE_EQ(fleet_obj->number_or("ticks", -1.0), 3.0);
  EXPECT_GT(fleet_obj->number_or("shared_batches", -1.0), 0.0);
  const util::Json* sessions = doc->find("sessions");
  ASSERT_NE(sessions, nullptr);
  ASSERT_EQ(sessions->as_array().size(), 1u);
  const util::Json& s = sessions->as_array()[0];
  EXPECT_EQ(s.string_or("name", ""), "json-session");
  EXPECT_EQ(s.string_or("state", ""), "active");
  EXPECT_DOUBLE_EQ(s.number_or("frames", -1.0), 3.0);
}

// -------------------------------------------------------- split carryover --

TEST(FleetSplitDebt, DeferredTasksRunOnTheOwnersNextTick) {
  // Tasks a batch split defers become the owning camera's carryover debt,
  // and the session's next stepped submission must carry them: every tick
  // executes exactly what its sessions generated plus the debt they owed,
  // minus what it defers again.
  FleetConfig cfg;
  cfg.slo_ms = 1200.0;
  cfg.allow_split = true;
  cfg.assumed_tasks_per_camera = 8.0;
  util::ThreadPool pool(2);
  Shard shard(cfg, 0, &pool);
  std::vector<int> ids;
  for (int i = 0; i < 4; ++i) {
    SessionSpec s = spec("synthetic-" + std::to_string(i),
                         static_cast<std::uint64_t>(40 + i),
                         /*weight=*/1.0 + (i % 2));
    s.scenario = "S1";
    s.synthetic = true;
    AdmitResult result;
    const SessionRecord* rec = shard.admit(s, &result);
    ASSERT_NE(rec, nullptr) << result.reason;
    ids.push_back(rec->id);
  }

  auto debt_of = [](const SessionRecord& rec) {
    long n = 0;
    for (const auto& cam : rec.carryover) n += static_cast<long>(cam.size());
    return n;
  };
  long ticks_paying_debt = 0;
  for (int t = 0; t < 200; ++t) {
    std::vector<long> frames_before, debt_before;
    for (int id : ids) {
      const SessionRecord* rec = shard.find(id);
      frames_before.push_back(rec->synth->frames());
      debt_before.push_back(debt_of(*rec));
    }
    shard.step();
    long owed = 0, paid = 0;
    for (std::size_t k = 0; k < ids.size(); ++k) {
      const SessionRecord* rec = shard.find(ids[k]);
      if (rec->synth->frames() == frames_before[k]) continue;  // deferred
      for (const runtime::CameraGpuWork& w : rec->synth->last_gpu_work())
        owed += static_cast<long>(w.tasks.size());
      owed += debt_before[k];
      paid += debt_before[k];
    }
    long executed = 0, deferred = 0;
    for (const MergeCell& cell : shard.last_plan().cells)
      executed += cell.count;
    for (const DeferredSlice& slice : shard.last_plan().deferred)
      deferred += slice.count;
    EXPECT_EQ(executed, owed - deferred) << "tick " << t;
    ticks_paying_debt += paid > 0 ? 1 : 0;
  }
  EXPECT_GE(ticks_paying_debt, 10);
}

// ----------------------------------------------------------- determinism --

TEST(FleetDeterminism, IdenticalAcrossThreadCounts) {
  auto build = [](int threads) {
    FleetConfig cfg;
    cfg.threads = threads;
    auto fleet = std::make_unique<Fleet>(cfg);
    EXPECT_TRUE(fleet->admit(spec("a", 21)).admitted);
    EXPECT_TRUE(fleet->admit(spec("b", 22)).admitted);
    fleet->run(12);
    return fleet;
  };
  const auto narrow = build(1);
  const auto wide = build(8);

  const FleetSnapshot sn = narrow->snapshot();
  const FleetSnapshot sw = wide->snapshot();
  EXPECT_EQ(sn.shared_batches, sw.shared_batches);
  EXPECT_EQ(sn.isolated_batches, sw.isolated_batches);
  EXPECT_DOUBLE_EQ(sn.shared_busy_ms, sw.shared_busy_ms);
  EXPECT_DOUBLE_EQ(sn.isolated_busy_ms, sw.isolated_busy_ms);
  ASSERT_EQ(sn.sessions.size(), sw.sessions.size());
  for (std::size_t i = 0; i < sn.sessions.size(); ++i) {
    EXPECT_EQ(sn.sessions[i].frames, sw.sessions[i].frames);
    EXPECT_DOUBLE_EQ(sn.sessions[i].mean_ms, sw.sessions[i].mean_ms);
    EXPECT_DOUBLE_EQ(sn.sessions[i].p95_ms, sw.sessions[i].p95_ms);
    EXPECT_DOUBLE_EQ(sn.sessions[i].object_recall,
                     sw.sessions[i].object_recall);
  }
  for (std::size_t i = 0; i < sn.sessions.size(); ++i) {
    const runtime::PipelineResult rn = narrow->result(sn.sessions[i].handle);
    const runtime::PipelineResult rw = wide->result(sw.sessions[i].handle);
    EXPECT_DOUBLE_EQ(rn.object_recall, rw.object_recall);
    ASSERT_EQ(rn.frames.size(), rw.frames.size());
    for (std::size_t f = 0; f < rn.frames.size(); ++f) {
      EXPECT_DOUBLE_EQ(rn.frames[f].slowest_infer_ms,
                       rw.frames[f].slowest_infer_ms);
      EXPECT_EQ(rn.frames[f].tracked_objects, rw.frames[f].tracked_objects);
    }
  }
}

}  // namespace
}  // namespace mvs::fleet
