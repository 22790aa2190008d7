// Serving plane tests across shards (mvs::fleet::Fleet).
//
// Pins the plane-level guarantees from DESIGN.md §13 — conservation of
// per-session stats across live migration, deterministic least-loaded
// placement independent of the worker-pool width, the second merge
// level's exact-zero saving at one shard, wheels that grow only for
// admitted sessions, and rebalance scans that leave sessions untouched
// unless they move one — plus the typed handle-error surface on the
// directory, the merged metrics exposition and a 1k-session synthetic
// admission smoke.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <optional>

#include "fleet/fleet_api.hpp"
#include "obs/obs.hpp"
#include "runtime/trace.hpp"
#include "util/json.hpp"

namespace mvs::fleet {
namespace {

SessionSpec pipeline_spec(const std::string& name, std::uint64_t seed,
                          int fps = 0) {
  SessionSpec s;
  s.name = name;
  s.scenario = "S2";
  s.pipeline.policy = runtime::Policy::kBalb;
  s.pipeline.horizon_frames = 10;
  s.pipeline.training_frames = 120;
  s.pipeline.seed = seed;
  s.fps = fps;
  return s;
}

/// "s<i>". Appended rather than written "s" + std::to_string(i), which
/// GCC 12 at -O3 flags with a false -Wrestrict.
std::string session_name(int i) {
  std::string name = "s";
  name += std::to_string(i);
  return name;
}

SessionSpec synthetic_spec(const std::string& name, std::uint64_t seed) {
  SessionSpec s;
  s.name = name;
  s.scenario = "S2";
  s.synthetic = true;
  s.pipeline.seed = seed;
  return s;
}

void expect_sessions_identical(const FleetSnapshot& a, const FleetSnapshot& b) {
  ASSERT_EQ(a.sessions.size(), b.sessions.size());
  for (std::size_t i = 0; i < a.sessions.size(); ++i) {
    const SessionSnapshot& x = a.sessions[i];
    const SessionSnapshot& y = b.sessions[i];
    EXPECT_EQ(x.handle, y.handle) << i;
    EXPECT_EQ(x.shard, y.shard) << i;
    EXPECT_EQ(x.name, y.name) << i;
    EXPECT_EQ(x.state, y.state) << i;
    EXPECT_EQ(x.fps, y.fps) << i;
    EXPECT_EQ(x.stride, y.stride) << i;
    EXPECT_EQ(x.tight_masks, y.tight_masks) << i;
    EXPECT_EQ(x.frames, y.frames) << i;
    EXPECT_EQ(x.deferred_ticks, y.deferred_ticks) << i;
    EXPECT_EQ(x.slo_violations, y.slo_violations) << i;
    EXPECT_DOUBLE_EQ(x.p50_ms, y.p50_ms) << i;
    EXPECT_DOUBLE_EQ(x.p95_ms, y.p95_ms) << i;
    EXPECT_DOUBLE_EQ(x.p99_ms, y.p99_ms) << i;
    EXPECT_DOUBLE_EQ(x.mean_ms, y.mean_ms) << i;
    EXPECT_DOUBLE_EQ(x.mean_isolated_ms, y.mean_isolated_ms) << i;
    EXPECT_DOUBLE_EQ(x.mean_queue_ms, y.mean_queue_ms) << i;
    EXPECT_DOUBLE_EQ(x.busy_sum_ms, y.busy_sum_ms) << i;
    EXPECT_EQ(x.retries, y.retries) << i;
    EXPECT_EQ(x.dropped_msgs, y.dropped_msgs) << i;
    EXPECT_DOUBLE_EQ(x.object_recall, y.object_recall) << i;
  }
}

/// Bit-exact equality on every plane-level snapshot field and every
/// session row (the per-shard rollups are not compared).
void expect_snapshot_identical(const FleetSnapshot& a, const FleetSnapshot& b) {
  EXPECT_EQ(a.ticks, b.ticks);
  EXPECT_EQ(a.wheel_hz, b.wheel_hz);
  EXPECT_EQ(a.admitted, b.admitted);
  EXPECT_EQ(a.rejected, b.rejected);
  EXPECT_EQ(a.evicted, b.evicted);
  EXPECT_EQ(a.readmitted, b.readmitted);
  EXPECT_EQ(a.redegraded, b.redegraded);
  EXPECT_EQ(a.migrations, b.migrations);
  EXPECT_EQ(a.batch_splits, b.batch_splits);
  EXPECT_EQ(a.shared_batches, b.shared_batches);
  EXPECT_EQ(a.isolated_batches, b.isolated_batches);
  EXPECT_DOUBLE_EQ(a.shared_busy_ms, b.shared_busy_ms);
  EXPECT_DOUBLE_EQ(a.isolated_busy_ms, b.isolated_busy_ms);
  EXPECT_DOUBLE_EQ(a.total_queue_ms, b.total_queue_ms);
  EXPECT_EQ(a.cross_batches_saved, b.cross_batches_saved);
  EXPECT_DOUBLE_EQ(a.cross_busy_saved_ms, b.cross_busy_saved_ms);
  EXPECT_EQ(a.total_retries, b.total_retries);
  EXPECT_EQ(a.total_dropped_msgs, b.total_dropped_msgs);
  EXPECT_DOUBLE_EQ(a.mean_occupancy, b.mean_occupancy);
  EXPECT_DOUBLE_EQ(a.p95_tick_busy_ms, b.p95_tick_busy_ms);
  EXPECT_DOUBLE_EQ(a.mean_queue_depth, b.mean_queue_depth);
  EXPECT_EQ(a.device_pools, b.device_pools);
  expect_sessions_identical(a, b);
}

// ------------------------------------------------------------ make_fleet --

TEST(FleetPlane, MakeFleetBuildsThePlaneAtEveryShardCount) {
  FleetConfig cfg;
  const std::unique_ptr<Fleet> one = make_fleet(cfg);
  EXPECT_EQ(one->snapshot().shards, 1);
  EXPECT_EQ(one->snapshot().shard_rollups.size(), 1u);
  cfg.shards = 4;
  const std::unique_ptr<Fleet> four = make_fleet(cfg);
  EXPECT_EQ(four->snapshot().shards, 4);
  EXPECT_EQ(four->snapshot().shard_rollups.size(), 4u);
}

// ------------------------------------------------------- live migration --

TEST(FleetPlane, ForcedMigrationConservesSessionStats) {
  // Mid-run migration must move the session's record whole: frame count,
  // attributed busy, latency stats and identity are exactly what they were
  // the tick before the move, and the session keeps serving on its native
  // cadence afterwards — a twin plane that never migrates finishes with
  // the same per-session frame counts.
  FleetConfig cfg;
  cfg.shards = 2;
  Fleet fleet(cfg);
  Fleet twin(cfg);

  std::vector<SessionHandle> handles;
  std::vector<SessionHandle> twin_handles;
  for (int i = 0; i < 4; ++i) {
    const std::string name = session_name(i);
    const AdmitResult r = fleet.admit(synthetic_spec(name, 100 + i));
    const AdmitResult t = twin.admit(synthetic_spec(name, 100 + i));
    ASSERT_TRUE(r.admitted);
    EXPECT_EQ(r.shard, t.shard);
    handles.push_back(r.handle);
    twin_handles.push_back(t.handle);
  }
  fleet.run(9);
  twin.run(9);

  const FleetSnapshot before = fleet.snapshot();
  const SessionSnapshot& victim_before = before.sessions[0];
  const int source = victim_before.shard;
  const int target = 1 - source;

  ASSERT_EQ(fleet.migrate(handles[0], target), FleetStatus::kOk);
  EXPECT_EQ(fleet.migrate(handles[0], target), FleetStatus::kInvalidState);
  EXPECT_EQ(fleet.snapshot().migrations, 1);

  // Everything the session accumulated crossed the shard boundary intact.
  const FleetSnapshot after = fleet.snapshot();
  const SessionSnapshot* moved = nullptr;
  for (const SessionSnapshot& s : after.sessions)
    if (s.handle == handles[0]) moved = &s;
  ASSERT_NE(moved, nullptr);
  EXPECT_EQ(moved->shard, target);
  EXPECT_EQ(moved->state, SessionState::kActive);
  EXPECT_EQ(moved->frames, victim_before.frames);
  EXPECT_DOUBLE_EQ(moved->busy_sum_ms, victim_before.busy_sum_ms);
  EXPECT_DOUBLE_EQ(moved->mean_ms, victim_before.mean_ms);
  EXPECT_DOUBLE_EQ(moved->p95_ms, victim_before.p95_ms);

  // Cadence-exact handover: the migrated session serves exactly as many
  // frames as its never-migrated twin.
  fleet.run(9);
  twin.run(9);
  const FleetSnapshot done = fleet.snapshot();
  const FleetSnapshot twin_done = twin.snapshot();
  long frames = 0, twin_frames = 0;
  for (const SessionSnapshot& s : done.sessions) {
    frames += s.frames;
    if (s.handle == handles[0]) {
      EXPECT_EQ(s.frames, 18);
    }
  }
  for (const SessionSnapshot& s : twin_done.sessions) twin_frames += s.frames;
  EXPECT_EQ(frames, twin_frames);
  EXPECT_EQ(done.migrations, 1);
  EXPECT_EQ(twin_done.migrations, 0);

  // The outer handle survived the move: lifecycle calls keep working.
  EXPECT_EQ(fleet.pause(handles[0]), FleetStatus::kOk);
  EXPECT_EQ(fleet.resume(handles[0]), FleetStatus::kOk);
}

TEST(FleetPlane, RebalanceScanMigratesOffTheHottestShard) {
  // Engineer an imbalance the scan must fix: admit eight sessions (they
  // place four per shard), then evict three of one shard's four. The next
  // scans see the survivor shard's windowed busy far above the high-water
  // band and move one session per scan toward balance, each emitting a
  // session_migrate trace event.
  FleetConfig cfg;
  cfg.shards = 2;
  cfg.rebalance_interval = 5;
  Fleet fleet(cfg);
  runtime::TraceRecorder trace;
  fleet.attach_trace(&trace);

  std::vector<AdmitResult> admits;
  for (int i = 0; i < 8; ++i)
    admits.push_back(fleet.admit(synthetic_spec(session_name(i),
                                                200 + i)));
  int evicted = 0;
  for (const AdmitResult& r : admits) {
    ASSERT_TRUE(r.admitted);
    if (r.shard == 1 && evicted < 3) {
      ASSERT_EQ(fleet.evict(r.handle), FleetStatus::kOk);
      ++evicted;
    }
  }
  ASSERT_EQ(evicted, 3);

  fleet.run(20);
  const FleetSnapshot snap = fleet.snapshot();
  EXPECT_GE(snap.migrations, 1);
  EXPECT_EQ(trace.count(runtime::TraceEventType::kSessionMigrate),
            static_cast<std::size_t>(snap.migrations));
  // Rebalance converged: shard session counts differ by at most one.
  ASSERT_EQ(snap.shard_rollups.size(), 2u);
  EXPECT_LE(std::abs(snap.shard_rollups[0].sessions -
                     snap.shard_rollups[1].sessions),
            1);
  // Migrated sessions kept serving every tick.
  for (const SessionSnapshot& s : snap.sessions) {
    if (s.state == SessionState::kActive) {
      EXPECT_EQ(s.frames, 20);
    }
  }
}

TEST(FleetPlane, RebalanceScanWithoutAnImprovingMoveChangesNothing) {
  // Scans that find the plane imbalanced but no move that improves the
  // static placement must leave every session where it is: same local id
  // (so the same obs names), same roster position, no migration.
  obs::reset();
  obs::set_enabled(true);
  FleetConfig cfg;
  cfg.shards = 2;
  cfg.rebalance_interval = 1;
  Fleet lone(cfg);
  ASSERT_TRUE(lone.admit(synthetic_spec("lone", 950)).admitted);
  // Every scan sees shard 0 busy and shard 1 idle; moving the only
  // session would just swap the two.
  lone.run(10);
  EXPECT_EQ(lone.snapshot().migrations, 0);
  std::string err;
  const std::optional<util::Json> doc =
      util::Json::parse(obs::metrics().to_json(), &err);
  obs::set_enabled(false);
  obs::reset();
  ASSERT_TRUE(doc.has_value()) << err;
  std::vector<std::string> session_metrics;
  for (const auto& [name, entry] : doc->find("histograms")->as_object())
    if (name.find(".session.") != std::string::npos)
      session_metrics.push_back(name);
  EXPECT_EQ(session_metrics,
            (std::vector<std::string>{"fleet.session.0.latency_ms",
                                      "fleet.session.0.queue_ms",
                                      "fleet.shard.0.session.0.latency_ms",
                                      "fleet.shard.0.session.0.queue_ms"}));

  // Two equal sessions per shard: any busy difference is "imbalanced"
  // (high water 1.0), but no single move improves 2d vs 2d.
  cfg.rebalance_high_water = 1.0;
  Fleet fleet(cfg);
  for (const char* name : {"a", "b", "c", "d"})
    ASSERT_TRUE(fleet.admit(synthetic_spec(name, 960 + name[0])).admitted);
  const auto roster = [&] {
    std::vector<std::pair<std::string, int>> order;
    for (const SessionSnapshot& s : fleet.snapshot().sessions)
      order.emplace_back(s.name, s.shard);
    return order;
  };
  const auto admitted = roster();
  for (int t = 0; t < 20; ++t) {
    fleet.step();
    ASSERT_EQ(roster(), admitted) << "tick " << t;
  }
  EXPECT_EQ(fleet.snapshot().migrations, 0);
}

// ------------------------------------------------------------ tick wheel --

TEST(FleetPlane, OnlyAnAdmittedSessionGrowsTheWheels) {
  // A session's rate reaches the wheels only once a shard admits it; a
  // rejection — over the SLO, or every shard at capacity — leaves every
  // wheel alone. An admitted 15 fps session grows every shard's wheel to
  // 30 Hz, not just its placement shard's.
  for (int shards : {1, 2}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    SessionSpec fast = synthetic_spec("fast", 990);
    fast.fps = 15;

    FleetConfig tight;
    tight.shards = shards;
    tight.slo_ms = 1e-3;
    tight.allow_degrade = false;
    Fleet over_slo(tight);
    EXPECT_FALSE(over_slo.admit(fast).admitted);
    EXPECT_EQ(over_slo.wheel_hz(), 10);

    FleetConfig full;
    full.shards = shards;
    full.shard_capacity = 1;
    Fleet fleet(full);
    std::vector<SessionHandle> handles;
    for (int i = 0; i < shards; ++i) {
      const AdmitResult r =
          fleet.admit(synthetic_spec(session_name(i), 991 + i));
      ASSERT_TRUE(r.admitted);
      handles.push_back(r.handle);
    }
    EXPECT_FALSE(fleet.admit(fast).admitted);
    EXPECT_EQ(fleet.wheel_hz(), 10);

    // Free the LAST shard, so the 15 fps session lands there while
    // wheel_hz() reads shard 0.
    ASSERT_EQ(fleet.evict(handles.back()), FleetStatus::kOk);
    const AdmitResult r = fleet.admit(fast);
    ASSERT_TRUE(r.admitted);
    EXPECT_EQ(r.shard, shards - 1);
    EXPECT_EQ(fleet.wheel_hz(), 30);
    fleet.run(30);
    for (const SessionSnapshot& s : fleet.snapshot().sessions) {
      if (s.state == SessionState::kActive) {
        EXPECT_EQ(s.frames, s.fps) << s.name;  // one second of ticks
      }
    }
  }
}

// ------------------------------------------------------------ placement --

TEST(FleetPlane, PlacementIsDeterministicAcrossThreadCounts) {
  const auto build = [](int threads) {
    FleetConfig cfg;
    cfg.shards = 4;
    cfg.threads = threads;
    auto fleet = std::make_unique<Fleet>(cfg);
    std::vector<int> shards;
    for (int i = 0; i < 32; ++i) {
      const AdmitResult r =
          fleet->admit(synthetic_spec(session_name(i), 300 + i));
      EXPECT_TRUE(r.admitted);
      shards.push_back(r.shard);
    }
    fleet->run(10);
    return std::make_pair(std::move(fleet), shards);
  };
  auto [narrow, narrow_shards] = build(1);
  auto [wide, wide_shards] = build(8);
  EXPECT_EQ(narrow_shards, wide_shards);
  expect_snapshot_identical(narrow->snapshot(), wide->snapshot());
}

TEST(FleetPlane, ShardCapacityRejectsInConstantTimeOncefull) {
  FleetConfig cfg;
  cfg.shards = 2;
  cfg.shard_capacity = 3;
  Fleet fleet(cfg);
  for (int i = 0; i < 6; ++i)
    ASSERT_TRUE(
        fleet.admit(synthetic_spec(session_name(i), 400 + i)).admitted);
  const AdmitResult overflow = fleet.admit(synthetic_spec("over", 499));
  EXPECT_FALSE(overflow.admitted);
  EXPECT_FALSE(overflow.handle.valid());
  EXPECT_FALSE(overflow.reason.empty());
  EXPECT_EQ(fleet.snapshot().rejected, 1);
  // Capacity is LIVE sessions: evicting one frees a slot.
  ASSERT_EQ(fleet.evict(fleet.snapshot().sessions[0].handle), FleetStatus::kOk);
  EXPECT_TRUE(fleet.admit(synthetic_spec("retry", 498)).admitted);
}

// ---------------------------------------------------- cross-shard merge --

TEST(FleetPlane, CrossShardMergeSavingsZeroAtOneShardPositiveAtTwo) {
  // Identical synthetic tenants on each shard leave identical residual
  // (non-full) batches per device class every tick; the second merge level
  // must account a strictly positive saving for topping those up across
  // shards — and exactly zero when there is only one shard (the identity
  // the shard-of-one guard depends on).
  const auto savings = [](int shards) {
    FleetConfig cfg;
    cfg.shards = shards;
    Fleet fleet(cfg);
    for (int i = 0; i < 2 * shards; ++i)
      EXPECT_TRUE(
          fleet.admit(synthetic_spec(session_name(i), 500 + i))
              .admitted);
    fleet.run(12);
    const FleetSnapshot snap = fleet.snapshot();
    EXPECT_GE(snap.cross_busy_saved_ms, 0.0);
    return snap;
  };
  const FleetSnapshot one = savings(1);
  EXPECT_EQ(one.cross_batches_saved, 0);
  EXPECT_DOUBLE_EQ(one.cross_busy_saved_ms, 0.0);
  const FleetSnapshot two = savings(2);
  EXPECT_GT(two.cross_batches_saved, 0);
  EXPECT_GT(two.cross_busy_saved_ms, 0.0);
}

// ------------------------------------------------------- handle hygiene --

TEST(FleetPlane, TypedHandleErrorsAcrossTheDirectory) {
  FleetConfig cfg;
  cfg.shards = 2;
  Fleet fleet(cfg);
  // A pipeline-backed session: result() retention across eviction is part
  // of the surface under test (synthetic sessions keep no frame results).
  const SessionHandle h = fleet.admit(pipeline_spec("a", 600)).handle;
  ASSERT_TRUE(h.valid());
  fleet.run(3);

  // Wrong-state and out-of-range migrations are typed, not fatal.
  EXPECT_EQ(fleet.migrate(h, 99), FleetStatus::kUnknownSession);
  EXPECT_EQ(fleet.release(h), FleetStatus::kInvalidState);  // still active

  ASSERT_EQ(fleet.evict(h), FleetStatus::kOk);
  EXPECT_EQ(fleet.migrate(h, 1), FleetStatus::kInvalidState);  // evicted
  FleetStatus status = FleetStatus::kOk;
  EXPECT_EQ(fleet.result(h, &status).frames.size(), 3u);
  EXPECT_EQ(status, FleetStatus::kOk);

  ASSERT_EQ(fleet.release(h), FleetStatus::kOk);
  EXPECT_TRUE(fleet.result(h, &status).frames.empty());
  EXPECT_EQ(status, FleetStatus::kStaleHandle);
  EXPECT_EQ(fleet.pause(h), FleetStatus::kStaleHandle);
  EXPECT_EQ(fleet.migrate(h, 1), FleetStatus::kStaleHandle);
  EXPECT_EQ(fleet.state(h), SessionState::kEvicted);

  // The recycled slot's new tenant is invisible through the old handle.
  const SessionHandle next = fleet.admit(synthetic_spec("b", 601)).handle;
  EXPECT_EQ(next.id, h.id);
  EXPECT_EQ(next.gen, h.gen + 1);
  EXPECT_EQ(fleet.pause(h), FleetStatus::kStaleHandle);
  EXPECT_EQ(fleet.state(next), SessionState::kActive);

  const SessionHandle unknown{424242, 7};
  EXPECT_EQ(fleet.evict(unknown), FleetStatus::kUnknownSession);
  EXPECT_EQ(fleet.result(unknown, &status).frames.size(), 0u);
  EXPECT_EQ(status, FleetStatus::kUnknownSession);
}

// --------------------------------------------------- trace attribution --

TEST(FleetPlane, MigratedSessionTraceEventsCarryShardAndSource) {
  // Post-migration lifecycle events must identify both where the session
  // lives now (shard) and where it came from (migrated_from), so a trace
  // reader can follow a session across the plane without a side table.
  FleetConfig cfg;
  cfg.shards = 2;
  Fleet fleet(cfg);
  runtime::TraceRecorder trace;
  fleet.attach_trace(&trace);

  const AdmitResult r = fleet.admit(synthetic_spec("s0", 700));
  ASSERT_TRUE(r.admitted);
  const int source = r.shard;
  const int target = 1 - source;
  fleet.run(5);

  ASSERT_EQ(fleet.migrate(r.handle, target), FleetStatus::kOk);
  fleet.run(3);
  EXPECT_EQ(fleet.pause(r.handle), FleetStatus::kOk);
  EXPECT_EQ(fleet.resume(r.handle), FleetStatus::kOk);

  bool saw_admit = false, saw_pause = false, saw_resume = false;
  for (const runtime::TraceEvent& e : trace.events()) {
    switch (e.type) {
      case runtime::TraceEventType::kSessionAdmit:
        // Pre-migration: native shard, no source.
        EXPECT_EQ(e.shard, source);
        EXPECT_EQ(e.migrated_from, -1);
        saw_admit = true;
        break;
      case runtime::TraceEventType::kSessionMigrate:
        EXPECT_EQ(static_cast<int>(e.value), target);
        break;
      case runtime::TraceEventType::kSessionPause:
        EXPECT_EQ(e.shard, target);
        EXPECT_EQ(e.migrated_from, source);
        saw_pause = true;
        break;
      case runtime::TraceEventType::kSessionResume:
        EXPECT_EQ(e.shard, target);
        EXPECT_EQ(e.migrated_from, source);
        saw_resume = true;
        break;
      default:
        break;
    }
  }
  EXPECT_TRUE(saw_admit);
  EXPECT_TRUE(saw_pause);
  EXPECT_TRUE(saw_resume);
}

// ----------------------------------------------------- obs determinism --

TEST(FleetPlane, ObsDeterministicAcrossThreadCounts) {
  // Extends test_runtime's ObsDeterministicAcrossThreadCounts to the
  // sharded plane: every obs input is a simulated quantity, so the metrics
  // fingerprint, span counts and the critical-path attribution fingerprint
  // must be bit-identical whether the worker pool is 1 or 8 wide — at one
  // shard and at four. (Fingerprints across DIFFERENT shard counts differ
  // legitimately: metric names carry the shard index.)
  struct Observed {
    std::string metrics;
    std::string attribution;
    std::map<std::string, long long> spans;
  };
  const auto run_observed = [](int shards, int threads) {
    obs::reset();
    obs::set_enabled(true);
    obs::set_attribution_enabled(true);
    FleetConfig cfg;
    cfg.shards = shards;
    cfg.threads = threads;
    Fleet fleet(cfg);
    for (int i = 0; i < 8; ++i)
      EXPECT_TRUE(
          fleet.admit(synthetic_spec(session_name(i), 800 + i))
              .admitted);
    fleet.run(12);
    Observed o;
    o.metrics = obs::metrics().fingerprint();
    o.attribution = obs::critical_path().fingerprint();
    o.spans = obs::tracer().span_counts();
    obs::set_attribution_enabled(false);
    obs::set_enabled(false);
    obs::reset();
    return o;
  };
  for (int shards : {1, 4}) {
    const Observed narrow = run_observed(shards, 1);
    const Observed wide = run_observed(shards, 8);
    EXPECT_FALSE(narrow.metrics.empty());
    EXPECT_EQ(narrow.metrics, wide.metrics) << "shards=" << shards;
    EXPECT_EQ(narrow.attribution, wide.attribution) << "shards=" << shards;
    EXPECT_EQ(narrow.spans, wide.spans) << "shards=" << shards;
  }
}

// --------------------------------------------------- merged exposition --

TEST(FleetPlane, MergedExpositionEqualsShardSourceAtOneShard) {
  // A one-shard plane registers its metrics under "fleet.shard.0.*"; the
  // registry's JSON export synthesizes a flat "fleet.*" entry from each.
  // At one shard every such entry must equal its source — counters,
  // gauges, and full histogram entries including percentiles — except for
  // the source histogram's "shard" label.
  obs::reset();
  obs::set_enabled(true);
  Fleet fleet;
  EXPECT_TRUE(fleet.admit(pipeline_spec("a", 21)).admitted);
  EXPECT_TRUE(fleet.admit(pipeline_spec("b", 22, /*fps=*/15)).admitted);
  fleet.run(12);
  const std::string json = obs::metrics().to_json();
  obs::set_enabled(false);
  obs::reset();
  std::string err;
  const std::optional<util::Json> doc = util::Json::parse(json, &err);
  ASSERT_TRUE(doc.has_value()) << err;

  int compared = 0;
  for (const char* section : {"counters", "gauges", "histograms"}) {
    const util::Json* entries = doc->find(section);
    ASSERT_NE(entries, nullptr);
    for (const auto& [name, entry] : entries->as_object()) {
      // Only the flat fleet rollups; "fleet.events.*" lifecycle counters
      // are registered flat on purpose and have no shard source.
      if (name.rfind("fleet.", 0) != 0 || name.rfind("fleet.shard.", 0) == 0 ||
          name.rfind("fleet.events.", 0) == 0)
        continue;
      const std::string source =
          "fleet.shard.0." + name.substr(std::string("fleet.").size());
      const util::Json* src = entries->find(source);
      ASSERT_NE(src, nullptr) << section << "/" << source;
      if (src->is_object()) {
        EXPECT_EQ(entry.find("shard"), nullptr) << name;
        EXPECT_EQ(src->number_or("shard", -1.0), 0.0) << source;
        util::Json::Object unlabeled = src->as_object();
        unlabeled.erase("shard");
        EXPECT_EQ(entry.dump(), util::Json(std::move(unlabeled)).dump())
            << section << "/" << name;
      } else {
        EXPECT_EQ(entry.dump(), src->dump()) << section << "/" << name;
      }
      ++compared;
    }
  }
  EXPECT_GT(compared, 5) << "expected a real spread of fleet metrics";
  const util::Json* hists = doc->find("histograms");
  EXPECT_NE(hists->find("fleet.tick_busy_ms"), nullptr);
}

// ------------------------------------------------------ admission smoke --

TEST(FleetPlane, ThousandSyntheticSessionsAdmitAndServe) {
  // The tier-1 scale smoke: 1k synthetic tenants across 8 shards admit
  // (O(1) each — no roster scans with admission control off), spread
  // evenly, and every one serves every tick.
  FleetConfig cfg;
  cfg.shards = 8;
  cfg.threads = 4;
  Fleet fleet(cfg);
  for (int i = 0; i < 1000; ++i)
    ASSERT_TRUE(
        fleet.admit(synthetic_spec(session_name(i), 1000 + i))
            .admitted);
  EXPECT_EQ(fleet.session_count(), 1000u);
  fleet.run(3);

  const FleetSnapshot snap = fleet.snapshot();
  EXPECT_EQ(snap.admitted, 1000);
  EXPECT_EQ(snap.rejected, 0);
  ASSERT_EQ(snap.shard_rollups.size(), 8u);
  long frames = 0;
  for (const ShardRollup& r : snap.shard_rollups) {
    EXPECT_EQ(r.sessions, 125);  // least-loaded placement spreads evenly
    frames += r.frames;
  }
  EXPECT_EQ(frames, 3000);
  EXPECT_GT(snap.cross_batches_saved, 0);
}

}  // namespace
}  // namespace mvs::fleet
