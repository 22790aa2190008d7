#pragma once
// mvs::fleet — the serving plane and its vocabulary.
//
// fleet::Fleet is the one surface callers program against. It hosts
// sessions on FleetConfig::shards shards — one is the ordinary case — so
// examples, benches, and the CLI are written once and scale from one
// session to ten thousand by raising the shard count. Sessions are addressed by
// opaque SessionHandle values (see handle.hpp) that stay valid across
// live migration between shards; handle misuse after release() returns a
// typed FleetStatus instead of silently addressing a reused slot.
//
// This header also owns the fleet vocabulary types — config, admission
// result, rollup snapshots. The per-shard engine (shard.hpp) is only
// forward-declared here, so callers see none of it.

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "fleet/handle.hpp"
#include "runtime/config.hpp"
#include "runtime/pipeline.hpp"
#include "runtime/trace.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"

namespace mvs::fleet {

// The dispatch vocabulary lives in runtime so the config schema can check
// names at parse time.
using runtime::DispatchPolicy;
using runtime::parse_dispatch;
using runtime::to_string;

class Shard;
struct SessionRecord;
struct TickPlan;

struct FleetConfig {
  /// Per-tick GPU latency deadline (ms). <= 0 disables admission control
  /// and dispatch deferral: every session is admitted and runs every tick.
  double slo_ms = 0.0;
  /// Base tick length; the paper's scenarios stream at 10 fps. Sessions
  /// with a different native fps grow the wheel (see wheel_hz()).
  double frame_period_ms = 100.0;
  DispatchPolicy dispatch = DispatchPolicy::kRoundRobin;
  /// Shared worker pool width (0 = one per usable CPU). All shards and
  /// all sessions' per-camera parallelism run on this one pool.
  int threads = 0;
  /// Allow the admission controller to degrade instead of rejecting.
  bool allow_degrade = true;
  /// Admission estimator: assumed steady-state partial-frame tasks per
  /// camera per regular frame (coarse planning constant; see DESIGN.md §8).
  double assumed_tasks_per_camera = 4.0;
  /// Ticks between re-admission scans (reverse degrade ladder); 0 keeps
  /// degradation sticky for a session's lifetime.
  int readmit_interval = 10;
  /// Hysteresis band as fractions of the SLO: a scan only restores when
  /// the windowed mean busy sits below low water AND the projection after
  /// restoring stays below high water (prevents admit/degrade oscillation).
  double readmit_low_water = 0.7;
  double readmit_high_water = 0.9;
  /// Let the arbiter split an over-full merged batch across two tick slots
  /// when a top-weight session would miss the SLO.
  bool allow_split = false;
  /// Fixed per-batch dispatch cost (ms) charged by the device pools; see
  /// TickContext::dispatch_overhead_ms. 0 = ideal overhead-free arbiter.
  double dispatch_overhead_ms = 0.0;
  /// Serving-plane width: shards, each with its own arbiter and tick wheel.
  int shards = 1;
  /// Max live sessions per shard; 0 = unbounded. The admission check
  /// against this is O(1) (DESIGN.md §13).
  int shard_capacity = 0;
  /// Ticks between rebalance scans; 0 disables background
  /// migration. Each scan moves at most ONE session off the hottest shard
  /// (hysteresis, like readmit_scan).
  int rebalance_interval = 0;
  /// A scan migrates only when the hottest shard's windowed busy exceeds
  /// this multiple of the mean shard busy (> 1; the hysteresis band).
  double rebalance_high_water = 1.25;
  /// SLO burn-rate monitoring (DESIGN.md §14): tolerated per-tick
  /// SLO-violation ratio. 0 disables per-session and per-shard monitors.
  double burn_error_budget = 0.0;
  int burn_fast_window = 16;   ///< ticks; acute-burn window
  int burn_slow_window = 64;   ///< ticks; confirmation window
  double burn_raise = 2.0;     ///< raise at fast AND slow burn >= this
  double burn_clear = 1.0;     ///< clear at fast burn < this (hysteresis)
  /// A shard-level raise edge immediately applies one degrade rung to the
  /// heaviest restorable session (alerting coupled to mitigation).
  bool burn_degrade = false;
};

/// The per-session serving spec is owned by runtime::config (the JSON-
/// facing layer); the fleet consumes it verbatim. See
/// runtime::FleetSessionSpec for the full field reference — name,
/// scenario, pipeline, weight, native fps, SLO override, the optional
/// per-session fault profile, and the synthetic-load switch.
using SessionSpec = runtime::FleetSessionSpec;

enum class SessionState { kActive, kPaused, kEvicted };

const char* to_string(SessionState state);

struct AdmitResult {
  SessionHandle handle;  ///< invalid (gen 0) when rejected
  bool admitted = false;
  bool masks_tightened = false;  ///< degraded: solo-coverage adoption only
  bool rate_halved = false;      ///< degraded: runs at half its native rate
  double projected_ms = 0.0;     ///< fleet demand estimate at decision time
  int shard = -1;                ///< placement shard (-1 when rejected)
  std::string reason;
};

/// Per-session rollup (stats snapshot).
struct SessionSnapshot {
  SessionHandle handle;  ///< the caller-facing identity (migration-stable)
  int shard = 0;         ///< hosting shard
  std::string name;
  SessionState state = SessionState::kActive;
  double weight = 1.0;
  int fps = 0;               ///< native rate (resolved; base rate if 0 in spec)
  int stride = 1;            ///< 2 when frame-rate halved
  bool tight_masks = false;
  long frames = 0;           ///< frames actually run
  long deferred_ticks = 0;   ///< ticks lost to dispatch deferral
  long slo_violations = 0;   ///< frames whose latency > effective SLO
  double slo_ms = 0.0;       ///< effective SLO (session override or fleet)
  double p50_ms = 0.0, p95_ms = 0.0, p99_ms = 0.0;
  double mean_ms = 0.0;           ///< mean frame latency (attributed + queue)
  double mean_isolated_ms = 0.0;  ///< same work on dedicated devices
  double mean_queue_ms = 0.0;     ///< mean device-pool queueing per frame
  double busy_sum_ms = 0.0;       ///< Σ attributed GPU busy over all frames
  long retries = 0;               ///< transport retransmissions (lossy only)
  long dropped_msgs = 0;          ///< messages lost after all retries
  double object_recall = 0.0;
  /// SLO burn-rate health (0 / false when monitoring is disabled).
  long slo_alerts = 0;       ///< raise edges over the session's lifetime
  bool alerting = false;     ///< currently inside a raise..clear episode
  double fast_burn = 0.0;    ///< burn rate over the fast window
  double slow_burn = 0.0;    ///< burn rate over the slow window
};

/// Per-shard rollup inside a snapshot.
struct ShardRollup {
  int index = 0;
  int sessions = 0;  ///< live (non-evicted) sessions hosted
  long frames = 0;   ///< frames run across the shard's sessions
  double shared_busy_ms = 0.0;
  double placed_demand_ms = 0.0;  ///< static admission-demand load
  double mean_occupancy = 0.0;
  bool alerting = false;  ///< shard-level burn monitor inside an episode
  long slo_alerts = 0;    ///< shard-level raise edges
};

/// Fleet-level rollup.
struct FleetSnapshot {
  long ticks = 0;
  int wheel_hz = 0;  ///< current tick-wheel rate (lcm of admitted rates)
  int shards = 1;
  int admitted = 0, rejected = 0, evicted = 0;
  int readmitted = 0;       ///< degrade-ladder rungs restored
  int redegraded = 0;       ///< degrade-ladder rungs re-applied under load
  long migrations = 0;      ///< sessions moved between shards
  long batch_splits = 0;    ///< arbiter batch splits across all ticks
  long shared_batches = 0, isolated_batches = 0;
  double shared_busy_ms = 0.0, isolated_busy_ms = 0.0;
  double total_queue_ms = 0.0;  ///< summed device-pool queueing delay
  /// Second merge level: batches / busy the fleet WOULD additionally save
  /// if each device class's per-shard residual batches were topped up
  /// across shards every tick (exactly 0 with one shard).
  long cross_batches_saved = 0;
  double cross_busy_saved_ms = 0.0;
  /// Transport fault rollups summed over all sessions (lossy only).
  long total_retries = 0;
  long total_dropped_msgs = 0;
  /// SLO burn-rate alerting rollup (0 when monitoring is disabled).
  long slo_alerts_raised = 0;   ///< raise edges (sessions + shards)
  long slo_alerts_cleared = 0;  ///< clear edges
  int alerting_sessions = 0;    ///< sessions currently alerting
  /// Mean per-tick GPU busy time / tick period; > 1 means saturated.
  double mean_occupancy = 0.0;
  double p95_tick_busy_ms = 0.0;
  /// Mean sessions deferred per tick (dispatch queue depth).
  double mean_queue_depth = 0.0;
  /// Accelerator pools by class name (count >= 1 per class in use; each
  /// shard has its own replica, so counts are per shard).
  std::vector<std::pair<std::string, int>> device_pools;
  std::vector<ShardRollup> shard_rollups;  ///< one per shard
  std::vector<SessionSnapshot> sessions;

  /// JSON document of the whole rollup (fleet object + sessions array).
  std::string to_json() const;
};

/// Build a FleetConfig from the config-file representation; nullopt (with
/// *error filled) when runtime::validate rejects it. Session specs and
/// device_scale entries are NOT applied here — admit() / scale_devices()
/// them explicitly (see tools/mvsched_cli.cpp for the canonical loop).
std::optional<FleetConfig> make_fleet_config(
    const runtime::FleetRunConfig& config, std::string* error = nullptr);

/// A Fleet hosts many concurrent runtime::Pipeline sessions (independent
/// multi-view deployments) across FleetConfig::shards Shards (shard.hpp),
/// each with its own GpuArbiter and tick wheel, all stepping concurrently on
/// ONE shared util::ThreadPool. One shard is the ordinary case; the plane
/// adds exactly four things on top of its shards (DESIGN.md §13):
///
///   Placement — admit() picks the least-loaded shard by static placement
///   demand (Σ admission-time demand of hosted sessions, maintained
///   incrementally, so placement is O(shards)); with shard_capacity set the
///   per-shard headroom check is O(1). Ties go to the lowest shard index,
///   so placement is deterministic and thread-count independent.
///
///   Directory — callers hold SessionHandles (handle.hpp); the handle table
///   maps each to (shard, local id). The handle also lives in the session's
///   record and travels with it on migration, so caller identity is
///   migration-stable by construction.
///
///   Two-level merge — each shard merges its own sessions' work per tick
///   (first level); the plane then folds every shard's executed merge cells
///   per device class (second level) and accounts the batches/busy a
///   plane-wide merge would additionally save (FleetSnapshot::
///   cross_batches_saved / cross_busy_saved_ms). With one shard the saving
///   is exactly zero.
///
///   Rebalance — every rebalance_interval ticks the plane compares windowed
///   per-shard busy; when the hottest shard exceeds rebalance_high_water x
///   the mean it migrates ONE session (the hottest shard's smallest-demand
///   active session, the cheapest move) to the coldest shard, and only when
///   the move strictly improves the static placement imbalance. The check
///   runs before the session is touched, so a scan that finds no improving
///   move changes nothing. One move per scan + the high-water band = the
///   same hysteresis discipline as the shards' re-admission scan. Migration
///   hands the whole SessionRecord over (Shard::detach/attach): stats,
///   carryover debt, and the synthetic / pipeline state travel whole, so
///   per-session frame counts and attributed busy are conserved exactly
///   across any number of moves.
///
/// Wheel discipline: once the placement shard admits a session, every other
/// shard's wheel grows to the session's rate, so the wheels stay equal
/// forever and a migrated session's period/phase mean the same thing on the
/// target shard (cadence-exact migration). A rejected admission leaves every
/// wheel as it was.
///
/// A fleet of one unscaled full-rate session with the ideal transport
/// reproduces a standalone Pipeline::run bit-identically (guarded by
/// test_runtime.FleetOfOne...).
class Fleet {
 public:
  /// max(1, config.shards) shards on one pool of config.threads workers,
  /// owned by the plane.
  explicit Fleet(const FleetConfig& config = {});
  ~Fleet();

  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  /// Admission-controlled session creation: O(1) capacity check,
  /// least-loaded shard placement, then the shard's degrade ladder (see
  /// Shard::admit).
  AdmitResult admit(const SessionSpec& spec);

  /// Lifecycle transitions. Evictions are final (kInvalidState to evict
  /// twice); an evicted session's result() survives until release().
  FleetStatus pause(SessionHandle handle);
  FleetStatus resume(SessionHandle handle);
  FleetStatus evict(SessionHandle handle);

  /// Drop an EVICTED session's retained result and recycle its slot; the
  /// handle (and any copy of it) becomes permanently stale.
  FleetStatus release(SessionHandle handle);

  /// kEvicted for stale/unknown handles (it names no live session).
  SessionState state(SessionHandle handle) const;

  /// Everything the session has run so far (survives eviction until
  /// release). Empty with *status = the typed error on a bad handle.
  runtime::PipelineResult result(SessionHandle handle,
                                 FleetStatus* status = nullptr) const;

  /// Grow (delta > 0) or shrink (delta < 0) a device class's pool at
  /// runtime; pools never drop below one device. Applies to every shard's
  /// replica of the class. Returns the new per-shard pool size.
  int scale_devices(const std::string& device_class, int delta);

  /// Step every shard one tick (concurrently on the shared pool), fold the
  /// cross-shard merge level, and run the rebalance scan when due. All
  /// shards advance in lockstep.
  void step();

  void run(int ticks) {
    for (int t = 0; t < ticks; ++t) step();
  }

  long ticks() const;
  int wheel_hz() const;
  std::size_t session_count() const;  ///< live, incl. paused
  FleetSnapshot snapshot() const;

  /// Record session lifecycle events (admit/reject/evict/pause/resume/
  /// defer/readmit/migrate) plus device_scale and batch_split into
  /// `trace`; pass nullptr to detach.
  void attach_trace(runtime::TraceRecorder* trace);

  int shard_count() const { return static_cast<int>(shards_.size()); }

  /// Force one migration now (test/ops hook): move `handle`'s session to
  /// `target_shard` regardless of load, via the same handover the
  /// rebalance scan uses. kInvalidState when the session is evicted or
  /// already on the target.
  FleetStatus migrate(SessionHandle handle, int target_shard);

 private:
  struct Route {
    Shard* shard = nullptr;
    SessionRecord* session = nullptr;
  };
  /// Resolve a handle to its hosting shard and record.
  Route resolve(SessionHandle handle, FleetStatus* status) const;
  /// Hand `session` from `from` to `to` and repoint its directory entry.
  void move(Shard& from, SessionRecord& session, Shard& to);
  void rebalance_scan();
  void record(runtime::TraceEventType type, int session_id, double value,
              int shard = -1, int migrated_from = -1);

  FleetConfig cfg_;
  util::ThreadPool pool_;
  std::vector<std::unique_ptr<Shard>> shards_;
  HandleTable handles_;
  runtime::TraceRecorder* trace_ = nullptr;

  int base_fps_ = 10;
  int rejected_ = 0;  ///< capacity rejections (shards count their own)
  long migrations_ = 0;
  long cross_batches_saved_ = 0;
  double cross_busy_saved_ms_ = 0.0;
  int rebalance_ticks_ = 0;
  util::SampleSet tick_busy_ms_;  ///< Σ shard busy per plane tick

  /// step() scratch reused across ticks so a warm plane tick allocates
  /// nothing: the shards' plans and the cross-shard fold's cursors.
  std::vector<const TickPlan*> plan_scratch_;
  std::vector<std::size_t> fold_cursors_;
};

/// Another name for Fleet, kept only because the benchmark of record
/// (perfbench/perfbench.cpp) names it.
using FleetApi = Fleet;

/// Build the serving plane: a Fleet of max(1, config.shards) shards.
std::unique_ptr<Fleet> make_fleet(const FleetConfig& config);

}  // namespace mvs::fleet
