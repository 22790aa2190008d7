#pragma once
// One shard of the serving plane (mvs::fleet) — the per-shard engine.
//
// A Shard hosts its share of the plane's runtime::Pipeline sessions
// (independent multi-view deployments) on the plane's shared
// util::ThreadPool, with its OWN simulated GPU complex (fleet::GpuArbiter)
// and tick wheel — shards never contend on planning state, which is what
// lets the plane step them concurrently. Each tick the dispatch policy picks
// which due sessions run a frame, the sessions execute concurrently on the
// pool, and the arbiter merges their partial-frame tasks into cross-session
// batches with per-session latency attribution and device-pool queueing
// delay.
//
// Heterogeneous tick rates: sessions declare a native fps (SessionSpec::fps,
// 0 = the base rate 1000 / frame_period_ms). The wheel runs at the least
// common multiple of all admitted rates and grows on demand — when a
// non-dividing rate is admitted, every session's period and phase (and the
// tick counter) are rescaled so established firing patterns continue
// unchanged. A session fires every wheel_hz / fps ticks.
//
// Admission control: with an SLO configured, a candidate session is only
// admitted if the projected per-period GPU demand stays within the
// deadline; otherwise the controller degrades it (priority-mask tightening,
// then frame-rate halving, then both) and admits the first fitting mode, or
// rejects. Dynamic re-admission reverses the ladder: every readmit_interval
// ticks the shard compares the windowed mean of observed tick busy against
// a hysteresis band under the SLO and, when demand has fallen, restores one
// rung (full rate first, then mask un-tightening via
// Pipeline::set_tight_masks) for the lowest-id degraded session whose
// projected demand still fits below the high-water mark. Without an SLO,
// admission is O(1): no projection over the live roster is computed.
//
// Elastic device pools: every accelerator class starts with one device;
// scale_devices grows or shrinks a class's pool at runtime. The arbiter
// charges explicit queueing delay whenever a tick's merged plan exceeds one
// device's throughput, and (when FleetConfig::allow_split is on) may split
// an over-full merged batch across two tick slots to protect a high-weight
// session's SLO — deferred task slices are re-injected into the owner's
// next submission, so attribution stays conservation-exact.
//
// The shard has no public lifecycle and no handle table: fleet::Fleet
// (fleet.hpp) owns the caller-facing directory and addresses sessions here
// by local id. Migration hands whole sessions over via detach()/attach():
// the SessionRecord carries every stat, the carryover debt, the caller's
// handle and the synthetic/pipeline state.
//
// This header also hosts the second merge level's pricing function:
// cross_shard_merge folds every shard's executed merge cells per (device
// class, size class) and prices — under the arbiter's exact greedy fill
// model — the batches and busy time a plane-wide merge would save over the
// per-shard merges. With one shard the saving is exactly zero.

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "fleet/arbiter.hpp"
#include "fleet/burn.hpp"
#include "fleet/fleet_api.hpp"
#include "fleet/synthetic.hpp"
#include "runtime/pipeline.hpp"
#include "runtime/trace.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"

namespace mvs::fleet {

/// Everything one hosted session owns — the migration unit. detach() hands
/// the whole record to the plane; stats, carryover debt, degrade state, the
/// caller's handle, and the pipeline/synthetic source travel with it, which
/// is what makes migration conservation-exact (nothing is rebuilt or reset
/// on the target shard).
struct SessionRecord {
  int id = -1;           ///< local id on the hosting shard (new on attach)
  SessionHandle handle;  ///< the caller's plane handle (migration-stable)
  SessionSpec spec;
  SessionState state = SessionState::kActive;
  int fps = 0;           ///< resolved native rate (base rate when spec.fps==0)
  int period_ticks = 1;  ///< wheel ticks between native frames
  int stride = 1;        ///< 2 when frame-rate halved (degrade ladder)
  int phase = 0;         ///< wheel-tick firing offset
  bool degraded_rate = false;   ///< rate halving applied BY the shard
  bool degraded_tight = false;  ///< mask tightening applied BY the shard
  /// Exactly one of pipeline / synth is set (spec.synthetic selects).
  std::unique_ptr<runtime::Pipeline> pipeline;
  std::unique_ptr<SyntheticSource> synth;
  std::vector<gpu::DeviceProfile> devices;
  double static_demand_ms = 0.0;
  /// Static per-base-period load this session contributes to shard
  /// placement accounting (frozen at admission; added/removed on
  /// admit/evict/detach/attach so the aggregate stays incremental-exact).
  double placement_demand_ms = 0.0;
  /// Batch-split debt: tasks deferred to this session's next stepped
  /// submission, indexed by camera (one entry per device, sized at admit).
  std::vector<std::vector<geom::SizeClassId>> carryover;

  /// Shard the session migrated FROM most recently (-1 = never migrated).
  /// Travels with the record so post-migration trace events keep their
  /// provenance (test_sharded_fleet.MigratedSessionTraceAttribution).
  int migrated_from = -1;

  long frames = 0;
  long deferred_ticks = 0;
  long slo_violations = 0;
  /// Per-session SLO burn-rate monitor (DESIGN.md §14); a frame whose
  /// latency exceeds the effective SLO is one bad event. Lives in the
  /// record so migration carries the window state with the session.
  BurnMonitor burn;
  long slo_alerts = 0;  ///< raise edges over the session's lifetime
  util::SampleSet latency_ms;       ///< per-frame attributed + queueing
  util::SampleSet isolated_ms;      ///< dedicated-device counterfactual
  util::SampleSet queue_ms;         ///< per-frame device-pool queueing
  double busy_sum_ms = 0.0;         ///< Σ attributed over all cameras/frames
  /// Result snapshot frozen at eviction (the pipeline is destroyed then).
  runtime::PipelineResult final_result;
};

class Shard {
 public:
  /// Shard `index` of a plane configured by `config`; its sessions run on
  /// the plane's `pool`, which must outlive the shard. Obs metrics land
  /// under "fleet.shard.<index>.".
  Shard(const FleetConfig& config, int index, util::ThreadPool* pool);
  ~Shard();

  Shard(const Shard&) = delete;
  Shard& operator=(const Shard&) = delete;

  int index() const { return index_; }

  /// Admission-controlled session creation. On admission the pipeline is
  /// built (scenario + association training) against the shared pool — or,
  /// for spec.synthetic, a SyntheticSource (no vision stack at all); on
  /// rejection nothing is constructed beyond the device-profile probe.
  /// spec.faults (when set) replaces the pipeline fault profile and, unless
  /// fault-free, selects the lossy transport. A native fps that does not
  /// divide the current wheel grows it to the least common multiple.
  /// Returns the new record (the caller sets its handle), or nullptr when
  /// rejected; *result describes the decision either way.
  SessionRecord* admit(const SessionSpec& spec, AdmitResult* result);

  /// Lifecycle transitions on a hosted record (see FleetApi). Evictions
  /// are final; release() drops an evicted record entirely.
  FleetStatus evict(SessionRecord& s);
  FleetStatus pause(SessionRecord& s);
  FleetStatus resume(SessionRecord& s);
  FleetStatus release(SessionRecord& s);

  int scale_devices(const std::string& device_class, int delta);

  /// Advance one wheel tick: dispatch, step the due sessions concurrently,
  /// merge their GPU work cross-session, update rollups, and (periodically)
  /// run the re-admission scan.
  void step();

  long ticks() const { return ticks_; }
  /// Current tick-wheel rate (ticks per second). Starts at the base rate
  /// 1000 / frame_period_ms and grows to the lcm of admitted native rates;
  /// growing rescales ticks() so firing phases are preserved.
  int wheel_hz() const { return wheel_hz_; }
  std::size_t session_count() const {
    return static_cast<std::size_t>(live_sessions_);
  }

  /// Add this shard's counters and session rows to the plane's `snap` and
  /// return the shard's own rollup.
  ShardRollup snapshot_into(FleetSnapshot& snap) const;
  /// Device pool size per accelerator class on this shard.
  const std::map<std::string, int>& device_counts() const {
    return arbiter_.device_counts();
  }

  void attach_trace(runtime::TraceRecorder* trace) { trace_ = trace; }

  /// The hosted record with local id `id`, or nullptr.
  SessionRecord* find(int id);

  /// Grow the wheel so `fps` divides it, rescaling periods/phases/ticks
  /// (no-op when it already does). The plane grows every shard to each
  /// admitted rate, keeping all wheels equal — the invariant that makes
  /// migration cadence-exact.
  void grow_wheel(int fps);

  /// The last step()'s merged plan (merge cells, busy, shares). Valid
  /// after the first step; the second merge level reads cells from here.
  const TickPlan& last_plan() const { return plan_scratch_; }

  /// Σ placement_demand_ms over live sessions (O(1) placement load).
  double placed_demand_ms() const { return placed_demand_ms_; }

  /// Σ shared busy over the ticks since the last reset (the plane's
  /// rebalance signal).
  double rebalance_busy_ms() const { return rebalance_busy_ms_; }
  void reset_rebalance_window() { rebalance_busy_ms_ = 0.0; }

  /// Remove a live (active or paused) session wholesale for migration.
  std::unique_ptr<SessionRecord> detach(SessionRecord& s);

  /// Adopt a detached session under a fresh local id (returned). Requires
  /// an equal wheel rate (the plane keeps it so); the session's period,
  /// phase, stats, and carryover debt continue unchanged.
  int attach(std::unique_ptr<SessionRecord> record);

  /// The migration victim a rebalance scan would move: the ACTIVE session
  /// with the smallest placement demand (ties: lowest local id). nullptr
  /// when none.
  SessionRecord* pick_migration_victim();

 private:
  /// Take `s` out of the roster, leaving the load accounting to the caller.
  std::unique_ptr<SessionRecord> detach_record(SessionRecord& s);
  /// Deterministic static demand estimate for a candidate deployment.
  /// Pool-width-aware (a class's per-frame cost is divided by its current
  /// device count), frame-policy-aware (the partial-task term scales by
  /// policy::demand_factor — a detect-or-track policy skips detection on
  /// most regular frames), and dispatch-overhead-aware.
  double estimate_demand_ms(const std::vector<gpu::DeviceProfile>& devices,
                            const runtime::PipelineConfig& pipe) const;
  /// Observed (or estimated) GPU busy per frame of an admitted session.
  double session_frame_ms(const SessionRecord& s) const;
  /// Demand normalized to one base frame period: frame cost x the
  /// session's firing rate relative to the base rate.
  double session_demand_ms(const SessionRecord& s) const;
  /// Device profiles of a scenario's cameras, cached per scenario name
  /// (profiles are seed-independent) so 10k admissions probe each
  /// scenario once instead of rebuilding it per session.
  const std::vector<gpu::DeviceProfile>& probe_devices(
      const std::string& scenario, std::uint64_t seed);
  /// Reverse degrade ladder: restore at most one rung across the shard.
  void readmit_scan();
  /// Push one session one rung DOWN the degrade ladder (mask tightening
  /// first, then rate halving; highest id first). Returns false when every
  /// session is already fully degraded. Shared by the readmit high-water
  /// branch and the burn_degrade alert trigger.
  bool apply_degrade_rung(double value);
  void record(runtime::TraceEventType type, int session_id, double value,
              int migrated_from = -1);

  FleetConfig cfg_;
  int index_;
  util::ThreadPool* pool_;
  GpuArbiter arbiter_;
  std::vector<std::unique_ptr<SessionRecord>> sessions_;
  runtime::TraceRecorder* trace_ = nullptr;
  std::map<std::string, std::vector<gpu::DeviceProfile>> probe_cache_;

  long ticks_ = 0;
  int base_fps_ = 10;   ///< 1000 / frame_period_ms, floor 1
  int wheel_hz_ = 10;   ///< current wheel rate (>= base_fps_)
  int next_id_ = 0;
  int admitted_ = 0;
  int live_sessions_ = 0;
  double placed_demand_ms_ = 0.0;
  int rejected_ = 0;
  int evicted_ = 0;
  int readmitted_ = 0;
  int redegraded_ = 0;
  long batch_splits_ = 0;
  long shared_batches_ = 0;
  long isolated_batches_ = 0;
  double shared_busy_ms_ = 0.0;
  double isolated_busy_ms_ = 0.0;
  double total_queue_ms_ = 0.0;
  /// Re-admission window accumulator (busy normalized to base periods).
  double window_busy_ms_ = 0.0;
  int window_ticks_ = 0;
  /// Rebalance window accumulator (raw shared busy; the plane resets it).
  double rebalance_busy_ms_ = 0.0;
  /// Shard-level burn monitor: one bad event per tick whose shared busy
  /// exceeds the SLO. Session + shard raise/clear edges tally below.
  BurnMonitor shard_burn_;
  long shard_slo_alerts_ = 0;
  long slo_alerts_raised_ = 0;
  long slo_alerts_cleared_ = 0;
  util::SampleSet tick_busy_ms_;
  util::SampleSet queue_depth_;

  /// Obs metric keys ("fleet.shard.<index>.*") prepared once so the
  /// obs-enabled tick path does not build strings per tick.
  struct ObsKeys {
    std::string ticks, frames, deferred, shared_batches, isolated_batches,
        batch_splits, tick_busy_ms, queue_depth, sessions, session_prefix;
  };
  ObsKeys obs_;

  /// step() working buffers reused across ticks so a warm tick allocates
  /// nothing on the serving path (DESIGN.md §11).
  std::vector<SessionRecord*> due_scratch_;
  std::vector<SessionRecord*> chosen_scratch_;
  std::vector<SessionRecord*> ordered_scratch_;
  TickPlan plan_scratch_;
  runtime::CameraGpuWork merged_scratch_;
};

/// What a plane-wide (second-level) merge would save this tick over the
/// per-shard merges, priced from the shards' executed merge cells.
struct CrossMergeStats {
  long batches_saved = 0;
  double busy_saved_ms = 0.0;
};

/// Fold the shards' per-tick merge cells per (device class, size class)
/// and price the hypothetical cross-shard merge: for each class the saved
/// batches are Σ ceil(n_i / B) - ceil(Σ n_i / B), and the saved busy is the
/// exact greedy-fill busy difference (actual_batch_latency_ms, maximally
/// filled batches) plus one dispatch overhead per saved batch. Zero when
/// `plans` has a single entry, by construction. `cursors` is caller-owned
/// scratch (one slot per plan), so a warm fold allocates nothing.
CrossMergeStats cross_shard_merge(const std::vector<const TickPlan*>& plans,
                                  double dispatch_overhead_ms,
                                  std::vector<std::size_t>& cursors);

}  // namespace mvs::fleet
