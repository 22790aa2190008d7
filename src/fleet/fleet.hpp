#pragma once
// mvs::fleet — the serving plane, the one FleetApi implementation.
//
// A Fleet hosts many concurrent runtime::Pipeline sessions (independent
// multi-view deployments) across FleetConfig::shards Shards (shard.hpp),
// each with its own GpuArbiter and tick wheel, all stepping concurrently on
// ONE shared util::ThreadPool. One shard is the ordinary case; the plane
// adds exactly four things on top of its shards (DESIGN.md §13):
//
//   Placement — admit() picks the least-loaded shard by static placement
//   demand (Σ admission-time demand of hosted sessions, maintained
//   incrementally, so placement is O(shards)); with shard_capacity set the
//   per-shard headroom check is O(1). Ties go to the lowest shard index,
//   so placement is deterministic and thread-count independent.
//
//   Directory — callers hold SessionHandles (handle.hpp); the handle table
//   maps each to (shard, local id). The handle also lives in the session's
//   record and travels with it on migration, so caller identity is
//   migration-stable by construction.
//
//   Two-level merge — each shard merges its own sessions' work per tick
//   (first level); the plane then folds every shard's executed merge cells
//   per device class (second level) and accounts the batches/busy a
//   plane-wide merge would additionally save (FleetSnapshot::
//   cross_batches_saved / cross_busy_saved_ms). With one shard the saving
//   is exactly zero.
//
//   Rebalance — every rebalance_interval ticks the plane compares windowed
//   per-shard busy; when the hottest shard exceeds rebalance_high_water x
//   the mean it migrates ONE session (the hottest shard's smallest-demand
//   active session, the cheapest move) to the coldest shard, and only when
//   the move strictly improves the static placement imbalance. The check
//   runs before the session is touched, so a scan that finds no improving
//   move changes nothing. One move per scan + the high-water band = the
//   same hysteresis discipline as the shards' re-admission scan. Migration
//   hands the whole SessionRecord over (Shard::detach/attach): stats,
//   carryover debt, and the synthetic / pipeline state travel whole, so
//   per-session frame counts and attributed busy are conserved exactly
//   across any number of moves.
//
// Wheel discipline: once the placement shard admits a session, every other
// shard's wheel grows to the session's rate, so the wheels stay equal
// forever and a migrated session's period/phase mean the same thing on the
// target shard (cadence-exact migration). A rejected admission leaves every
// wheel as it was.
//
// A fleet of one unscaled full-rate session with the ideal transport
// reproduces a standalone Pipeline::run bit-identically (guarded by
// test_runtime.FleetOfOne...).

#include <memory>
#include <string>
#include <vector>

#include "fleet/fleet_api.hpp"
#include "fleet/handle.hpp"
#include "fleet/shard.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"

namespace mvs::fleet {

class Fleet : public FleetApi {
 public:
  /// max(1, config.shards) shards on one pool of config.threads workers,
  /// owned by the plane.
  explicit Fleet(const FleetConfig& config = {});
  ~Fleet() override;

  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  AdmitResult admit(const SessionSpec& spec) override;
  FleetStatus pause(SessionHandle handle) override;
  FleetStatus resume(SessionHandle handle) override;
  FleetStatus evict(SessionHandle handle) override;
  FleetStatus release(SessionHandle handle) override;
  SessionState state(SessionHandle handle) const override;
  runtime::PipelineResult result(SessionHandle handle,
                                 FleetStatus* status = nullptr) const override;
  int scale_devices(const std::string& device_class, int delta) override;

  /// Step every shard one tick (concurrently on the shared pool), fold the
  /// cross-shard merge level, and run the rebalance scan when due.
  void step() override;

  long ticks() const override;
  int wheel_hz() const override;
  std::size_t session_count() const override;
  FleetSnapshot snapshot() const override;
  void attach_trace(runtime::TraceRecorder* trace) override;

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

}  // namespace mvs::fleet
