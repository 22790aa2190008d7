#include "fleet/fleet_api.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <utility>

#include "fleet/shard.hpp"
#include "obs/obs.hpp"
#include "util/json.hpp"

namespace mvs::fleet {

const char* to_string(SessionState state) {
  switch (state) {
    case SessionState::kActive: return "active";
    case SessionState::kPaused: return "paused";
    case SessionState::kEvicted: return "evicted";
  }
  return "?";
}

const char* to_string(FleetStatus status) {
  switch (status) {
    case FleetStatus::kOk: return "ok";
    case FleetStatus::kStaleHandle: return "stale-handle";
    case FleetStatus::kUnknownSession: return "unknown-session";
    case FleetStatus::kInvalidState: return "invalid-state";
  }
  return "?";
}

std::optional<FleetConfig> make_fleet_config(
    const runtime::FleetRunConfig& config, std::string* error) {
  if (!runtime::validate(config, error)) return std::nullopt;
  FleetConfig cfg;
  cfg.slo_ms = config.slo_ms;
  cfg.frame_period_ms = config.frame_period_ms;
  cfg.dispatch = *parse_dispatch(config.dispatch);
  cfg.threads = config.threads;
  cfg.allow_degrade = config.allow_degrade;
  cfg.assumed_tasks_per_camera = config.assumed_tasks_per_camera;
  cfg.readmit_interval = config.readmit_interval;
  cfg.readmit_low_water = config.readmit_low_water;
  cfg.readmit_high_water = config.readmit_high_water;
  cfg.allow_split = config.allow_split;
  cfg.dispatch_overhead_ms = config.dispatch_overhead_ms;
  cfg.shards = config.shards;
  cfg.shard_capacity = config.shard_capacity;
  cfg.rebalance_interval = config.rebalance_interval;
  cfg.rebalance_high_water = config.rebalance_high_water;
  cfg.burn_error_budget = config.burn_error_budget;
  cfg.burn_fast_window = config.burn_fast_window;
  cfg.burn_slow_window = config.burn_slow_window;
  cfg.burn_raise = config.burn_raise;
  cfg.burn_clear = config.burn_clear;
  cfg.burn_degrade = config.burn_degrade;
  return cfg;
}

Fleet::Fleet(const FleetConfig& config)
    : cfg_(config),
      pool_(static_cast<std::size_t>(std::max(0, config.threads))) {
  const int n = std::max(1, cfg_.shards);
  shards_.reserve(static_cast<std::size_t>(n));
  for (int k = 0; k < n; ++k)
    shards_.push_back(std::make_unique<Shard>(cfg_, k, &pool_));
  base_fps_ = std::max(
      1, static_cast<int>(std::lround(
             1000.0 / std::max(1e-6, cfg_.frame_period_ms))));
}

Fleet::~Fleet() = default;

void Fleet::attach_trace(runtime::TraceRecorder* trace) {
  trace_ = trace;
  for (auto& s : shards_) s->attach_trace(trace);
}

void Fleet::record(runtime::TraceEventType type, int session_id, double value,
                   int shard, int migrated_from) {
  if (trace_)
    trace_->record({ticks(), session_id, type, 0, value, shard, migrated_from});
  if (obs::enabled())
    obs::metrics()
        .counter(std::string("fleet.events.") + runtime::to_string(type))
        .add(1);
}

long Fleet::ticks() const { return shards_[0]->ticks(); }

int Fleet::wheel_hz() const { return shards_[0]->wheel_hz(); }

std::size_t Fleet::session_count() const {
  std::size_t n = 0;
  for (const auto& s : shards_) n += s->session_count();
  return n;
}

AdmitResult Fleet::admit(const SessionSpec& spec) {
  // Least-loaded placement over static placement demand; ties go to the
  // lowest index. O(shards), with an O(1) per-shard capacity check.
  Shard* best = nullptr;
  for (auto& s : shards_) {
    if (cfg_.shard_capacity > 0 &&
        s->session_count() >= static_cast<std::size_t>(cfg_.shard_capacity))
      continue;
    if (!best || s->placed_demand_ms() < best->placed_demand_ms())
      best = s.get();
  }
  AdmitResult result;
  if (!best) {
    result.reason = "every shard is at shard_capacity";
    ++rejected_;
    record(runtime::TraceEventType::kSessionReject, -1, 0.0);
    return result;
  }

  SessionRecord* session = best->admit(spec, &result);
  if (!session) return result;  // the shard counted and traced it

  // Keep every shard's wheel equal: a session admitted anywhere must be
  // cadence-representable everywhere, or migration could not preserve its
  // firing pattern. The placement shard already grew its own.
  for (auto& s : shards_) s->grow_wheel(session->fps);

  session->handle = handles_.issue(best->index(), session->id);
  result.handle = session->handle;
  return result;
}

Fleet::Route Fleet::resolve(SessionHandle handle, FleetStatus* status) const {
  const HandleTable::Entry* entry = handles_.find(handle, status);
  if (!entry) return {};
  Shard* shard = shards_[static_cast<std::size_t>(entry->shard)].get();
  return {shard, shard->find(entry->local)};
}

FleetStatus Fleet::pause(SessionHandle handle) {
  FleetStatus status = FleetStatus::kOk;
  const Route route = resolve(handle, &status);
  return route.session ? route.shard->pause(*route.session) : status;
}

FleetStatus Fleet::resume(SessionHandle handle) {
  FleetStatus status = FleetStatus::kOk;
  const Route route = resolve(handle, &status);
  return route.session ? route.shard->resume(*route.session) : status;
}

FleetStatus Fleet::evict(SessionHandle handle) {
  FleetStatus status = FleetStatus::kOk;
  const Route route = resolve(handle, &status);
  return route.session ? route.shard->evict(*route.session) : status;
}

FleetStatus Fleet::release(SessionHandle handle) {
  FleetStatus status = FleetStatus::kOk;
  const Route route = resolve(handle, &status);
  if (!route.session) return status;
  status = route.shard->release(*route.session);
  // Recycle the handle slot: the NEXT tenant of this slot gets gen + 1, so
  // every copy of `handle` is now detectably stale instead of silently
  // addressing the newcomer.
  if (status == FleetStatus::kOk) handles_.release(handle);
  return status;
}

SessionState Fleet::state(SessionHandle handle) const {
  const Route route = resolve(handle, nullptr);
  return route.session ? route.session->state : SessionState::kEvicted;
}

runtime::PipelineResult Fleet::result(SessionHandle handle,
                                      FleetStatus* status) const {
  FleetStatus st = FleetStatus::kOk;
  const Route route = resolve(handle, &st);
  if (status) *status = st;
  if (!route.session) return {};
  const SessionRecord& s = *route.session;
  return s.pipeline ? s.pipeline->result() : s.final_result;
}

int Fleet::scale_devices(const std::string& device_class, int delta) {
  int size = 1;
  for (auto& s : shards_) size = s->scale_devices(device_class, delta);
  return size;
}

void Fleet::move(Shard& from, SessionRecord& session, Shard& to) {
  std::unique_ptr<SessionRecord> rec = from.detach(session);
  // Stamp provenance BEFORE attach: every post-migration lifecycle event
  // the target shard records for this session carries migrated_from.
  rec->migrated_from = from.index();
  const SessionHandle handle = rec->handle;
  HandleTable::Entry* entry = handles_.find(handle);
  entry->shard = to.index();
  entry->local = to.attach(std::move(rec));
  ++migrations_;
  record(runtime::TraceEventType::kSessionMigrate, static_cast<int>(handle.id),
         static_cast<double>(to.index()), to.index(), from.index());
}

FleetStatus Fleet::migrate(SessionHandle handle, int target_shard) {
  FleetStatus status = FleetStatus::kOk;
  const Route route = resolve(handle, &status);
  if (!route.session) return status;
  if (target_shard < 0 || target_shard >= shard_count())
    return FleetStatus::kUnknownSession;
  if (target_shard == route.shard->index() ||
      route.session->state == SessionState::kEvicted)
    return FleetStatus::kInvalidState;
  move(*route.shard, *route.session,
       *shards_[static_cast<std::size_t>(target_shard)]);
  return FleetStatus::kOk;
}

void Fleet::rebalance_scan() {
  // One move per scan, and only past the high-water band (hysteresis —
  // same discipline as the shards' readmit_scan).
  Shard* hot = nullptr;
  Shard* cold = nullptr;
  double total = 0.0;
  for (auto& s : shards_) {
    total += s->rebalance_busy_ms();
    if (!hot || s->rebalance_busy_ms() > hot->rebalance_busy_ms())
      hot = s.get();
    if (!cold || s->rebalance_busy_ms() < cold->rebalance_busy_ms())
      cold = s.get();
  }
  const double mean = total / static_cast<double>(shards_.size());
  const bool imbalanced = hot != cold && mean > 0.0 &&
                          hot->rebalance_busy_ms() >
                              cfg_.rebalance_high_water * mean;
  for (auto& s : shards_) s->reset_rebalance_window();
  if (!imbalanced) return;

  // Cheapest move first: the hottest shard's smallest-demand active
  // session. Migrate only when the move strictly improves the static
  // placement imbalance (placed_hot - d >= placed_cold + d), so the scan
  // cannot ping-pong a session between two near-equal shards. The check
  // comes first: a scan without an improving move leaves the victim's
  // local id, roster position and obs names untouched.
  SessionRecord* victim = hot->pick_migration_victim();
  if (!victim) return;
  const double d = victim->placement_demand_ms;
  if (hot->placed_demand_ms() - d < cold->placed_demand_ms() + d) return;
  move(*hot, *victim, *cold);
}

void Fleet::step() {
  // Shards are fully independent (own arbiter, own sessions, own wheel),
  // so stepping them concurrently on the shared pool is deterministic for
  // any worker count; each shard's internal parallelism nests on the same
  // pool.
  pool_.run_tiles(shards_.size(), [&](std::size_t i) { shards_[i]->step(); });

  plan_scratch_.clear();
  double busy = 0.0;
  for (auto& s : shards_) {
    const TickPlan& plan = s->last_plan();
    plan_scratch_.push_back(&plan);
    busy += plan.shared_busy_ms;
  }
  tick_busy_ms_.add(busy);

  // Second merge level: price what a plane-wide merge would save on top of
  // the shard-local merges this tick. Exactly zero with one shard.
  const CrossMergeStats cross = cross_shard_merge(
      plan_scratch_, cfg_.dispatch_overhead_ms, fold_cursors_);
  cross_batches_saved_ += cross.batches_saved;
  cross_busy_saved_ms_ += cross.busy_saved_ms;

  if (cfg_.rebalance_interval > 0 &&
      ++rebalance_ticks_ >= cfg_.rebalance_interval) {
    rebalance_ticks_ = 0;
    rebalance_scan();
  }
}

FleetSnapshot Fleet::snapshot() const {
  FleetSnapshot snap;
  snap.ticks = ticks();
  snap.wheel_hz = wheel_hz();
  snap.shards = shard_count();
  snap.rejected = rejected_;
  snap.migrations = migrations_;
  snap.cross_batches_saved = cross_batches_saved_;
  snap.cross_busy_saved_ms = cross_busy_saved_ms_;

  std::map<std::string, int> pools;
  for (const auto& shard : shards_) {
    snap.shard_rollups.push_back(shard->snapshot_into(snap));
    for (const auto& [name, count] : shard->device_counts())
      pools[name] = std::max(pools[name], count);
  }
  for (const auto& [name, count] : pools)
    snap.device_pools.emplace_back(name, count);

  // Tick period in ms at the CURRENT wheel rate, anchored to the configured
  // base period so wheel_hz == base_fps reproduces frame_period_ms exactly.
  const double tick_period_ms =
      cfg_.frame_period_ms * static_cast<double>(base_fps_) /
      static_cast<double>(std::max(1, snap.wheel_hz));
  snap.mean_occupancy =
      tick_period_ms > 0.0 ? tick_busy_ms_.mean() / tick_period_ms : 0.0;
  snap.p95_tick_busy_ms =
      tick_busy_ms_.count() ? tick_busy_ms_.percentile(95.0) : 0.0;
  return snap;
}

std::unique_ptr<Fleet> make_fleet(const FleetConfig& config) {
  return std::make_unique<Fleet>(config);
}

std::string FleetSnapshot::to_json() const {
  util::Json::Object fleet;
  fleet["ticks"] = util::Json(static_cast<double>(ticks));
  fleet["wheel_hz"] = util::Json(wheel_hz);
  fleet["shards"] = util::Json(shards);
  fleet["admitted"] = util::Json(admitted);
  fleet["rejected"] = util::Json(rejected);
  fleet["evicted"] = util::Json(evicted);
  fleet["readmitted"] = util::Json(readmitted);
  fleet["redegraded"] = util::Json(redegraded);
  fleet["migrations"] = util::Json(static_cast<double>(migrations));
  fleet["batch_splits"] = util::Json(static_cast<double>(batch_splits));
  fleet["shared_batches"] = util::Json(static_cast<double>(shared_batches));
  fleet["isolated_batches"] =
      util::Json(static_cast<double>(isolated_batches));
  fleet["shared_busy_ms"] = util::Json(shared_busy_ms);
  fleet["isolated_busy_ms"] = util::Json(isolated_busy_ms);
  fleet["total_queue_ms"] = util::Json(total_queue_ms);
  fleet["cross_batches_saved"] =
      util::Json(static_cast<double>(cross_batches_saved));
  fleet["cross_busy_saved_ms"] = util::Json(cross_busy_saved_ms);
  fleet["total_retries"] = util::Json(static_cast<double>(total_retries));
  fleet["total_dropped_msgs"] =
      util::Json(static_cast<double>(total_dropped_msgs));
  fleet["mean_occupancy"] = util::Json(mean_occupancy);
  fleet["p95_tick_busy_ms"] = util::Json(p95_tick_busy_ms);
  fleet["mean_queue_depth"] = util::Json(mean_queue_depth);
  fleet["slo_alerts_raised"] =
      util::Json(static_cast<double>(slo_alerts_raised));
  fleet["slo_alerts_cleared"] =
      util::Json(static_cast<double>(slo_alerts_cleared));
  fleet["alerting_sessions"] = util::Json(alerting_sessions);
  util::Json::Array pools;
  for (const auto& [name, count] : device_pools) {
    util::Json::Object pool;
    pool["class"] = util::Json(name);
    pool["devices"] = util::Json(count);
    pools.push_back(util::Json(std::move(pool)));
  }
  fleet["device_pools"] = util::Json(std::move(pools));
  util::Json::Array rollups;
  for (const ShardRollup& r : shard_rollups) {
    util::Json::Object obj;
    obj["shard"] = util::Json(r.index);
    obj["sessions"] = util::Json(r.sessions);
    obj["frames"] = util::Json(static_cast<double>(r.frames));
    obj["shared_busy_ms"] = util::Json(r.shared_busy_ms);
    obj["placed_demand_ms"] = util::Json(r.placed_demand_ms);
    obj["mean_occupancy"] = util::Json(r.mean_occupancy);
    obj["alerting"] = util::Json(r.alerting);
    obj["slo_alerts"] = util::Json(static_cast<double>(r.slo_alerts));
    rollups.push_back(util::Json(std::move(obj)));
  }
  fleet["shard_rollups"] = util::Json(std::move(rollups));

  util::Json::Array session_array;
  for (const SessionSnapshot& s : sessions) {
    util::Json::Object obj;
    obj["handle"] = util::Json(static_cast<double>(s.handle.id));
    obj["gen"] = util::Json(static_cast<double>(s.handle.gen));
    obj["shard"] = util::Json(s.shard);
    obj["name"] = util::Json(s.name);
    obj["state"] = util::Json(to_string(s.state));
    obj["weight"] = util::Json(s.weight);
    obj["fps"] = util::Json(s.fps);
    obj["stride"] = util::Json(s.stride);
    obj["tight_masks"] = util::Json(s.tight_masks);
    obj["frames"] = util::Json(static_cast<double>(s.frames));
    obj["deferred_ticks"] = util::Json(static_cast<double>(s.deferred_ticks));
    obj["slo_violations"] = util::Json(static_cast<double>(s.slo_violations));
    obj["slo_ms"] = util::Json(s.slo_ms);
    obj["p50_ms"] = util::Json(s.p50_ms);
    obj["p95_ms"] = util::Json(s.p95_ms);
    obj["p99_ms"] = util::Json(s.p99_ms);
    obj["mean_ms"] = util::Json(s.mean_ms);
    obj["mean_isolated_ms"] = util::Json(s.mean_isolated_ms);
    obj["mean_queue_ms"] = util::Json(s.mean_queue_ms);
    obj["busy_sum_ms"] = util::Json(s.busy_sum_ms);
    obj["retries"] = util::Json(static_cast<double>(s.retries));
    obj["dropped_msgs"] = util::Json(static_cast<double>(s.dropped_msgs));
    obj["object_recall"] = util::Json(s.object_recall);
    obj["slo_alerts"] = util::Json(static_cast<double>(s.slo_alerts));
    obj["alerting"] = util::Json(s.alerting);
    obj["fast_burn"] = util::Json(s.fast_burn);
    obj["slow_burn"] = util::Json(s.slow_burn);
    session_array.push_back(util::Json(std::move(obj)));
  }

  util::Json::Object doc;
  doc["fleet"] = util::Json(std::move(fleet));
  doc["sessions"] = util::Json(std::move(session_array));
  return util::Json(std::move(doc)).dump();
}

}  // namespace mvs::fleet
