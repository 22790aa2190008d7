#include "fleet/shard.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "obs/obs.hpp"
#include "policy/policy.hpp"
#include "sim/scenario.hpp"

namespace mvs::fleet {

static_assert(runtime::kMaxBurnWindow == BurnWindow::kMaxWindow,
              "the config schema's burn window bound must match the ring");

namespace {

BurnConfig make_burn_config(const FleetConfig& cfg) {
  BurnConfig bc;
  bc.error_budget = cfg.burn_error_budget;
  bc.fast_window = cfg.burn_fast_window;
  bc.slow_window = cfg.burn_slow_window;
  bc.raise_mult = cfg.burn_raise;
  bc.clear_mult = cfg.burn_clear;
  return bc;
}

}  // namespace

Shard::Shard(const FleetConfig& config, int index, util::ThreadPool* pool)
    : cfg_(config), index_(index), pool_(pool) {
  base_fps_ = std::max(
      1, static_cast<int>(std::lround(
             1000.0 / std::max(1e-6, cfg_.frame_period_ms))));
  wheel_hz_ = base_fps_;
  const std::string p = "fleet.shard." + std::to_string(index_) + ".";
  obs_.ticks = p + "ticks";
  obs_.frames = p + "frames";
  obs_.deferred = p + "deferred";
  obs_.shared_batches = p + "shared_batches";
  obs_.isolated_batches = p + "isolated_batches";
  obs_.batch_splits = p + "batch_splits";
  obs_.tick_busy_ms = p + "tick_busy_ms";
  obs_.queue_depth = p + "queue_depth";
  obs_.sessions = p + "sessions";
  obs_.session_prefix = p + "session.";
  shard_burn_.configure(make_burn_config(cfg_));
}

Shard::~Shard() = default;

void Shard::record(runtime::TraceEventType type, int session_id, double value,
                   int migrated_from) {
  if (trace_)
    trace_->record(
        {ticks_, session_id, type, 0, value, index_, migrated_from});
  // Every lifecycle decision (admit/reject/defer/readmit/evict/...) funnels
  // through here; one counter per event type re-expresses them as metrics.
  // Event counters stay un-prefixed on purpose: lifecycle totals aggregate
  // across the plane (per-shard rollups live on the step() metrics instead).
  if (obs::enabled())
    obs::metrics()
        .counter(std::string("fleet.events.") + runtime::to_string(type))
        .add(1);
  // Lifecycle events also land in the flight recorder's event ring so a
  // postmortem shows what the fleet DID around the miss burst
  // (to_string returns a static string — no allocation here).
  if (obs::attribution_enabled())
    obs::recorder().note_event(ticks_, runtime::to_string(type), session_id,
                               value);
}

SessionRecord* Shard::find(int id) {
  for (auto& s : sessions_)
    if (s->id == id) return s.get();
  return nullptr;
}

double Shard::estimate_demand_ms(
    const std::vector<gpu::DeviceProfile>& devices,
    const runtime::PipelineConfig& pipe) const {
  // Coarse, deterministic planning estimate of a deployment's steady-state
  // per-frame GPU busy time: one full-frame inspection per camera per
  // horizon, plus assumed_tasks_per_camera partial tasks per regular frame,
  // each costing its per-slot share of a mid-class batch. The partial term
  // scales by the frame policy's expected detect ratio (track-only frames
  // submit zero slices), each class's cost is divided by its current pool
  // width (a 3-wide pool absorbs ~3x the demand per tick), and a non-zero
  // dispatch overhead charges roughly one batch dispatch per firing.
  const double T = static_cast<double>(std::max(1, pipe.horizon_frames));
  const double detect = policy::demand_factor(pipe.frame_policy);
  double demand = 0.0;
  for (const gpu::DeviceProfile& dev : devices) {
    const auto classes = dev.size_class_count();
    const auto mid = static_cast<geom::SizeClassId>(
        classes >= 3 ? 2 : (classes > 0 ? classes - 1 : 0));
    const double per_task =
        classes > 0
            ? dev.batch_latency_ms(mid) / static_cast<double>(dev.batch_limit(mid))
            : 0.0;
    double per_frame =
        dev.full_frame_ms() / T +
        (T - 1.0) / T * cfg_.assumed_tasks_per_camera * per_task * detect;
    if (cfg_.dispatch_overhead_ms > 0.0)
      per_frame += cfg_.dispatch_overhead_ms * (1.0 / T + (T - 1.0) / T * detect);
    demand += per_frame /
              static_cast<double>(std::max(1, arbiter_.device_count(dev.name())));
  }
  return demand;
}

double Shard::session_frame_ms(const SessionRecord& s) const {
  return s.frames > 0 ? s.busy_sum_ms / static_cast<double>(s.frames)
                      : s.static_demand_ms;
}

double Shard::session_demand_ms(const SessionRecord& s) const {
  // Demand per base frame period: per-frame cost x how often the session
  // fires relative to the base rate. A full-rate base-fps session with
  // stride 1 contributes exactly its per-frame cost.
  return session_frame_ms(s) * static_cast<double>(s.fps) /
         (static_cast<double>(s.stride) * static_cast<double>(base_fps_));
}

const std::vector<gpu::DeviceProfile>& Shard::probe_devices(
    const std::string& scenario, std::uint64_t seed) {
  const auto it = probe_cache_.find(scenario);
  if (it != probe_cache_.end()) return it->second;
  // Probe the deployment's device profiles without building the (expensive)
  // pipeline: scenario construction is cheap, association training is not.
  // Profiles are a fixed property of the scenario's camera poles (seed only
  // drives traffic), so one probe per scenario name serves every admission.
  std::vector<gpu::DeviceProfile> devices;
  const sim::Scenario probe = sim::make_scenario(scenario, seed);
  for (const sim::ScenarioCamera& cam : probe.cameras)
    devices.push_back(cam.device);
  return probe_cache_.emplace(scenario, std::move(devices)).first->second;
}

void Shard::grow_wheel(int fps) {
  const long lcm = static_cast<long>(wheel_hz_) / std::gcd(wheel_hz_, fps) *
                   static_cast<long>(fps);
  if (lcm == wheel_hz_) return;
  const long m = lcm / wheel_hz_;
  // Rescale every firing pattern so established sessions keep their exact
  // cadence and phase relationships across the growth.
  for (auto& s : sessions_) {
    s->period_ticks *= static_cast<int>(m);
    s->phase *= static_cast<int>(m);
  }
  ticks_ *= m;
  wheel_hz_ = static_cast<int>(lcm);
}

SessionRecord* Shard::admit(const SessionSpec& spec, AdmitResult* out) {
  AdmitResult& result = *out;
  if (spec.fps < 0) {
    ++rejected_;
    result.reason = "negative native fps";
    record(runtime::TraceEventType::kSessionReject, -1, 0.0);
    return nullptr;
  }
  const int fps = spec.fps > 0 ? spec.fps : base_fps_;

  const std::vector<gpu::DeviceProfile>& devices =
      probe_devices(spec.scenario, spec.pipeline.seed);
  // Demand normalized to one base period: a session firing faster than the
  // base rate costs proportionally more per period.
  const double demand =
      estimate_demand_ms(devices, spec.pipeline) *
      static_cast<double>(fps) / static_cast<double>(base_fps_);

  // Without an SLO there is nothing to project against, so admission skips
  // the roster scan entirely — O(1), which is what lets a shard absorb
  // thousands of admissions. With an SLO the exact projection is kept.
  double current = 0.0;
  if (cfg_.slo_ms > 0.0)
    for (const auto& s : sessions_)
      if (s->state == SessionState::kActive) current += session_demand_ms(*s);

  // Split-aware headroom: with batch splitting on, an over-full tick can
  // shed half a batch to the next slot instead of missing the SLO, so the
  // admission ceiling relaxes by the spillable fraction.
  constexpr double kSplitHeadroom = 1.2;
  const double ceiling =
      cfg_.slo_ms * (cfg_.allow_split ? kSplitHeadroom : 1.0);

  bool tight = spec.pipeline.tight_masks;
  int stride = 1;
  result.projected_ms = current + demand;
  if (cfg_.slo_ms > 0.0 && result.projected_ms > ceiling) {
    // Degrade ladder: mask tightening sheds the shared-coverage slice of the
    // partial load, rate halving amortizes the whole session over two
    // ticks; the combination applies both.
    constexpr double kTightFactor = 0.75;
    struct Mode {
      bool tight;
      int stride;
      double factor;
    };
    const Mode ladder[] = {{true, 1, kTightFactor},
                           {false, 2, 0.5},
                           {true, 2, 0.5 * kTightFactor}};
    bool fitted = false;
    if (cfg_.allow_degrade) {
      for (const Mode& mode : ladder) {
        if (current + demand * mode.factor <= ceiling) {
          tight = mode.tight || tight;
          stride = mode.stride;
          result.projected_ms = current + demand * mode.factor;
          fitted = true;
          break;
        }
      }
    }
    if (!fitted) {
      ++rejected_;
      result.reason = "projected latency exceeds SLO even fully degraded";
      record(runtime::TraceEventType::kSessionReject, -1,
             result.projected_ms);
      return nullptr;
    }
  }

  grow_wheel(fps);

  auto session = std::make_unique<SessionRecord>();
  session->id = next_id_++;
  session->spec = spec;
  session->spec.pipeline.tight_masks = tight;
  // Per-session fault profile (the self-contained session API): replaces
  // whatever the pipeline config carried and, unless fault-free, selects
  // the lossy transport.
  if (spec.faults) {
    session->spec.pipeline.faults = *spec.faults;
    if (!spec.faults->fault_free())
      session->spec.pipeline.transport = net::TransportKind::kLossy;
  }
  session->fps = fps;
  session->period_ticks = wheel_hz_ / fps;
  session->stride = stride;
  session->degraded_rate = stride > 1;
  session->degraded_tight = tight && !spec.pipeline.tight_masks;
  if (stride > 1) {
    // Spread rate-halved sessions across both phases to balance the ticks.
    int halved = 0;
    for (const auto& s : sessions_) halved += (s->stride > 1);
    session->phase = (halved % 2) * session->period_ticks;
  }
  session->burn.configure(make_burn_config(cfg_));
  session->devices = devices;
  session->carryover.resize(devices.size());
  session->static_demand_ms =
      estimate_demand_ms(session->devices, session->spec.pipeline);
  session->placement_demand_ms = demand;
  if (spec.synthetic) {
    session->synth = std::make_unique<SyntheticSource>(
        session->devices, spec.pipeline.seed, cfg_.assumed_tasks_per_camera,
        spec.pipeline.horizon_frames);
  } else {
    session->pipeline = std::make_unique<runtime::Pipeline>(
        spec.scenario, session->spec.pipeline, pool_);
  }

  // Register this deployment's accelerator classes with the arbiter so the
  // pool sizes show up in snapshots (default one device per class).
  for (const gpu::DeviceProfile& dev : session->devices)
    if (!arbiter_.device_counts().count(dev.name()))
      arbiter_.set_device_count(dev.name(), 1);

  result.admitted = true;
  result.masks_tightened = session->degraded_tight;
  result.rate_halved = stride > 1;
  result.shard = index_;
  ++admitted_;
  ++live_sessions_;
  placed_demand_ms_ += session->placement_demand_ms;
  record(runtime::TraceEventType::kSessionAdmit, session->id,
         result.projected_ms);
  sessions_.push_back(std::move(session));
  return sessions_.back().get();
}

FleetStatus Shard::evict(SessionRecord& s) {
  if (s.state == SessionState::kEvicted) return FleetStatus::kInvalidState;
  if (s.pipeline) {
    s.final_result = s.pipeline->result();
    s.pipeline.reset();
  }
  s.synth.reset();
  s.carryover.clear();
  s.state = SessionState::kEvicted;
  ++evicted_;
  --live_sessions_;
  placed_demand_ms_ -= s.placement_demand_ms;
  record(runtime::TraceEventType::kSessionEvict, s.id, 0.0, s.migrated_from);
  // An eviction is a postmortem-worthy lifecycle end: snapshot the flight
  // recorder so the session's last frames survive it (in-memory only unless
  // a postmortem dir is configured).
  if (obs::attribution_enabled()) obs::recorder().request_dump("session-evict");
  return FleetStatus::kOk;
}

FleetStatus Shard::pause(SessionRecord& s) {
  if (s.state != SessionState::kActive) return FleetStatus::kInvalidState;
  s.state = SessionState::kPaused;
  record(runtime::TraceEventType::kSessionPause, s.id, 0.0, s.migrated_from);
  return FleetStatus::kOk;
}

FleetStatus Shard::resume(SessionRecord& s) {
  if (s.state != SessionState::kPaused) return FleetStatus::kInvalidState;
  s.state = SessionState::kActive;
  record(runtime::TraceEventType::kSessionResume, s.id, 0.0, s.migrated_from);
  return FleetStatus::kOk;
}

FleetStatus Shard::release(SessionRecord& s) {
  if (s.state != SessionState::kEvicted) return FleetStatus::kInvalidState;
  // Drop the retained result (the plane recycles the handle slot).
  detach_record(s);
  return FleetStatus::kOk;
}

int Shard::scale_devices(const std::string& device_class, int delta) {
  const int next = std::max(1, arbiter_.device_count(device_class) + delta);
  arbiter_.set_device_count(device_class, next);
  record(runtime::TraceEventType::kDeviceScale, -1,
         static_cast<double>(next));
  return next;
}

std::unique_ptr<SessionRecord> Shard::detach_record(SessionRecord& s) {
  const auto it = std::find_if(
      sessions_.begin(), sessions_.end(),
      [&](const std::unique_ptr<SessionRecord>& r) { return r.get() == &s; });
  std::unique_ptr<SessionRecord> rec = std::move(*it);
  sessions_.erase(it);
  return rec;
}

std::unique_ptr<SessionRecord> Shard::detach(SessionRecord& s) {
  --live_sessions_;
  placed_demand_ms_ -= s.placement_demand_ms;
  return detach_record(s);
}

int Shard::attach(std::unique_ptr<SessionRecord> record) {
  // Under the plane-wide equal-wheel invariant this is a no-op; it is kept
  // for safety so a record can never fire on a wheel its period does not
  // divide.
  grow_wheel(std::max(1, record->fps));
  record->id = next_id_++;
  for (const gpu::DeviceProfile& dev : record->devices)
    if (!arbiter_.device_counts().count(dev.name()))
      arbiter_.set_device_count(dev.name(), 1);
  ++live_sessions_;
  placed_demand_ms_ += record->placement_demand_ms;
  sessions_.push_back(std::move(record));
  return sessions_.back()->id;
}

SessionRecord* Shard::pick_migration_victim() {
  SessionRecord* best = nullptr;
  for (const auto& s : sessions_) {
    if (s->state != SessionState::kActive) continue;
    if (!best || s->placement_demand_ms < best->placement_demand_ms)
      best = s.get();
  }
  return best;
}

void Shard::readmit_scan() {
  const double mean_busy =
      window_busy_ms_ / static_cast<double>(std::max(1, window_ticks_));
  window_busy_ms_ = 0.0;
  window_ticks_ = 0;

  // Above the high-water mark: push one session one rung DOWN the degrade
  // ladder per scan — tighten masks first, then halve the rate — the exact
  // mirror of re-admission below (which restores rate first, then masks).
  // Highest session id degrades first (the mirror of lowest-id-wins on the
  // way back up), so the longest-served sessions keep quality longest.
  // Between the water marks nothing changes in either direction: the band
  // is the hysteresis that keeps rungs from flapping scan to scan.
  if (mean_busy > cfg_.readmit_high_water * cfg_.slo_ms) {
    if (!cfg_.allow_degrade) return;
    apply_degrade_rung(mean_busy);
    return;
  }
  if (mean_busy >= cfg_.readmit_low_water * cfg_.slo_ms) return;

  double current = 0.0;
  for (const auto& s : sessions_)
    if (s->state == SessionState::kActive) current += session_demand_ms(*s);
  const double ceiling = cfg_.readmit_high_water * cfg_.slo_ms;

  // Reverse the degrade ladder one rung per scan: restore full rate first
  // (it halves the latency penalty), then un-tighten masks (recall). Only
  // degradation the FLEET applied is reversed; lowest session id wins ties.
  for (auto& s : sessions_) {
    if (s->state != SessionState::kActive || !s->degraded_rate) continue;
    // Going from stride 2 to 1 doubles the session's per-period demand.
    const double additional = session_demand_ms(*s);
    if (current + additional > ceiling) continue;
    s->stride = 1;
    s->degraded_rate = false;
    ++readmitted_;
    record(runtime::TraceEventType::kSessionReadmit, s->id,
           current + additional);
    return;
  }
  for (auto& s : sessions_) {
    if (s->state != SessionState::kActive || !s->degraded_tight) continue;
    // Un-tightening restores the shed shared-coverage load: the tightened
    // demand is 0.75x the full demand, so full costs an extra third.
    constexpr double kTightFactor = 0.75;
    const double additional =
        session_demand_ms(*s) * (1.0 / kTightFactor - 1.0);
    if (current + additional > ceiling) continue;
    s->spec.pipeline.tight_masks = false;
    if (s->pipeline) s->pipeline->set_tight_masks(false);
    s->degraded_tight = false;
    ++readmitted_;
    record(runtime::TraceEventType::kSessionReadmit, s->id,
           current + additional);
    return;
  }
}

bool Shard::apply_degrade_rung(double value) {
  for (auto it = sessions_.rbegin(); it != sessions_.rend(); ++it) {
    SessionRecord* s = it->get();
    if (s->state != SessionState::kActive || s->degraded_tight) continue;
    s->spec.pipeline.tight_masks = true;
    if (s->pipeline) s->pipeline->set_tight_masks(true);
    s->degraded_tight = true;
    ++redegraded_;
    record(runtime::TraceEventType::kSessionRedegrade, s->id, value,
           s->migrated_from);
    return true;
  }
  for (auto it = sessions_.rbegin(); it != sessions_.rend(); ++it) {
    SessionRecord* s = it->get();
    if (s->state != SessionState::kActive || s->degraded_rate) continue;
    s->stride = 2;
    s->degraded_rate = true;
    ++redegraded_;
    record(runtime::TraceEventType::kSessionRedegrade, s->id, value,
           s->migrated_from);
    return true;
  }
  return false;
}

void Shard::step() {
  MVS_SPAN("fleet.tick");
  const long tick = ticks_;

  // 1. Sessions due this tick (active, native period x stride matches).
  std::vector<SessionRecord*>& due = due_scratch_;
  due.clear();
  for (auto& s : sessions_) {
    const long cycle = static_cast<long>(s->period_ticks) * s->stride;
    if (s->state == SessionState::kActive && tick % cycle == s->phase % cycle)
      due.push_back(s.get());
  }

  // 2. Dispatch: order the due sessions, then defer from the back while the
  // projected tick demand exceeds the SLO (at least one session always
  // runs). Round-robin rotates the order each tick so the deferral burden
  // is shared; weighted-priority puts low weights at the back.
  if (cfg_.dispatch == DispatchPolicy::kWeightedPriority) {
    std::stable_sort(due.begin(), due.end(),
                     [](SessionRecord* a, SessionRecord* b) {
                       if (a->spec.weight != b->spec.weight)
                         return a->spec.weight > b->spec.weight;
                       return a->id < b->id;
                     });
  } else if (!due.empty()) {
    std::rotate(due.begin(),
                due.begin() + static_cast<std::ptrdiff_t>(
                                  static_cast<std::size_t>(tick) % due.size()),
                due.end());
  }
  std::vector<SessionRecord*>& chosen = chosen_scratch_;
  chosen.clear();
  std::size_t deferred = 0;
  if (cfg_.slo_ms > 0.0) {
    double projected = 0.0;
    for (SessionRecord* s : due) {
      const double d = session_frame_ms(*s);  // full frame cost this tick
      if (!chosen.empty() && projected + d > cfg_.slo_ms) {
        ++s->deferred_ticks;
        ++deferred;
        record(runtime::TraceEventType::kSessionDefer, s->id, projected + d,
               s->migrated_from);
        continue;
      }
      projected += d;
      chosen.push_back(s);
    }
  } else {
    chosen.assign(due.begin(), due.end());
  }

  // 3. Step the chosen sessions concurrently on the shared pool. Sessions
  // only touch their own state (and the nested-safe pool), so this is
  // deterministic for any worker count. The per-frame stats live inside
  // each pipeline (run_frame_ref) — nothing is copied out here. Synthetic
  // sessions generate their seeded work instead of running the stack.
  pool_->run_tiles(chosen.size(), [&](std::size_t i) {
    MVS_SPAN("fleet.session");
    if (chosen[i]->pipeline)
      chosen[i]->pipeline->run_frame_ref();
    else
      chosen[i]->synth->run_frame();
  });

  // 4. Cross-session GPU arbitration over the stepped sessions' work, in
  // ascending session id for deterministic submission order. Batch-split
  // debt from earlier ticks rides along with the owning camera's work.
  std::vector<SessionRecord*>& ordered = ordered_scratch_;
  ordered.assign(chosen.begin(), chosen.end());
  std::sort(ordered.begin(), ordered.end(),
            [](SessionRecord* a, SessionRecord* b) { return a->id < b->id; });
  arbiter_.begin_tick();
  for (SessionRecord* s : ordered) {
    const auto& work =
        s->pipeline ? s->pipeline->last_gpu_work() : s->synth->last_gpu_work();
    for (std::size_t cam = 0; cam < work.size(); ++cam) {
      const int cam_id = static_cast<int>(cam);
      std::vector<geom::SizeClassId>& debt = s->carryover[cam];
      if (!debt.empty()) {
        runtime::CameraGpuWork& merged = merged_scratch_;
        merged.full_frame = work[cam].full_frame;
        merged.tasks.assign(work[cam].tasks.begin(), work[cam].tasks.end());
        merged.tasks.insert(merged.tasks.end(), debt.begin(), debt.end());
        debt.clear();
        arbiter_.submit(s->id, cam_id, s->devices[cam], merged,
                        s->spec.weight);
      } else {
        arbiter_.submit(s->id, cam_id, s->devices[cam], work[cam],
                        s->spec.weight);
      }
    }
  }
  TickContext ctx;
  ctx.slo_ms = cfg_.slo_ms;
  ctx.allow_split = cfg_.allow_split;
  ctx.dispatch_overhead_ms = cfg_.dispatch_overhead_ms;
  TickPlan& plan = plan_scratch_;
  {
    MVS_SPAN("fleet.arbiter");
    arbiter_.plan_tick_into(ctx, plan);
  }
  shared_batches_ += plan.shared_batches;
  isolated_batches_ += plan.isolated_batches;
  shared_busy_ms_ += plan.shared_busy_ms;
  isolated_busy_ms_ += plan.isolated_busy_ms;
  total_queue_ms_ += plan.queue_ms_total;
  batch_splits_ += plan.splits;
  rebalance_busy_ms_ += plan.shared_busy_ms;
  tick_busy_ms_.add(plan.shared_busy_ms);
  queue_depth_.add(static_cast<double>(deferred));
  if (obs::enabled()) {
    // Shard rollups re-expressed as registry metrics (the SampleSet-based
    // snapshot stays the bit-identical source for FleetSnapshot JSON). All
    // values here are simulated/deterministic, so they carry the full
    // fingerprint. The registry's JSON export merges the shard-prefixed
    // keys into flat "fleet.*" rollups.
    obs::MetricsRegistry& m = obs::metrics();
    m.counter(obs_.ticks).add(1);
    m.counter(obs_.frames).add(static_cast<long long>(chosen.size()));
    m.counter(obs_.deferred).add(static_cast<long long>(deferred));
    m.counter(obs_.shared_batches).add(plan.shared_batches);
    m.counter(obs_.isolated_batches).add(plan.isolated_batches);
    m.counter(obs_.batch_splits).add(plan.splits);
    m.histogram(obs_.tick_busy_ms).record(plan.shared_busy_ms);
    m.histogram(obs_.queue_depth).record(static_cast<double>(deferred));
    m.gauge(obs_.sessions).set(static_cast<double>(sessions_.size()));
  }

  // Deferred task slices become carryover debt charged on the tick that
  // actually runs them (conservation-exact attribution).
  for (const DeferredSlice& slice : plan.deferred) {
    SessionRecord* owner = find(slice.session);
    if (!owner || owner->state == SessionState::kEvicted) continue;
    auto& debt = owner->carryover[static_cast<std::size_t>(slice.camera)];
    debt.insert(debt.end(), static_cast<std::size_t>(slice.count),
                slice.size_class);
    record(runtime::TraceEventType::kBatchSplit, slice.session,
           static_cast<double>(slice.count));
  }

  // 5. Per-session rollups: frame latency = slowest camera (paper
  // semantics) including device-pool queueing; demand = attributed busy of
  // the batches this tick actually executed.
  for (SessionRecord* s : ordered) {
    double frame_ms = 0.0, frame_iso_ms = 0.0, frame_queue_ms = 0.0;
    double busy = 0.0;
    // The critical-path share: the (gpu, queue) pair of the slowest camera,
    // whose sum IS frame_ms — so the attribution below conserves exactly.
    double crit_gpu_ms = 0.0, crit_wait_ms = 0.0;
    for (const Attribution& a : plan.shares) {
      if (a.session != s->id) continue;
      if (a.attributed_ms + a.queue_ms > frame_ms) {
        frame_ms = a.attributed_ms + a.queue_ms;
        crit_gpu_ms = a.attributed_ms;
        crit_wait_ms = a.queue_ms;
      }
      frame_iso_ms = std::max(frame_iso_ms, a.isolated_ms);
      frame_queue_ms = std::max(frame_queue_ms, a.queue_ms);
      busy += a.attributed_ms;
    }
    s->latency_ms.add(frame_ms);
    s->isolated_ms.add(frame_iso_ms);
    s->queue_ms.add(frame_queue_ms);
    if (obs::enabled()) {
      const std::string prefix = obs_.session_prefix + std::to_string(s->id);
      obs::MetricsRegistry& m = obs::metrics();
      m.histogram(prefix + ".latency_ms").record(frame_ms);
      m.histogram(prefix + ".queue_ms").record(frame_queue_ms);
    }
    s->busy_sum_ms += busy;
    const double slo = s->spec.slo_ms >= 0.0 ? s->spec.slo_ms : cfg_.slo_ms;
    const bool miss = slo > 0.0 && frame_ms > slo;
    if (miss) ++s->slo_violations;
    if (obs::attribution_enabled()) {
      // Stream id: shard (+1 so shard 0 is distinguishable from a
      // standalone runner's stream 0) in the high half-word, session id low.
      const std::uint32_t stream =
          (static_cast<std::uint32_t>(index_ + 1) << 16) |
          (static_cast<std::uint32_t>(s->id) & 0xffffU);
      obs::FrameAttribution fa;
      fa.id = obs::causal_id(stream, static_cast<std::uint64_t>(s->frames));
      fa.total_ms = frame_ms;
      fa.segment_ms[static_cast<std::size_t>(obs::Segment::kGpu)] =
          crit_gpu_ms;
      fa.segment_ms[static_cast<std::size_t>(obs::Segment::kBatchWait)] =
          crit_wait_ms;
      fa.deadline_miss = miss;
      obs::critical_path().record(fa);
      obs::recorder().note_frame(fa);
    }
    ++s->frames;
    if (cfg_.burn_error_budget > 0.0) {
      const int edge = s->burn.push(miss);
      if (edge > 0) {
        ++s->slo_alerts;
        ++slo_alerts_raised_;
        record(runtime::TraceEventType::kSloAlertRaise, s->id,
               s->burn.fast_burn(), s->migrated_from);
      } else if (edge < 0) {
        ++slo_alerts_cleared_;
        record(runtime::TraceEventType::kSloAlertClear, s->id,
               s->burn.fast_burn(), s->migrated_from);
      }
    }
  }

  // Shard-level burn monitor: a tick whose merged busy exceeds the SLO is
  // one bad event. A raise edge may couple straight into mitigation
  // (burn_degrade: one degrade rung, same rung order as the readmit
  // high-water branch).
  if (cfg_.burn_error_budget > 0.0 && cfg_.slo_ms > 0.0) {
    const int edge = shard_burn_.push(plan.shared_busy_ms > cfg_.slo_ms);
    if (edge > 0) {
      ++shard_slo_alerts_;
      ++slo_alerts_raised_;
      record(runtime::TraceEventType::kSloAlertRaise, -1,
             shard_burn_.fast_burn());
      if (cfg_.burn_degrade) apply_degrade_rung(shard_burn_.fast_burn());
    } else if (edge < 0) {
      ++slo_alerts_cleared_;
      record(runtime::TraceEventType::kSloAlertClear, -1,
             shard_burn_.fast_burn());
    }
  }

  // 6. Periodic re-admission scan over the windowed mean busy, normalized
  // to base frame periods so wheel growth does not skew the band.
  if (cfg_.slo_ms > 0.0 && cfg_.readmit_interval > 0) {
    window_busy_ms_ += plan.shared_busy_ms *
                       static_cast<double>(wheel_hz_) /
                       static_cast<double>(base_fps_);
    if (++window_ticks_ >= cfg_.readmit_interval) readmit_scan();
  }

  ++ticks_;
}

ShardRollup Shard::snapshot_into(FleetSnapshot& snap) const {
  snap.admitted += admitted_;
  snap.rejected += rejected_;
  snap.evicted += evicted_;
  snap.readmitted += readmitted_;
  snap.redegraded += redegraded_;
  snap.batch_splits += batch_splits_;
  snap.shared_batches += shared_batches_;
  snap.isolated_batches += isolated_batches_;
  snap.shared_busy_ms += shared_busy_ms_;
  snap.isolated_busy_ms += isolated_busy_ms_;
  snap.total_queue_ms += total_queue_ms_;
  snap.mean_queue_depth += queue_depth_.mean();
  snap.slo_alerts_raised += slo_alerts_raised_;
  snap.slo_alerts_cleared += slo_alerts_cleared_;

  ShardRollup rollup;
  rollup.index = index_;
  rollup.sessions = live_sessions_;
  rollup.shared_busy_ms = shared_busy_ms_;
  rollup.placed_demand_ms = placed_demand_ms_;
  // Tick period in ms at the CURRENT wheel rate, anchored to the configured
  // base period so wheel_hz == base_fps reproduces frame_period_ms exactly.
  const double tick_period_ms =
      cfg_.frame_period_ms * static_cast<double>(base_fps_) /
      static_cast<double>(std::max(1, wheel_hz_));
  rollup.mean_occupancy =
      tick_period_ms > 0.0 ? tick_busy_ms_.mean() / tick_period_ms : 0.0;
  rollup.alerting = shard_burn_.alerting();
  rollup.slo_alerts = shard_slo_alerts_;

  for (const auto& s : sessions_) {
    SessionSnapshot ss;
    ss.handle = s->handle;
    ss.shard = index_;
    ss.name = s->spec.name;
    ss.state = s->state;
    ss.weight = s->spec.weight;
    ss.fps = s->fps;
    ss.stride = s->stride;
    ss.tight_masks = s->spec.pipeline.tight_masks;
    ss.frames = s->frames;
    ss.deferred_ticks = s->deferred_ticks;
    ss.slo_violations = s->slo_violations;
    ss.slo_ms = s->spec.slo_ms >= 0.0 ? s->spec.slo_ms : cfg_.slo_ms;
    if (s->latency_ms.count()) {
      ss.p50_ms = s->latency_ms.percentile(50.0);
      ss.p95_ms = s->latency_ms.percentile(95.0);
      ss.p99_ms = s->latency_ms.percentile(99.0);
      ss.mean_ms = s->latency_ms.mean();
      ss.mean_isolated_ms = s->isolated_ms.mean();
      ss.mean_queue_ms = s->queue_ms.mean();
    }
    ss.busy_sum_ms = s->busy_sum_ms;
    ss.slo_alerts = s->slo_alerts;
    ss.alerting = s->burn.alerting();
    ss.fast_burn = s->burn.fast_burn();
    ss.slow_burn = s->burn.slow_burn();
    if (ss.alerting && s->state != SessionState::kEvicted)
      ++snap.alerting_sessions;
    if (s->pipeline || s->final_result.frames.size() ||
        s->state == SessionState::kEvicted) {
      const runtime::PipelineResult result =
          s->pipeline ? s->pipeline->result() : s->final_result;
      ss.object_recall = result.object_recall;
      ss.retries = result.total_retries();
      ss.dropped_msgs = result.total_dropped_msgs();
    }
    snap.total_retries += ss.retries;
    snap.total_dropped_msgs += ss.dropped_msgs;
    rollup.frames += ss.frames;
    snap.sessions.push_back(std::move(ss));
  }
  return rollup;
}

namespace {

/// Exact busy of `count` tasks greedily packed into maximally-filled
/// batches on `dev` (the arbiter's fill discipline): full batches at the
/// limit plus one remainder batch, each priced by the fill model, plus one
/// dispatch overhead per batch.
double greedy_busy_ms(const gpu::DeviceProfile& dev, geom::SizeClassId sc,
                      int count, double overhead_ms, long* batches) {
  const int limit = std::max(1, dev.batch_limit(sc));
  const int full = count / limit;
  const int rest = count % limit;
  const long n = full + (rest > 0 ? 1 : 0);
  *batches += n;
  double busy = static_cast<double>(full) * dev.actual_batch_latency_ms(sc, limit);
  if (rest > 0) busy += dev.actual_batch_latency_ms(sc, rest);
  return busy + static_cast<double>(n) * overhead_ms;
}

}  // namespace

CrossMergeStats cross_shard_merge(const std::vector<const TickPlan*>& plans,
                                  double dispatch_overhead_ms,
                                  std::vector<std::size_t>& cursors) {
  // Every plan lists its cells sorted by (device class name, size class),
  // one cell per key (GpuArbiter::plan_tick_into), so a k-way merge over
  // per-shard cursors visits each key once, in ascending key order, and
  // sees its counts in shard order — no per-tick map or count lists.
  // Profiles sharing a name are identical (same factory), so the first
  // cell's profile prices the whole key.
  const auto before = [](const MergeCell& a, const MergeCell& b) {
    const int c = a.device->name().compare(b.device->name());
    return c < 0 || (c == 0 && a.size_class < b.size_class);
  };
  const auto head = [&](std::size_t k) -> const MergeCell* {
    const std::vector<MergeCell>& cells = plans[k]->cells;
    return cursors[k] < cells.size() ? &cells[cursors[k]] : nullptr;
  };
  cursors.assign(plans.size(), 0);
  CrossMergeStats stats;
  for (;;) {
    const MergeCell* key = nullptr;
    for (std::size_t k = 0; k < plans.size(); ++k) {
      const MergeCell* cell = head(k);
      if (cell && (!key || before(*cell, *key))) key = cell;
    }
    if (!key) break;
    const MergeCell min = *key;
    const gpu::DeviceProfile& dev = *min.device;
    long local_batches = 0, merged_batches = 0;
    double local_busy = 0.0;
    int total = 0;
    for (std::size_t k = 0; k < plans.size(); ++k) {
      const MergeCell* cell = head(k);
      if (!cell || before(min, *cell)) continue;
      local_busy += greedy_busy_ms(dev, min.size_class, cell->count,
                                   dispatch_overhead_ms, &local_batches);
      total += cell->count;
      ++cursors[k];
    }
    const double merged_busy = greedy_busy_ms(
        dev, min.size_class, total, dispatch_overhead_ms, &merged_batches);
    stats.batches_saved += local_batches - merged_batches;
    stats.busy_saved_ms += local_busy - merged_busy;
  }
  return stats;
}

}  // namespace mvs::fleet
