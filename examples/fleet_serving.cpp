// Fleet serving walkthrough: elastic capacity and adaptive QoS on a mixed
// fleet (mvs::fleet).
//
// Hosts three heterogeneous deployments — an intersection hub (S2), a busy
// fork-road camera pair (S1) running at 15 fps, and a far-edge roadside
// (S3) with a lossy uplink — under one GPU complex and a shared latency
// SLO, then walks the full elasticity loop:
//
//   1. admit        — the controller degrades the late arrival to fit
//   2. degrade      — the degraded session serves at reduced rate/masks
//   3. re-admit     — evicting a tenant frees capacity; the periodic scan
//                     reverses the degrade ladder (session_readmit events)
//   4. scale up     — growing a device pool drains queueing delay
//                     (device_scale events)
//
// The whole run is observed through mvs::obs: pass output paths to export a
// Chrome trace (chrome://tracing / Perfetto) and a metrics snapshot:
//
//   ./examples/fleet_serving [chrome_trace.json] [metrics.json]

#include <cstdio>
#include <fstream>
#include <memory>

#include "fleet/fleet_api.hpp"
#include "obs/obs.hpp"
#include "runtime/trace.hpp"

namespace {

void print_sessions(const mvs::fleet::FleetSnapshot& snap) {
  for (const mvs::fleet::SessionSnapshot& s : snap.sessions)
    std::printf("  [%llu.%u] %-10s %-7s fps=%-2d stride=%d tight=%d "
                "frames=%-3ld mean=%.1f ms queue=%.2f ms\n",
                static_cast<unsigned long long>(s.handle.id), s.handle.gen,
                s.name.c_str(), mvs::fleet::to_string(s.state), s.fps,
                s.stride, s.tight_masks ? 1 : 0, s.frames, s.mean_ms,
                s.mean_queue_ms);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mvs;

  // Observability on for the whole walkthrough: every fleet tick, session
  // step, pipeline stage and GPU batch below lands in the span trace and
  // the metrics registry.
  obs::reset();
  obs::set_enabled(true);

  // Admission is split-aware: with allow_split on, the ceiling relaxes to
  // 1.2x the SLO (an over-full tick can shed half a batch to the next
  // slot), so the SLO here is set to push 'edge' onto the degrade ladder
  // even through that headroom.
  fleet::FleetConfig cfg;
  cfg.slo_ms = 520.0;             // shared per-tick GPU deadline
  cfg.dispatch = fleet::DispatchPolicy::kWeightedPriority;
  cfg.readmit_interval = 10;      // reverse-ladder scan every 10 ticks
  cfg.allow_split = true;         // SLO-protective batch splitting
  // The walkthrough drives the serving plane through fleet_api.hpp only —
  // the same code serves several shards by setting cfg.shards > 1.
  const std::unique_ptr<fleet::Fleet> fleet = fleet::make_fleet(cfg);

  runtime::TraceRecorder trace;
  fleet->attach_trace(&trace);

  // Session specs are self-contained (runtime::FleetSessionSpec): scenario,
  // pipeline, weight, native fps, SLO override, and a private fault profile
  // — no reaching into pipeline.faults.
  fleet::SessionSpec hub;
  hub.name = "hub";
  hub.scenario = "S2";
  hub.weight = 2.0;  // protected tenant: deferred last, split-shed last
  hub.pipeline.training_frames = 120;

  fleet::SessionSpec fork;
  fork.name = "fork";
  fork.scenario = "S1";
  fork.fps = 15;  // grows the 10 Hz tick wheel to 30 Hz
  fork.pipeline.training_frames = 120;

  fleet::SessionSpec edge;
  edge.name = "edge";
  edge.scenario = "S3";
  edge.slo_ms = 60.0;  // per-session violation accounting override
  edge.pipeline.training_frames = 120;
  netsim::FaultConfig uplink;
  uplink.loss_rate = 0.05;  // implies the lossy transport for this session
  edge.faults = uplink;

  std::printf("== 1. admission (SLO %.0f ms) ==\n", cfg.slo_ms);
  fleet::SessionHandle fork_handle;
  for (fleet::SessionSpec* spec : {&hub, &fork, &edge}) {
    const fleet::AdmitResult r = fleet->admit(*spec);
    if (!r.admitted) {
      std::printf("  %-5s REJECTED: %s\n", spec->name.c_str(),
                  r.reason.c_str());
      continue;
    }
    if (spec == &fork) fork_handle = r.handle;
    std::printf("  %-5s admitted: projected %.1f ms%s%s\n",
                spec->name.c_str(), r.projected_ms,
                r.masks_tightened ? " [masks tightened]" : "",
                r.rate_halved ? " [rate halved]" : "");
  }
  std::printf("  tick wheel now %d Hz\n", fleet->wheel_hz());

  // One wall-clock second = wheel_hz ticks.
  const int second = fleet->wheel_hz();

  std::printf("\n== 2. degraded serving (4 s) ==\n");
  fleet->run(4 * second);
  print_sessions(fleet->snapshot());

  std::printf("\n== 3. evict 'fork' -> re-admission scan restores 'edge' "
              "==\n");
  fleet->evict(fork_handle);
  fleet->run(4 * second);
  print_sessions(fleet->snapshot());
  std::printf("  session_readmit events: %ld\n",
              static_cast<long>(trace.count(runtime::TraceEventType::kSessionReadmit)));

  std::printf("\n== 4. scale up the busiest device pool ==\n");
  const fleet::FleetSnapshot before = fleet->snapshot();
  if (!before.device_pools.empty()) {
    const std::string& device_class = before.device_pools.front().first;
    const int count = fleet->scale_devices(device_class, +1);
    std::printf("  %s pool -> %d devices\n", device_class.c_str(), count);
  }
  fleet->run(2 * second);

  std::printf("\n== 5. handle hygiene: results outlive eviction, not "
              "release ==\n");
  const runtime::PipelineResult kept = fleet->result(fork_handle);
  std::printf("  evicted 'fork' still serves its result: %zu frames\n",
              kept.frames.size());
  fleet->release(fork_handle);
  fleet::FleetStatus stale = fleet::FleetStatus::kOk;
  fleet->result(fork_handle, &stale);
  std::printf("  after release() the old handle is typed-%s\n",
              fleet::to_string(stale));

  const fleet::FleetSnapshot snap = fleet->snapshot();
  print_sessions(snap);
  std::printf("\nfleet: ticks=%ld wheel=%d Hz admitted=%d evicted=%d "
              "readmitted=%d splits=%ld\n",
              snap.ticks, snap.wheel_hz, snap.admitted, snap.evicted,
              snap.readmitted, snap.batch_splits);
  std::printf("gpu: busy %.1f ms (isolated %.1f ms) | pool queueing %.1f ms "
              "| occupancy %.2f\n",
              snap.shared_busy_ms, snap.isolated_busy_ms, snap.total_queue_ms,
              snap.mean_occupancy);
  std::printf("transport: retries %ld | dropped msgs %ld\n",
              snap.total_retries, snap.total_dropped_msgs);
  std::printf("trace: device_scale=%ld batch_split=%ld\n",
              static_cast<long>(trace.count(runtime::TraceEventType::kDeviceScale)),
              static_cast<long>(trace.count(runtime::TraceEventType::kBatchSplit)));

  // The registry holds fleet metrics per shard ("fleet.shard.0.*" for this
  // one-shard plane); the flat "fleet.*" rollups exist only in to_json().
  // Looking a flat name up here would register an empty histogram that
  // shadows the merged one in the export below.
  const auto p99 = [](const char* name) {
    return obs::metrics().histogram(name).percentile(99.0);
  };
  std::printf("obs: %zu spans | fleet.tick_busy_ms p99 %.1f | "
              "gpu.merged_busy_ms p99 %.1f\n",
              obs::tracer().total_events(),
              p99("fleet.shard.0.tick_busy_ms"), p99("gpu.merged_busy_ms"));
  if (argc > 1) {
    std::ofstream out(argv[1]);
    out << obs::tracer().chrome_trace_json() << '\n';
    std::printf("wrote Chrome trace to %s (open in chrome://tracing)\n",
                argv[1]);
  }
  if (argc > 2) {
    std::ofstream out(argv[2]);
    out << obs::metrics().to_json() << '\n';
    std::printf("wrote metrics snapshot to %s\n", argv[2]);
  }
  return 0;
}
