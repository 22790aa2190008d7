// Fleet throughput-scaling benchmark: host 1..N identical sessions on one
// mvs::fleet serving plane and measure wall-clock serving throughput plus the
// cross-session batching advantage over N isolated deployments (the paper's
// single-deployment setting, reported by the arbiter as the isolated
// counterfactual of the SAME work).
//
// Usage:
//   bench_fleet [--scenario S2] [--sessions 4] [--ticks 40] [--slo-ms 0]
//               [--dispatch rr|weighted] [--threads 0] [--seed 42]
//               [--dispatch-overhead-ms 0] [--overhead-sweep-ms 2]
//               [--json out.json]
//   bench_fleet --scale [--scale-sessions 1000,4000,10000]
//               [--scale-shards 1,2,4,8] [--ticks 20] [--json out.json]
//
// Sweeps session counts 1..--sessions. Session construction (association
// training) happens outside the timed region; run(ticks) is timed. Batch and
// busy-time counters are deterministic for a given (scenario, seed, ticks);
// only the wall-clock columns vary run to run.
//
// --scale switches to the sharded-plane scaling sweep: synthetic-load
// sessions (fleet::SyntheticSource-backed, no vision stack, so 10k sessions
// admit in milliseconds) hosted on serving planes of each listed shard
// count, reporting admission time, ticks/sec, the second merge level's
// cross-shard batch savings, and device-pool queue drain. Everything but the
// wall-clock columns is deterministic for a given (sessions, shards, ticks,
// seed).

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "fleet/fleet_api.hpp"
#include "util/args.hpp"
#include "util/bench_info.hpp"
#include "util/json.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"

namespace {

using namespace mvs;

struct ScalePoint {
  int sessions = 0;
  int shards = 0;
  int ticks = 0;
  double admit_ms = 0.0;        ///< wall clock to admit the whole roster
  double run_ms = 0.0;          ///< wall clock for run(ticks)
  double ticks_per_sec = 0.0;   ///< serving throughput
  long frames = 0;              ///< session-frames served
  long shared_batches = 0;      ///< Σ shard-local merged batches
  long cross_batches_saved = 0; ///< second merge level's additional saving
  double cross_busy_saved_ms = 0.0;
  double total_queue_ms = 0.0;  ///< device-pool queueing (drains with shards)
  double mean_occupancy = 0.0;
  long migrations = 0;
};

/// Run one (sessions, shards) scale point. Sessions are synthetic copies of
/// `scenario` with consecutive seeds; rebalancing scans every 20 ticks.
ScalePoint run_scale_point(const std::string& scenario, int sessions,
                           int shards, int ticks, std::uint64_t seed,
                           int threads) {
  fleet::FleetConfig cfg;
  cfg.shards = shards;
  cfg.threads = threads;
  cfg.rebalance_interval = 20;
  const std::unique_ptr<fleet::FleetApi> fleet = fleet::make_fleet(cfg);

  ScalePoint point;
  point.sessions = sessions;
  point.shards = shards;
  point.ticks = ticks;

  util::Stopwatch admit_watch;
  for (int s = 0; s < sessions; ++s) {
    fleet::SessionSpec spec;
    spec.name = scenario + "#" + std::to_string(s);
    spec.scenario = scenario;
    spec.synthetic = true;
    spec.pipeline.seed = seed + static_cast<std::uint64_t>(s);
    fleet->admit(spec);
  }
  point.admit_ms = admit_watch.elapsed_ms();

  util::Stopwatch run_watch;
  fleet->run(ticks);
  point.run_ms = run_watch.elapsed_ms();
  point.ticks_per_sec = point.run_ms > 0.0
                            ? 1000.0 * static_cast<double>(ticks) / point.run_ms
                            : 0.0;

  const fleet::FleetSnapshot snap = fleet->snapshot();
  for (const fleet::SessionSnapshot& s : snap.sessions)
    point.frames += s.frames;
  point.shared_batches = snap.shared_batches;
  point.cross_batches_saved = snap.cross_batches_saved;
  point.cross_busy_saved_ms = snap.cross_busy_saved_ms;
  point.total_queue_ms = snap.total_queue_ms;
  point.mean_occupancy = snap.mean_occupancy;
  point.migrations = snap.migrations;
  return point;
}

util::Json scale_point_json(const ScalePoint& p) {
  util::Json::Object o;
  o["sessions"] = util::Json(p.sessions);
  o["shards"] = util::Json(p.shards);
  o["ticks"] = util::Json(p.ticks);
  o["admit_ms"] = util::Json(p.admit_ms);
  o["run_ms"] = util::Json(p.run_ms);
  o["ticks_per_sec"] = util::Json(p.ticks_per_sec);
  o["frames"] = util::Json(static_cast<double>(p.frames));
  o["shared_batches"] = util::Json(static_cast<double>(p.shared_batches));
  o["cross_batches_saved"] =
      util::Json(static_cast<double>(p.cross_batches_saved));
  o["cross_busy_saved_ms"] = util::Json(p.cross_busy_saved_ms);
  o["total_queue_ms"] = util::Json(p.total_queue_ms);
  o["mean_occupancy"] = util::Json(p.mean_occupancy);
  o["migrations"] = util::Json(static_cast<double>(p.migrations));
  return util::Json(std::move(o));
}

}  // namespace

int main(int argc, char** argv) {
  const util::Args args = util::Args::parse(argc, argv, {"scale"});
  const std::string scenario = args.get_or("scenario", "S2");
  const int max_sessions = args.int_or("sessions", 4);
  const int ticks = args.int_or("ticks", 40);
  const auto seed = static_cast<std::uint64_t>(args.int_or("seed", 42));

  fleet::FleetConfig cfg;
  cfg.slo_ms = args.number_or("slo-ms", 0.0);
  cfg.threads = args.int_or("threads", 0);
  const auto dispatch = fleet::parse_dispatch(args.get_or("dispatch", "rr"));
  if (!dispatch) {
    std::fprintf(stderr, "unknown dispatch policy '%s'\n",
                 args.get_or("dispatch", "rr").c_str());
    return 1;
  }
  cfg.dispatch = *dispatch;
  cfg.dispatch_overhead_ms = args.number_or("dispatch-overhead-ms", 0.0);
  const double sweep_overhead_ms = args.number_or("overhead-sweep-ms", 2.0);
  if (max_sessions < 1 || ticks < 1) {
    std::fprintf(stderr, "--sessions and --ticks must be >= 1\n");
    return 1;
  }

  // Sharded-plane scaling sweep (synthetic sessions; see run_scale_point).
  if (args.has("scale")) {
    const auto parse_int_list = [](const std::string& spec,
                                   std::vector<int>* out) {
      std::size_t at = 0;
      while (at < spec.size()) {
        std::size_t comma = spec.find(',', at);
        if (comma == std::string::npos) comma = spec.size();
        try {
          out->push_back(std::stoi(spec.substr(at, comma - at)));
        } catch (...) {
          return false;
        }
        at = comma + 1;
      }
      return !out->empty();
    };
    std::vector<int> session_counts, shard_counts;
    if (!parse_int_list(args.get_or("scale-sessions", "1000"),
                        &session_counts) ||
        !parse_int_list(args.get_or("scale-shards", "1,2,4,8"),
                        &shard_counts)) {
      std::fprintf(stderr, "bad --scale-sessions / --scale-shards list\n");
      return 1;
    }
    const int scale_ticks = args.int_or("ticks", 20);

    util::Table scale_table({"sessions", "shards", "admit_ms", "run_ms",
                             "ticks/s", "frames", "batches", "x-saved",
                             "x-saved_ms", "queue_ms", "migrations"});
    util::Json::Array scale_json;
    for (const int n : session_counts) {
      for (const int k : shard_counts) {
        const ScalePoint p = run_scale_point(
            scenario, n, k, scale_ticks, seed, cfg.threads);
        scale_table.add_row(
            {std::to_string(p.sessions), std::to_string(p.shards),
             util::Table::fmt(p.admit_ms, 1), util::Table::fmt(p.run_ms, 1),
             util::Table::fmt(p.ticks_per_sec, 1), std::to_string(p.frames),
             std::to_string(p.shared_batches),
             std::to_string(p.cross_batches_saved),
             util::Table::fmt(p.cross_busy_saved_ms, 1),
             util::Table::fmt(p.total_queue_ms, 1),
             std::to_string(p.migrations)});
        scale_json.push_back(scale_point_json(p));
      }
    }
    std::printf("scenario=%s ticks=%d synthetic scale sweep\n",
                scenario.c_str(), scale_ticks);
    std::printf("%s", scale_table.to_string().c_str());

    const std::string json_path = args.get_or("json", "");
    if (!json_path.empty()) {
      util::Json::Object body;
      body["scenario"] = util::Json(scenario);
      body["ticks"] = util::Json(scale_ticks);
      body["scale"] = util::Json(std::move(scale_json));
      util::Json::Object doc;
      doc["env"] = util::bench_env_json();
      doc["fleet"] = util::Json(std::move(body));
      std::ofstream out(json_path);
      out << util::Json(std::move(doc)).dump() << '\n';
      std::printf("wrote %s\n", json_path.c_str());
    }
    return 0;
  }

  util::Table table({"sessions", "cameras", "frames", "run_ms", "frames/s",
                     "batches", "batches_iso", "saved%", "busy_ms", "busy_iso",
                     "occupancy", "p95_ms"});
  util::Json::Array sweep;

  for (int n = 1; n <= max_sessions; ++n) {
    const std::unique_ptr<fleet::FleetApi> fleet = fleet::make_fleet(cfg);
    std::vector<fleet::SessionHandle> handles;
    for (int s = 0; s < n; ++s) {
      fleet::SessionSpec spec;
      spec.name = scenario + "#" + std::to_string(s);
      spec.scenario = scenario;
      spec.pipeline.seed = seed + static_cast<std::uint64_t>(s);
      const fleet::AdmitResult admit = fleet->admit(spec);
      if (!admit.admitted) {
        std::fprintf(stderr, "session %d rejected at slo=%.1f ms\n", s,
                     cfg.slo_ms);
        return 1;
      }
      handles.push_back(admit.handle);
    }

    util::Stopwatch watch;
    fleet->run(ticks);
    const double run_ms = watch.elapsed_ms();

    const fleet::FleetSnapshot snap = fleet->snapshot();
    long frames = 0;
    int cameras = 0;
    double p95 = 0.0;
    for (const fleet::SessionSnapshot& s : snap.sessions) {
      frames += s.frames;
      p95 = std::max(p95, s.p95_ms);
    }
    for (const fleet::SessionHandle h : handles) {
      const runtime::PipelineResult r = fleet->result(h);
      cameras += static_cast<int>(
          r.frames.empty() ? 0 : r.frames.front().camera_infer_ms.size());
    }
    const double fps =
        run_ms > 0.0 ? 1000.0 * static_cast<double>(frames) / run_ms : 0.0;
    const double saved =
        snap.isolated_batches > 0
            ? 100.0 *
                  static_cast<double>(snap.isolated_batches -
                                      snap.shared_batches) /
                  static_cast<double>(snap.isolated_batches)
            : 0.0;

    table.add_row({std::to_string(n), std::to_string(cameras),
                   std::to_string(frames), util::Table::fmt(run_ms, 1),
                   util::Table::fmt(fps, 1),
                   std::to_string(snap.shared_batches),
                   std::to_string(snap.isolated_batches),
                   util::Table::fmt(saved, 1),
                   util::Table::fmt(snap.shared_busy_ms, 1),
                   util::Table::fmt(snap.isolated_busy_ms, 1),
                   util::Table::fmt(snap.mean_occupancy, 2),
                   util::Table::fmt(p95, 1)});

    util::Json::Object point;
    point["sessions"] = util::Json(n);
    point["cameras"] = util::Json(cameras);
    point["frames"] = util::Json(static_cast<double>(frames));
    point["run_ms"] = util::Json(run_ms);
    point["frames_per_sec"] = util::Json(fps);
    point["shared_batches"] = util::Json(static_cast<double>(snap.shared_batches));
    point["isolated_batches"] =
        util::Json(static_cast<double>(snap.isolated_batches));
    point["batch_savings_pct"] = util::Json(saved);
    point["shared_busy_ms"] = util::Json(snap.shared_busy_ms);
    point["isolated_busy_ms"] = util::Json(snap.isolated_busy_ms);
    point["mean_occupancy"] = util::Json(snap.mean_occupancy);
    point["p95_ms"] = util::Json(p95);
    sweep.push_back(util::Json(std::move(point)));
  }

  // Elastic device-pool sweep: at the largest session count, grow every
  // accelerator class pool 1..3 devices and watch the queueing delay drain
  // (Fleet::scale_devices; the arbiter list-schedules merged batches over
  // each pool). Each width runs twice: with the ideal overhead-free
  // dispatcher and with a fixed per-batch dispatch cost
  // (--overhead-sweep-ms) serialized through one dispatcher per class —
  // the overheaded rows stop scaling linearly with pool width, which is
  // what real accelerator pools do.
  util::Table elastic_table({"devices/class", "overhead_ms", "p95_ms",
                             "queue_ms", "busy_ms", "occupancy"});
  util::Json::Array elastic;
  for (int multiplier = 1; multiplier <= 3; ++multiplier) {
    for (const double overhead : {0.0, sweep_overhead_ms}) {
      fleet::FleetConfig run_cfg = cfg;
      run_cfg.dispatch_overhead_ms = overhead;
      const std::unique_ptr<fleet::FleetApi> fleet = fleet::make_fleet(run_cfg);
      for (int s = 0; s < max_sessions; ++s) {
        fleet::SessionSpec spec;
        spec.name = scenario + "#" + std::to_string(s);
        spec.scenario = scenario;
        spec.pipeline.seed = seed + static_cast<std::uint64_t>(s);
        if (!fleet->admit(spec).admitted) {
          std::fprintf(stderr, "session %d rejected at slo=%.1f ms\n", s,
                       cfg.slo_ms);
          return 1;
        }
      }
      for (const auto& [name, count] : fleet->snapshot().device_pools)
        fleet->scale_devices(name, multiplier - count);
      fleet->run(ticks);

      const fleet::FleetSnapshot snap = fleet->snapshot();
      double p95 = 0.0;
      for (const fleet::SessionSnapshot& s : snap.sessions)
        p95 = std::max(p95, s.p95_ms);
      elastic_table.add_row({std::to_string(multiplier),
                             util::Table::fmt(overhead, 1),
                             util::Table::fmt(p95, 1),
                             util::Table::fmt(snap.total_queue_ms, 1),
                             util::Table::fmt(snap.shared_busy_ms, 1),
                             util::Table::fmt(snap.mean_occupancy, 2)});
      util::Json::Object point;
      point["devices_per_class"] = util::Json(multiplier);
      point["dispatch_overhead_ms"] = util::Json(overhead);
      point["sessions"] = util::Json(max_sessions);
      point["p95_ms"] = util::Json(p95);
      point["total_queue_ms"] = util::Json(snap.total_queue_ms);
      point["shared_busy_ms"] = util::Json(snap.shared_busy_ms);
      point["mean_occupancy"] = util::Json(snap.mean_occupancy);
      elastic.push_back(util::Json(std::move(point)));
    }
  }

  std::printf("scenario=%s ticks=%d dispatch=%s slo_ms=%.1f\n",
              scenario.c_str(), ticks, fleet::to_string(cfg.dispatch),
              cfg.slo_ms);
  std::printf("%s", table.to_string().c_str());
  std::printf("elastic pools at %d sessions:\n%s", max_sessions,
              elastic_table.to_string().c_str());

  const std::string json_path = args.get_or("json", "");
  if (!json_path.empty()) {
    util::Json::Object body;
    body["scenario"] = util::Json(scenario);
    body["ticks"] = util::Json(ticks);
    body["dispatch"] = util::Json(fleet::to_string(cfg.dispatch));
    body["slo_ms"] = util::Json(cfg.slo_ms);
    body["sweep"] = util::Json(std::move(sweep));
    body["elastic"] = util::Json(std::move(elastic));

    util::Json::Object doc;
    doc["env"] = util::bench_env_json();
    doc["fleet"] = util::Json(std::move(body));
    std::ofstream out(json_path);
    out << util::Json(std::move(doc)).dump() << '\n';
    std::printf("wrote %s\n", json_path.c_str());
  }
  return 0;
}
