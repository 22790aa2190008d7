// mvsched command-line runner: execute any scenario/policy combination from
// flags or a JSON config file and print per-run metrics (optionally a
// per-frame CSV for plotting).
//
// Usage:
//   mvsched_cli --scenario S1 --policy balb --frames 200 [--horizon 10]
//               [--seed 42] [--transport lossy] [--loss-rate 0.1] [--csv]
//   mvsched_cli --fleet --sessions 3 --slo-ms 120 --dispatch weighted
//               [--frames 100] [--fleet-json rollup.json]
//   mvsched_cli --config run.json [flags that override it]
//   mvsched_cli [flags] --dump-config  # print the effective config document
//   mvsched_cli --help
//
// Flags that set one config field come from the runtime config schema
// (runtime::apply_flags); this file implements only the options that are
// not one field (kCliOptions): list specs, dual-target flags, implications
// between blocks, the fleet roster and the outputs.

#include <algorithm>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "fleet/fleet_api.hpp"
#include "obs/obs.hpp"
#include "rt/runner.hpp"
#include "runtime/config.hpp"
#include "runtime/pipeline.hpp"
#include "sim/scenario.hpp"
#include "util/args.hpp"
#include "util/log.hpp"
#include "util/table.hpp"

namespace {

/// An option that is not one config field, filed under a schema block for
/// --help. No metavar makes it a switch.
constexpr mvs::runtime::FieldInfo cli_option(const char* block,
                                             const char* flag,
                                             const char* metavar,
                                             const char* help) {
  using mvs::runtime::FieldKind;
  return {block, nullptr, metavar ? FieldKind::kString : FieldKind::kBool,
          {},    nullptr, flag, help, metavar};
}

const mvs::runtime::FieldInfo kCliOptions[] = {
    cli_option("config", "config", "FILE",
               "read a JSON run config; flags override it"),
    cli_option("config", "dump-config", nullptr,
               "print the effective config (after --config and every flag) "
               "and exit"),
    cli_option("config", "help", nullptr, "print this help and exit"),
    cli_option("config", "csv", nullptr,
               "per-frame CSV on stdout instead of the summary"),
    cli_option("config", "threads", "N",
               "worker threads (0 = one per usable CPU; results identical "
               "for any count); with --fleet also the shared pool width"),
    cli_option("faults", "drop-camera", "CAM:FROM[:TO][,...]",
               "camera dropout windows, evaluation-frame indexed, TO "
               "exclusive (omitted = never rejoins)"),
    cli_option("city", "flash-crowd", "AT:DUR[:MULT]",
               "arrival-rate burst: MULT x (default 4) for DUR seconds "
               "starting AT seconds into the evaluation"),
    cli_option("fleet", "fleet", nullptr,
               "host --sessions copies of the scenario in one multi-session "
               "fleet; --frames counts base frame periods (a config \"fleet\" "
               "block implies fleet mode)"),
    cli_option("fleet", "sessions", "N",
               "sessions to admit (default 2); session k uses seed + k; "
               "ignored when the config lists sessions"),
    cli_option("fleet", "synthetic", nullptr,
               "admit synthetic-load sessions (seeded task generators, no "
               "vision stack) to host thousands of sessions"),
    cli_option("fleet", "session-fps", "LIST",
               "per-session native fps, comma-separated in session order (0 "
               "= fleet base rate); rates that do not divide grow the wheel"),
    cli_option("fleet", "session-loss-rate", "LIST",
               "per-session transport loss probabilities, comma-separated "
               "(> 0 implies the lossy transport for that session only)"),
    cli_option("fleet", "scale-devices", "CLASS:DELTA[,...]",
               "grow/shrink accelerator pools after admission"),
    cli_option("fleet", "fleet-json", "FILE",
               "write the fleet/session rollup JSON"),
    cli_option("obs", "burn-budget", "X",
               "SLO error budget in [0, 1] for the multi-window burn-rate "
               "monitor (fleet: per session and shard; paced runs: the "
               "deadline-miss budget); 0 = off"),
};

int usage(const char* prog, int exit_code) {
  std::fprintf(exit_code == 0 ? stdout : stderr,
               "usage: %s [SCENARIO] [options] | --config file.json | "
               "--dump-config | --help\n\n%s",
               prog, mvs::runtime::flag_help(kCliOptions).c_str());
  return exit_code;
}

bool fail(std::string* error, std::string message) {
  *error = std::move(message);
  return false;
}

/// A whole number in the int range, strictly parsed.
bool parse_int(const std::string& text, int* out) {
  const auto v = mvs::util::parse_number(text);
  if (!v || *v != std::floor(*v) || *v < INT_MIN || *v > INT_MAX) return false;
  *out = static_cast<int>(*v);
  return true;
}

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> parts(1);
  for (char c : s) {
    if (c == sep)
      parts.emplace_back();
    else
      parts.back().push_back(c);
  }
  return parts;
}

// The list specs below check syntax only; runtime::validate then checks
// every value against its field's range.

/// Parse "CAM:FROM[:TO]" dropout windows, comma-separated.
bool parse_dropouts(const std::string& spec,
                    std::vector<mvs::netsim::DropoutWindow>* out) {
  for (const std::string& item : split(spec, ',')) {
    const auto part = split(item, ':');
    int v[3] = {0, 0, -1};
    if (part.size() < 2 || part.size() > 3) return false;
    for (std::size_t i = 0; i < part.size(); ++i)
      if (!parse_int(part[i], &v[i])) return false;
    out->push_back({v[0], v[1], v[2]});
  }
  return true;
}

/// Parse "CLASS:DELTA" device-pool adjustments, comma-separated.
bool parse_device_scale(const std::string& spec,
                        std::vector<mvs::runtime::FleetDeviceScale>* out) {
  for (const std::string& item : split(spec, ',')) {
    const auto part = split(item, ':');
    int delta = 0;
    if (part.size() != 2 || !parse_int(part[1], &delta)) return false;
    out->push_back({part[0], delta});
  }
  return true;
}

/// Parse "AT:DUR[:MULT]" flash-crowd bursts (seconds, seconds, rate
/// multiplier) into the city config.
bool parse_flash_crowd(const std::string& spec, mvs::sim::CityConfig* city) {
  const auto part = split(spec, ':');
  double* fields[] = {&city->flash_at_s, &city->flash_duration_s,
                      &city->flash_multiplier};
  if (part.size() < 2 || part.size() > 3) return false;
  for (std::size_t i = 0; i < part.size(); ++i) {
    const auto v = mvs::util::parse_number(part[i]);
    if (!v) return false;
    *fields[i] = *v;
  }
  return city->flash_at_s >= 0.0;  // the config's -1 "off" is no burst
}

/// Is any flag of schema block `block` on the command line?
bool any_flag(const mvs::util::Args& args, const std::string& block) {
  const auto given = [&](const mvs::runtime::FieldInfo& f) {
    return f.flag && block == f.block && args.has(f.flag);
  };
  const auto& schema = mvs::runtime::config_schema();
  return std::any_of(schema.begin(), schema.end(), given) ||
         std::any_of(std::begin(kCliOptions), std::end(kCliOptions), given);
}

/// The fleet roster: the config file's session list wins; otherwise
/// --sessions copies of the flag-selected scenario and pipeline. Then the
/// per-session lists and the device-pool adjustments.
bool build_roster(const mvs::util::Args& args, mvs::runtime::RunConfig& run,
                  std::string* error) {
  using namespace mvs;
  runtime::FleetRunConfig& frc = *run.fleet;
  int sessions = 2;
  if (const auto n = args.get("sessions");
      n && (!parse_int(*n, &sessions) || sessions < 1))
    return fail(error, "--sessions must be an integer >= 1");
  if (frc.sessions.empty()) {
    for (int s = 0; s < sessions; ++s) {
      runtime::FleetSessionSpec spec;
      spec.name = run.scenario + "#" + std::to_string(s);
      spec.scenario = run.scenario;
      spec.synthetic = args.has("synthetic");
      spec.pipeline = run.pipeline;
      spec.pipeline.seed = run.pipeline.seed + static_cast<std::uint64_t>(s);
      frc.sessions.push_back(std::move(spec));
    }
  }
  // Per-session lists, in session order; entries past the roster are
  // checked but unused.
  if (const auto spec = args.get("session-fps")) {
    const auto items = split(*spec, ',');
    for (std::size_t s = 0; s < items.size(); ++s) {
      int fps = 0;
      if (!parse_int(items[s], &fps))
        return fail(error, "bad --session-fps list: " + *spec);
      if (s < frc.sessions.size()) frc.sessions[s].fps = fps;
    }
  }
  if (const auto spec = args.get("session-loss-rate")) {
    const auto items = split(*spec, ',');
    for (std::size_t s = 0; s < items.size(); ++s) {
      const auto rate = util::parse_number(items[s]);
      if (!rate || *rate < 0.0)
        return fail(error, "bad --session-loss-rate list: " + *spec);
      if (s >= frc.sessions.size() || *rate == 0.0) continue;
      if (!frc.sessions[s].faults) frc.sessions[s].faults.emplace();
      frc.sessions[s].faults->loss_rate = *rate;
    }
  }
  if (const auto spec = args.get("scale-devices"))
    if (!parse_device_scale(*spec, &frc.device_scale))
      return fail(error, "bad --scale-devices spec: " + *spec);
  return true;
}

/// Everything on the command line that is not one table field (those went
/// through runtime::apply_flags already).
bool apply_cli_options(const mvs::util::Args& args,
                       mvs::runtime::RunConfig& run, std::string* error) {
  using namespace mvs;
  // Dual-target flags: --threads sizes the pipeline and the fleet pool;
  // --burn-budget is the fleet's SLO budget or the paced run's miss budget.
  // runtime::validate checks both ranges afterwards.
  if (const auto n = args.get("threads")) {
    int threads = 0;
    if (!parse_int(*n, &threads))
      return fail(error, "--threads: malformed integer \"" + *n + "\"");
    run.pipeline.threads = threads;
    if (run.fleet) run.fleet->threads = threads;
  }
  if (const auto x = args.get("burn-budget")) {
    const auto budget = util::parse_number(*x);
    if (!budget)
      return fail(error, "--burn-budget: malformed number \"" + *x + "\"");
    (run.fleet ? run.fleet->burn_error_budget : run.rt.miss_budget) = *budget;
    if (!run.fleet) run.rt.paced = true;
  }

  if (const auto spec = args.get("drop-camera"))
    if (!parse_dropouts(*spec, &run.pipeline.faults.dropouts))
      return fail(error, "bad --drop-camera spec: " + *spec);
  if (const auto spec = args.get("flash-crowd")) {
    sim::CityConfig cc =
        sim::parse_city_name(run.scenario).value_or(sim::CityConfig{});
    if (!parse_flash_crowd(*spec, &cc))
      return fail(error, "bad --flash-crowd spec: " + *spec);
    run.scenario = sim::city_scenario_name(cc);
  }

  // Implications: any rt flag implies --paced (so `--deadline-ms 80` alone
  // does what it looks like); a fault knob without --transport implies the
  // lossy transport, since faults have no effect on the ideal link; a model
  // implies the learned policy; an export implies instrumentation.
  if (any_flag(args, "rt")) run.rt.paced = true;
  if (any_flag(args, "faults") && !args.has("transport"))
    run.pipeline.transport = net::TransportKind::kLossy;
  if (args.has("policy-model") && !args.has("frame-policy"))
    run.pipeline.frame_policy.kind = policy::PolicyKind::kLearned;
  if (args.has("chrome-trace") || args.has("metrics-json"))
    run.obs.enabled = true;

  return !run.fleet || build_roster(args, run, error);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mvs;
  std::vector<std::string> switches;
  const auto add_switch = [&](const runtime::FieldInfo& f) {
    if (f.flag && f.kind == runtime::FieldKind::kBool)
      switches.push_back(f.flag);
  };
  std::ranges::for_each(runtime::config_schema(), add_switch);
  std::ranges::for_each(kCliOptions, add_switch);
  const util::Args args = util::Args::parse(argc, argv, switches);

  if (args.has("help")) return usage(argv[0], 0);

  runtime::RunConfig run;
  if (const auto path = args.get("config")) {
    std::ifstream in(*path);
    if (!in) {
      std::fprintf(stderr, "cannot open config file: %s\n", path->c_str());
      return 1;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    std::string error;
    const auto parsed = runtime::parse_run_config(buffer.str(), &error);
    if (!parsed) {
      std::fprintf(stderr, "bad config: %s\n", error.c_str());
      return 1;
    }
    run = *parsed;
  }

  // The scenario may be given positionally (`mvsched_cli S2 ...`) or via
  // --scenario; the explicit flag wins when both are present.
  if (args.positional().size() > 1) {
    std::fprintf(stderr, "unexpected argument: %s\n",
                 args.positional()[1].c_str());
    return usage(argv[0], 2);
  }
  if (!args.positional().empty()) run.scenario = args.positional().front();
  if (args.has("fleet") && !run.fleet) run.fleet.emplace();
  std::string error;
  if (!runtime::apply_flags(args, kCliOptions, run, &error) ||
      !apply_cli_options(args, run, &error) ||
      !runtime::validate(run, &error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return usage(argv[0], 2);
  }
  if (args.has("dump-config")) {
    std::printf("%s\n", runtime::dump_run_config(run).c_str());
    return 0;
  }
  if (run.pipeline.verbose) util::set_log_level(util::LogLevel::kInfo);

  // Export files open up front so an unwritable path fails fast (exit 2)
  // instead of after a long run.
  std::ofstream chrome_out, metrics_out;
  if (!run.obs.chrome_trace.empty()) {
    chrome_out.open(run.obs.chrome_trace, std::ios::out | std::ios::trunc);
    if (!chrome_out) {
      std::fprintf(stderr, "cannot write --chrome-trace file: %s\n",
                   run.obs.chrome_trace.c_str());
      return usage(argv[0], 2);
    }
  }
  if (!run.obs.metrics_json.empty()) {
    metrics_out.open(run.obs.metrics_json, std::ios::out | std::ios::trunc);
    if (!metrics_out) {
      std::fprintf(stderr, "cannot write --metrics-json file: %s\n",
                   run.obs.metrics_json.c_str());
      return usage(argv[0], 2);
    }
  }
  if (run.obs.enabled || run.obs.attribution) obs::reset();
  if (run.obs.enabled) obs::set_enabled(true);
  if (run.obs.attribution) {
    obs::set_attribution_enabled(true);
    obs::FlightRecorder::Config rc;
    rc.dir = run.obs.postmortem_dir;
    rc.miss_window = run.obs.postmortem_miss_window;
    rc.miss_threshold = run.obs.postmortem_miss_threshold;
    obs::recorder().configure(rc);
  }
  const auto write_obs_exports = [&] {
    if (chrome_out.is_open()) {
      chrome_out << obs::tracer().chrome_trace_json() << '\n';
      std::fprintf(stderr, "wrote %s\n", run.obs.chrome_trace.c_str());
    }
    if (metrics_out.is_open()) {
      metrics_out << obs::export_json() << '\n';
      std::fprintf(stderr, "wrote %s\n", run.obs.metrics_json.c_str());
    }
    if (run.obs.attribution && obs::recorder().dumps() > 0) {
      const std::string path = obs::recorder().last_dump_path();
      std::fprintf(stderr, "flight recorder: %lld postmortem dump%s%s%s\n",
                   obs::recorder().dumps(),
                   obs::recorder().dumps() == 1 ? "" : "s",
                   path.empty() ? "" : ", last ", path.c_str());
    }
  };

  // Fleet serving: --fleet, or a config file carrying a "fleet" block.
  if (run.fleet) {
    const runtime::FleetRunConfig& frc = *run.fleet;
    const auto fc = fleet::make_fleet_config(frc, &error);
    if (!fc) {
      std::fprintf(stderr, "%s\n", error.c_str());
      return usage(argv[0], 2);
    }

    // The CLI consumes the serving plane through FleetApi only: make_fleet
    // builds it at any shard count, and nothing below cares.
    const std::unique_ptr<fleet::FleetApi> fleet = fleet::make_fleet(*fc);
    for (const fleet::SessionSpec& spec : frc.sessions) {
      const fleet::AdmitResult admit = fleet->admit(spec);
      if (admit.admitted) {
        std::fprintf(stderr,
                     "admitted %s -> shard %d (projected %.1f ms%s%s)\n",
                     spec.name.c_str(), admit.shard, admit.projected_ms,
                     admit.masks_tightened ? ", masks tightened" : "",
                     admit.rate_halved ? ", rate halved" : "");
      } else {
        std::fprintf(stderr, "rejected %s: %s\n", spec.name.c_str(),
                     admit.reason.c_str());
      }
    }
    for (const runtime::FleetDeviceScale& ds : frc.device_scale) {
      const int count = fleet->scale_devices(ds.device_class, ds.delta);
      std::fprintf(stderr, "scaled %s pool to %d device%s\n",
                   ds.device_class.c_str(), count, count == 1 ? "" : "s");
    }

    // --frames counts base frame periods; the wheel may tick faster when
    // heterogeneous rates were admitted.
    const int base_fps = std::max(
        1, static_cast<int>(std::lround(1000.0 / fc->frame_period_ms)));
    const int ticks = run.frames * (fleet->wheel_hz() / base_fps);
    std::fprintf(stderr, "running fleet of %zu for %d ticks (wheel %d Hz, "
                 "%d shard%s, slo=%.1f ms, dispatch=%s)...\n",
                 fleet->session_count(), ticks, fleet->wheel_hz(),
                 fc->shards, fc->shards == 1 ? "" : "s", fc->slo_ms,
                 fleet::to_string(fc->dispatch));
    fleet->run(ticks);

    const fleet::FleetSnapshot snap = fleet->snapshot();
    util::Table table({"handle", "shard", "name", "state", "fps", "stride",
                       "frames", "deferred", "p50_ms", "p95_ms", "p99_ms",
                       "mean_ms", "iso_ms", "queue_ms", "slo_viol",
                       "recall"});
    for (const fleet::SessionSnapshot& s : snap.sessions) {
      table.add_row({std::to_string(s.handle.id) + "." +
                         std::to_string(s.handle.gen),
                     std::to_string(s.shard), s.name,
                     fleet::to_string(s.state),
                     std::to_string(s.fps), std::to_string(s.stride),
                     std::to_string(s.frames),
                     std::to_string(s.deferred_ticks),
                     util::Table::fmt(s.p50_ms, 1),
                     util::Table::fmt(s.p95_ms, 1),
                     util::Table::fmt(s.p99_ms, 1),
                     util::Table::fmt(s.mean_ms, 1),
                     util::Table::fmt(s.mean_isolated_ms, 1),
                     util::Table::fmt(s.mean_queue_ms, 2),
                     std::to_string(s.slo_violations),
                     util::Table::fmt(s.object_recall, 3)});
    }
    std::printf("%s", table.to_string().c_str());
    std::printf("admitted %d | rejected %d | evicted %d | readmitted %d\n",
                snap.admitted, snap.rejected, snap.evicted, snap.readmitted);
    if (snap.shards > 1)
      std::printf("shards %d | migrations %ld | cross-shard batches saved "
                  "%ld (%.1f ms)\n",
                  snap.shards, snap.migrations, snap.cross_batches_saved,
                  snap.cross_busy_saved_ms);
    std::printf("batches: shared %ld vs isolated %ld | busy %.1f vs %.1f ms "
                "| splits %ld\n",
                snap.shared_batches, snap.isolated_batches,
                snap.shared_busy_ms, snap.isolated_busy_ms,
                snap.batch_splits);
    std::printf("occupancy %.2f | p95 tick busy %.1f ms | queue depth %.2f "
                "| pool queueing %.1f ms\n",
                snap.mean_occupancy, snap.p95_tick_busy_ms,
                snap.mean_queue_depth, snap.total_queue_ms);
    if (fc->burn_error_budget > 0.0)
      std::printf("slo burn: %ld alert%s raised | %ld cleared | %d session%s "
                  "alerting\n",
                  snap.slo_alerts_raised,
                  snap.slo_alerts_raised == 1 ? "" : "s",
                  snap.slo_alerts_cleared, snap.alerting_sessions,
                  snap.alerting_sessions == 1 ? "" : "s");
    for (const auto& [name, count] : snap.device_pools)
      std::printf("device pool %s: %d\n", name.c_str(), count);
    if (snap.total_retries || snap.total_dropped_msgs)
      std::printf("transport: retries %ld | dropped msgs %ld\n",
                  snap.total_retries, snap.total_dropped_msgs);
    if (const auto path = args.get("fleet-json")) {
      std::ofstream out(*path);
      out << snap.to_json() << '\n';
      std::fprintf(stderr, "wrote %s\n", path->c_str());
    }
    write_obs_exports();
    return 0;
  }

  // Paced streaming run: frames arrive on the virtual wall clock, each with
  // a deadline budget; the summary reports streaming recall (emitted tracks
  // scored against the world at emission time) next to the classic offline
  // recall.
  if (run.rt.paced) {
    rt::RtRunner runner(run.scenario, run.pipeline, run.rt);
    std::fprintf(stderr,
                 "running paced %s / %s for %d frames (period=%.0f ms, "
                 "deadline=%s, late=%s)...\n",
                 run.scenario.c_str(),
                 runtime::to_string(run.pipeline.policy), run.frames,
                 runner.frame_period_ms(),
                 run.rt.deadline_ms > 0.0
                     ? (util::Table::fmt(run.rt.deadline_ms, 0) + " ms").c_str()
                     : "inf",
                 runtime::to_string(run.rt.late_policy));
    const rt::RtResult r = runner.run(run.frames);
    const rt::RtCounters& c = r.counters;
    std::printf("scenario            : %s\n", run.scenario.c_str());
    std::printf("policy              : %s | late policy %s\n",
                runtime::to_string(run.pipeline.policy),
                runtime::to_string(run.rt.late_policy));
    std::printf("frames              : %ld arrived | %ld processed | "
                "%ld dropped | %ld superseded | %ld missed deadline\n",
                c.arrived, c.processed, c.dropped, c.superseded,
                c.deadline_miss);
    std::printf("streaming recall    : %.3f (over %ld instants)\n",
                r.streaming_recall, r.instants);
    std::printf("object recall       : %.3f\n", r.object_recall);
    std::printf("emission lag        : mean %.1f ms | max %.1f ms\n",
                r.mean_lag_ms, r.max_lag_ms);
    std::printf("gpu busy            : %.0f ms over %.0f ms makespan\n",
                c.gpu_busy_ms, r.makespan_ms);
    if (run.rt.miss_budget > 0.0)
      std::printf("slo burn            : %ld alert%s raised | %salerting at "
                  "exit\n",
                  runner.slo_alerts(), runner.slo_alerts() == 1 ? "" : "s",
                  runner.alerting() ? "" : "not ");
    write_obs_exports();
    return 0;
  }

  std::fprintf(stderr,
               "running %s / %s for %d frames (T=%d, seed=%llu, "
               "transport=%s)...\n",
               run.scenario.c_str(), runtime::to_string(run.pipeline.policy),
               run.frames, run.pipeline.horizon_frames,
               static_cast<unsigned long long>(run.pipeline.seed),
               net::to_string(run.pipeline.transport));

  runtime::Pipeline pipeline(run.scenario, run.pipeline);
  const runtime::PipelineResult result = pipeline.run(run.frames);

  if (args.has("csv")) {
    util::Table csv({"frame", "key", "slowest_ms", "recall", "gt", "tracked",
                     "central_ms", "tracking_ms", "distributed_ms",
                     "batching_ms", "comm_ms", "queue_ms", "retries",
                     "dropped", "online"});
    for (const runtime::FrameStats& f : result.frames) {
      csv.add_row({std::to_string(f.frame), f.key_frame ? "1" : "0",
                   util::Table::fmt(f.slowest_infer_ms, 2),
                   util::Table::fmt(f.frame_recall, 3),
                   std::to_string(f.gt_objects),
                   std::to_string(f.tracked_objects),
                   util::Table::fmt(f.central_ms, 3),
                   util::Table::fmt(f.tracking_ms, 3),
                   util::Table::fmt(f.distributed_ms, 4),
                   util::Table::fmt(f.batching_ms, 3),
                   util::Table::fmt(f.comm_ms, 3),
                   util::Table::fmt(f.queue_ms, 3),
                   std::to_string(f.retries),
                   std::to_string(f.dropped_msgs),
                   std::to_string(f.cameras_online)});
    }
    std::printf("%s", csv.to_csv().c_str());
    write_obs_exports();
    return 0;
  }

  std::printf("scenario            : %s\n", result.scenario.c_str());
  std::printf("policy              : %s\n", runtime::to_string(result.policy));
  std::printf("transport           : %s\n",
              net::to_string(run.pipeline.transport));
  std::printf("frames              : %zu\n", result.frames.size());
  std::printf("object recall       : %.3f\n", result.object_recall);
  std::printf("slowest camera mean : %.1f ms/frame\n",
              result.mean_slowest_infer_ms());
  std::printf("overheads (ms/frame): central %.2f | tracking %.2f | "
              "distributed %.3f | batching %.2f | comm %.2f\n",
              result.mean_central_ms(), result.mean_tracking_ms(),
              result.mean_distributed_ms(), result.mean_batching_ms(),
              result.mean_comm_ms());
  if (run.pipeline.transport == net::TransportKind::kLossy)
    std::printf("network             : queue %.3f ms/frame | retries %ld | "
                "dropped msgs %ld\n",
                result.mean_queue_ms(), result.total_retries(),
                result.total_dropped_msgs());
  write_obs_exports();
  return 0;
}
