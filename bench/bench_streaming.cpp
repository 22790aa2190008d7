// Streaming-perception benchmark (mvs::rt): what does a deadline budget
// cost, and what does city-scale correlation gating buy?
//
// Four sections, all on the deterministic virtual clock (bit-identical
// across machines and thread counts for a fixed config):
//
//   1. Deadline-budget sweep: run the paced runtime under the drop policy
//      at budgets from harsh to infinite and record STREAMING recall —
//      emitted tracks scored against the world at emission time, the
//      streaming-perception metric — plus drop/miss rates and lag. The
//      curve must be monotone: more budget can only help.
//
// All sections run with paired detector RNG (common random numbers,
// PipelineConfig::paired_rng): detector noise is keyed by (seed, camera,
// frame), so two runs that process the same frame draw the same noise no
// matter how many frames were dropped before it. Without this, a single
// drop reseeds every later frame's noise and the budget sweep measures
// realization variance (several points of recall) instead of the
// information lost to dropping.
//   2. Late-policy comparison at the paper's 100 ms rule: drop vs
//      supersede vs finish-late on the same scenario.
//   3. City-grid rows: a 50-camera sparse grid with and without ReXCam-
//      style learned correlation gating (the acceptance row: gating must
//      cut simulated GPU busy time by >= --city-cut while losing at most
//      --recall-band streaming recall), plus a 100-camera gated row.
//   4. rt-of-one guard: finish-late + infinite budget must reproduce the
//      unpaced pipeline bit-identically (recall and per-frame stats).
//
// Acceptance (exit status; CI runs a smoke-sized variant where the gate is
// advisory and only the JSON schema is enforced):
//   - budget-sweep streaming recall non-decreasing in the budget;
//   - city gating busy cut >= --city-cut at <= --recall-band recall loss;
//   - rt-of-one identity holds.
//
// Usage:
//   bench_streaming [--scenario S2] [--frames 150] [--seed 42] [--iou 0.6]
//                   [--jitter-ms 15] [--overhead-ms 5] [--period-ms 300]
//                   [--policy-period-ms 150]
//                   [--city-cams 50] [--city2-cams 100] [--city-frames 150]
//                   [--city-rate 0.01] [--city-period-ms 0] [--gate-hold 20]
//                   [--city-cut 0.20] [--recall-band 0.01] [--no-city]
//                   [--json out.json]

#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "rt/runner.hpp"
#include "runtime/config.hpp"
#include "runtime/pipeline.hpp"
#include "sim/scenario.hpp"
#include "support/bench_info.hpp"
#include "util/args.hpp"
#include "util/json.hpp"
#include "util/table.hpp"

namespace {

using namespace mvs;

struct Row {
  std::string label;
  double deadline_ms = 0.0;
  runtime::LatePolicy policy = runtime::LatePolicy::kDrop;
  rt::RtResult r;
};

rt::RtResult run_paced(const std::string& scenario,
                       const runtime::PipelineConfig& cfg,
                       const runtime::RtConfig& rtc, int frames) {
  rt::RtRunner runner(scenario, cfg, rtc);
  return runner.run(frames);
}

double rate(long n, long total) {
  return total > 0 ? static_cast<double>(n) / static_cast<double>(total)
                   : 0.0;
}

void add_table_row(util::Table& table, const Row& row) {
  const rt::RtCounters& c = row.r.counters;
  table.add_row({row.label,
                 row.deadline_ms > 0.0 ? util::Table::fmt(row.deadline_ms, 0)
                                       : "inf",
                 runtime::to_string(row.policy),
                 util::Table::fmt(row.r.streaming_recall, 3),
                 util::Table::fmt(row.r.object_recall, 3),
                 util::Table::fmt(rate(c.dropped, c.arrived), 3),
                 util::Table::fmt(rate(c.superseded, c.arrived), 3),
                 util::Table::fmt(rate(c.deadline_miss, c.arrived), 3),
                 util::Table::fmt(row.r.mean_lag_ms, 1),
                 util::Table::fmt(c.gpu_busy_ms, 0)});
}

util::Json::Object row_json(const Row& row) {
  const rt::RtCounters& c = row.r.counters;
  util::Json::Object o;
  o["label"] = util::Json(row.label);
  o["deadline_ms"] = util::Json(row.deadline_ms);
  o["late_policy"] = util::Json(runtime::to_string(row.policy));
  o["streaming_recall"] = util::Json(row.r.streaming_recall);
  o["object_recall"] = util::Json(row.r.object_recall);
  o["arrived"] = util::Json(static_cast<double>(c.arrived));
  o["processed"] = util::Json(static_cast<double>(c.processed));
  o["drop_rate"] = util::Json(rate(c.dropped, c.arrived));
  o["supersede_rate"] = util::Json(rate(c.superseded, c.arrived));
  o["miss_rate"] = util::Json(rate(c.deadline_miss, c.arrived));
  o["mean_lag_ms"] = util::Json(row.r.mean_lag_ms);
  o["max_lag_ms"] = util::Json(row.r.max_lag_ms);
  o["gpu_busy_ms"] = util::Json(c.gpu_busy_ms);
  o["makespan_ms"] = util::Json(row.r.makespan_ms);
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Args args =
      util::Args::parse(argc, argv, {"no-city", "no-flash", "no-night"});
  const std::string scenario = args.get_or("scenario", "S2");
  const int frames = args.int_or("frames", 150);
  const auto seed = static_cast<std::uint64_t>(args.int_or("seed", 42));
  const double jitter_ms = args.number_or("jitter-ms", 15.0);
  const double overhead_ms = args.number_or("overhead-ms", 5.0);
  // The sweep arrival period must clear even the SLOWEST frame service time
  // (key frames run a full inspection, ~3x a regular frame) so no backlog
  // ever forms: with a backlog, dropping stale queued frames lets the
  // processor jump to fresher input and IMPROVES streaming recall (the
  // Li et al. result), which is the opposite of what a budget sweep is
  // trying to isolate. With a feasible period a drop is pure information
  // loss and the curve is monotone in the budget.
  const double period_ms = args.number_or("period-ms", 300.0);
  // City poles are paced slower than the S-scenarios (500 ms: the 2 fps of
  // a municipal analytics deployment) so both gated and ungated rows keep
  // up and the GPU-busy comparison is not confounded by queueing.
  const double city_period_ms = args.number_or("city-period-ms", 500.0);
  const int city_cams = args.int_or("city-cams", 50);
  const int city2_cams = args.int_or("city2-cams", 100);
  const int city_frames = args.int_or("city-frames", 150);
  const double city_cut = args.number_or("city-cut", 0.20);
  const double recall_band = args.number_or("recall-band", 0.01);
  const double city_rate = args.number_or("city-rate", 0.01);
  const int gate_hold = args.int_or("gate-hold", 20);
  // Entry cameras are learned from FRESH arrivals only, and at 0.01
  // arrivals/s/stream those are rare: the training split must span a few
  // hundred sim-seconds for every stream's entry camera to be observed.
  // Training frames carry ground truth only (nothing is rendered), so the
  // long split costs simulation stepping, not inference.
  const int city_training = args.int_or("city-training", 4000);
  const bool run_city = !args.has("no-city");
  if (frames < 1 || city_frames < 1 || city_cams < 1 || city2_cams < 1) {
    std::fprintf(stderr, "--frames/--city-frames/--city-cams must be >= 1\n");
    return 2;
  }

  // Match threshold for the streaming scorer (and the offline recall it is
  // compared against). The default is stricter than the pipeline-wide 0.4:
  // at 0.4 a two-frame-stale box still matches its object and the staleness
  // cost of a dropped frame is lost in tracking-luck noise; at 0.6 staleness
  // is the dominant term and the budget sweep isolates what a drop costs.
  const double sweep_iou = args.number_or("iou", 0.6);

  runtime::PipelineConfig cfg;
  cfg.seed = seed;
  cfg.paired_rng = true;
  cfg.recall_iou = sweep_iou;

  runtime::RtConfig base_rt;
  base_rt.paced = true;
  base_rt.frame_period_ms = period_ms;
  base_rt.arrival_jitter_ms = jitter_ms;
  base_rt.fixed_overhead_ms = overhead_ms;

  // ---- deadline-budget sweep (drop policy) -------------------------------
  const double budgets[] = {40.0, 60.0, 80.0, 100.0, 150.0, 250.0, 0.0};
  util::Table table({"row", "budget", "policy", "s_recall", "o_recall",
                     "drop", "sup", "miss", "lag_ms", "busy_ms"});
  util::Json::Array sweep;
  std::vector<double> curve;
  for (const double budget : budgets) {
    runtime::RtConfig rtc = base_rt;
    rtc.deadline_ms = budget;
    rtc.late_policy = runtime::LatePolicy::kDrop;
    Row row{"budget", budget, rtc.late_policy,
            run_paced(scenario, cfg, rtc, frames)};
    add_table_row(table, row);
    sweep.push_back(util::Json(row_json(row)));
    curve.push_back(row.r.streaming_recall);
  }
  bool monotone = true;
  for (std::size_t i = 1; i < curve.size(); ++i)
    if (curve[i] + 1e-12 < curve[i - 1]) monotone = false;

  // ---- late-policy comparison at the 100 ms rule -------------------------
  // Run where the policies actually engage: a period near the mean service
  // time, so key frames cause transient backlogs and frames are stale at
  // dequeue. (At the sweep's feasible period nothing is ever late and the
  // three policies are indistinguishable.) This is also where the drop-helps
  // effect shows: finish-late grinds through the backlog and scores WORSE
  // than dropping stale frames.
  const double policy_period_ms = args.number_or("policy-period-ms", 150.0);
  util::Json::Array policies;
  for (const runtime::LatePolicy policy :
       {runtime::LatePolicy::kDrop, runtime::LatePolicy::kSupersede,
        runtime::LatePolicy::kFinishLate}) {
    runtime::RtConfig rtc = base_rt;
    rtc.frame_period_ms = policy_period_ms;
    rtc.deadline_ms = 100.0;
    rtc.late_policy = policy;
    Row row{"policy", 100.0, policy, run_paced(scenario, cfg, rtc, frames)};
    add_table_row(table, row);
    policies.push_back(util::Json(row_json(row)));
  }

  // ---- rt-of-one guard ---------------------------------------------------
  // Finish-late with an infinite budget processes every frame in capture
  // order, so the paced run must reproduce the unpaced pipeline exactly:
  // same aggregate recall, same per-frame simulated inference and recall.
  bool rt_of_one = true;
  {
    runtime::RtConfig rtc = base_rt;
    rtc.deadline_ms = 0.0;
    rtc.late_policy = runtime::LatePolicy::kFinishLate;
    rt::RtRunner runner(scenario, cfg, rtc);
    const rt::RtResult paced = runner.run(frames);
    runtime::Pipeline plain(scenario, cfg);
    const runtime::PipelineResult unpaced = plain.run(frames);
    rt_of_one = paced.object_recall == unpaced.object_recall &&
                paced.counters.processed ==
                    static_cast<long>(unpaced.frames.size());
    const runtime::PipelineResult paced_frames = runner.pipeline().result();
    if (paced_frames.frames.size() != unpaced.frames.size()) rt_of_one = false;
    for (std::size_t i = 0;
         rt_of_one && i < unpaced.frames.size(); ++i) {
      const runtime::FrameStats& a = paced_frames.frames[i];
      const runtime::FrameStats& b = unpaced.frames[i];
      if (a.slowest_infer_ms != b.slowest_infer_ms ||
          a.frame_recall != b.frame_recall)
        rt_of_one = false;
    }
  }

  // ---- city-grid gating rows ---------------------------------------------
  // 50-camera sparse grid, balb-ind (no O(C^2) central stage), finish-late
  // with an infinite budget so the gated and ungated runs process the SAME
  // frames and the GPU-busy comparison is unconfounded by drops. The gate's
  // value shows up directly: cold cameras skip detection and the key-frame
  // full inspection, which dominates at this scale.
  util::Json::Array city;
  double city_busy_cut = 0.0;
  double city_recall_loss = 0.0;
  bool city_pass = true;
  if (run_city) {
    // Sparse grid: most cameras empty most of the time — the regime the
    // gate is for. Pacing does not change SIMULATED time (each frame
    // advances 1/fps = 100 ms of world time), so the flash crowd and the
    // day/night flip are timed to land inside the city_frames/10 seconds
    // of simulation the run covers.
    const double sim_seconds = city_frames / 10.0;
    sim::CityConfig cc;
    cc.cameras = city_cams;
    cc.rate_per_s = city_rate;
    if (!args.has("no-flash")) {
      cc.flash_at_s = 0.25 * sim_seconds;
      cc.flash_duration_s = 0.25 * sim_seconds;
      cc.flash_multiplier = 4.0;
    }
    if (!args.has("no-night")) {
      cc.day_night = true;
      cc.night_period_s = 0.4 * sim_seconds;
    }
    const std::string city_name = sim::city_scenario_name(cc);

    runtime::PipelineConfig ccfg;
    ccfg.seed = seed;
    ccfg.paired_rng = true;
    ccfg.policy = runtime::Policy::kBalbInd;
    ccfg.training_frames = city_training;

    runtime::RtConfig rtc = base_rt;
    rtc.frame_period_ms = city_period_ms;
    rtc.deadline_ms = 0.0;
    rtc.late_policy = runtime::LatePolicy::kFinishLate;

    Row plain{"city" + std::to_string(city_cams) + "-ungated", 0.0,
              rtc.late_policy, run_paced(city_name, ccfg, rtc, city_frames)};
    add_table_row(table, plain);

    runtime::PipelineConfig gcfg = ccfg;
    gcfg.frame_policy.correlation_gate = true;
    gcfg.frame_policy.gate_hold = gate_hold;
    Row gated{"city" + std::to_string(city_cams) + "-gated", 0.0,
              rtc.late_policy, run_paced(city_name, gcfg, rtc, city_frames)};
    add_table_row(table, gated);

    city_busy_cut =
        plain.r.counters.gpu_busy_ms > 0.0
            ? 1.0 - gated.r.counters.gpu_busy_ms / plain.r.counters.gpu_busy_ms
            : 0.0;
    city_recall_loss = plain.r.streaming_recall - gated.r.streaming_recall;
    city_pass = city_busy_cut >= city_cut && city_recall_loss <= recall_band;

    util::Json::Object plain_row = row_json(plain);
    plain_row["cameras"] = util::Json(city_cams);
    plain_row["gated"] = util::Json(false);
    city.push_back(util::Json(std::move(plain_row)));
    util::Json::Object gated_row = row_json(gated);
    gated_row["cameras"] = util::Json(city_cams);
    gated_row["gated"] = util::Json(true);
    city.push_back(util::Json(std::move(gated_row)));

    // 100-camera gated row: the same configuration at double the grid, to
    // show the paced runtime and the gate hold up at the larger scale.
    sim::CityConfig c2 = cc;
    c2.cameras = city2_cams;
    Row big{"city" + std::to_string(city2_cams) + "-gated", 0.0,
            rtc.late_policy,
            run_paced(sim::city_scenario_name(c2), gcfg, rtc, city_frames)};
    add_table_row(table, big);
    util::Json::Object big_row = row_json(big);
    big_row["cameras"] = util::Json(city2_cams);
    big_row["gated"] = util::Json(true);
    city.push_back(util::Json(std::move(big_row)));
  }

  const bool ok = monotone && rt_of_one && (!run_city || city_pass);

  std::printf("scenario=%s frames=%d jitter=%.1fms overhead=%.1fms\n",
              scenario.c_str(), frames, jitter_ms, overhead_ms);
  std::printf("%s", table.to_string().c_str());
  std::printf("budget curve monotone: %s\n", monotone ? "yes" : "NO");
  std::printf("rt-of-one identity:    %s\n", rt_of_one ? "yes" : "NO");
  if (run_city)
    std::printf(
        "city gating: busy cut %.1f%% (need >= %.0f%%), streaming recall "
        "loss %.4f (band %.3f) -> %s\n",
        100.0 * city_busy_cut, 100.0 * city_cut, city_recall_loss,
        recall_band, city_pass ? "pass" : "FAIL");
  std::printf("acceptance: %s\n", ok ? "pass" : "FAIL");

  const std::string json_path = args.get_or("json", "");
  if (!json_path.empty()) {
    util::Json::Object body;
    body["scenario"] = util::Json(scenario);
    body["frames"] = util::Json(frames);
    body["arrival_jitter_ms"] = util::Json(jitter_ms);
    body["fixed_overhead_ms"] = util::Json(overhead_ms);
    body["paired_rng"] = util::Json(true);
    body["frame_period_ms"] = util::Json(period_ms);
    body["policy_period_ms"] = util::Json(policy_period_ms);
    body["iou"] = util::Json(sweep_iou);
    body["budget_sweep"] = util::Json(std::move(sweep));
    body["monotone"] = util::Json(monotone);
    body["late_policies"] = util::Json(std::move(policies));
    body["rt_of_one_identical"] = util::Json(rt_of_one);
    if (run_city) {
      body["city"] = util::Json(std::move(city));
      body["city_busy_cut"] = util::Json(city_busy_cut);
      body["city_recall_loss"] = util::Json(city_recall_loss);
      body["required_busy_cut"] = util::Json(city_cut);
      body["recall_band"] = util::Json(recall_band);
      body["city_pass"] = util::Json(city_pass);
    }
    body["pass"] = util::Json(ok);

    util::Json::Object doc;
    doc["env"] = util::bench_env_json();
    doc["streaming"] = util::Json(std::move(body));
    std::ofstream out(json_path);
    out << util::Json(std::move(doc)).dump() << '\n';
    std::printf("wrote %s\n", json_path.c_str());
  }
  return ok ? 0 : 1;
}
