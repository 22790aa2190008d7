// Detect-or-track policy ablation (mvs::policy): what does skipping
// detection on quiet frames buy, and what does it cost?
//
// Protocol:
//   1. Run the FIXED policy (detect every regular frame — the pre-policy
//      pipeline) once per seed while recording the per-camera feature trace
//      with counterfactual labels (label 1 = the detection changed something
//      the tracker would have gotten wrong).
//   2. Train the logistic and decision-tree scorers on the pooled traces
//      (policy::train_model, strided holdout).
//   3. Re-run the same scenario/seeds under heuristic / learned-logistic /
//      learned-tree policies and compare mean object recall, total simulated
//      GPU busy time, and the p99 of the per-frame slowest-camera latency.
//
// Methodology notes:
//   - Every run (fixed included) uses PipelineConfig::paired_rng — common
//     random numbers. The simulated detector is stochastic; with sequential
//     per-camera streams, skipping ONE inspection shifts every later draw
//     and single-run recall swings by +-0.15, drowning the policy effect.
//     Per-frame (seed, camera, frame) re-seeding makes two runs that differ
//     only in WHICH frames they inspect draw identical outcomes whenever
//     they inspect the same thing, so the comparison is paired.
//   - Results are averaged over --seeds consecutive seeds; recall is the
//     mean, GPU busy the total, and the slowest-camera p99 is pooled.
//
// Acceptance (exit status; CI runs this as a smoke test):
//   - heuristic cuts total GPU busy by >= 25% vs fixed while keeping mean
//     recall within kRecallBand of the fixed baseline;
//   - each learned policy's GPU cut at least matches the heuristic's
//     (small tolerance) inside the same recall band.
//
// Usage:
//   ablation_policy [--scenario S2] [--frames 120] [--seed 42] [--seeds 5]
//                   [--trace policy_features.jsonl] [--json out.json]

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "policy/policy.hpp"
#include "policy/train.hpp"
#include "runtime/pipeline.hpp"
#include "support/bench_info.hpp"
#include "util/args.hpp"
#include "util/json.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace {

using namespace mvs;

constexpr double kRecallBand = 0.03;  ///< max mean recall drop vs fixed
constexpr double kBusyCut = 0.25;     ///< required heuristic GPU-busy cut
constexpr double kLearnedSlack = 0.05;  ///< learned may trail heuristic by this

struct RunPoint {
  std::string name;
  double recall = 0.0;        ///< mean object recall over seeds
  double busy_ms = 0.0;       ///< total simulated GPU busy over all seeds
  double busy_cut = 0.0;      ///< fraction saved vs fixed
  double p99_slowest_ms = 0.0;  ///< pooled over seeds
  double mean_slowest_ms = 0.0;
};

/// Run `cfg` at seeds base..base+seeds-1 and aggregate. When `trace_base`
/// is non-empty, seed k records its feature trace to "<trace_base>.<seed>".
RunPoint measure(const std::string& name, const std::string& scenario,
                 int frames, int seeds, std::uint64_t base_seed,
                 runtime::PipelineConfig cfg,
                 const std::string& trace_base = "") {
  RunPoint p;
  p.name = name;
  util::SampleSet slowest;
  double mean_slowest_acc = 0.0;
  for (int k = 0; k < seeds; ++k) {
    cfg.seed = base_seed + static_cast<std::uint64_t>(k);
    if (!trace_base.empty())
      cfg.frame_policy.feature_trace =
          trace_base + "." + std::to_string(cfg.seed);
    runtime::Pipeline pipeline(scenario, cfg);
    const runtime::PipelineResult result = pipeline.run(frames);
    p.recall += result.object_recall;
    for (const runtime::FrameStats& f : result.frames) {
      for (const double ms : f.camera_infer_ms) p.busy_ms += ms;
      slowest.add(f.slowest_infer_ms);
    }
    mean_slowest_acc += result.mean_slowest_infer_ms();
  }
  p.recall /= static_cast<double>(seeds);
  p.p99_slowest_ms = slowest.count() ? slowest.percentile(99.0) : 0.0;
  p.mean_slowest_ms = mean_slowest_acc / static_cast<double>(seeds);
  return p;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Args args = util::Args::parse(argc, argv);
  const std::string scenario = args.get_or("scenario", "S2");
  const int frames = args.int_or("frames", 120);
  const int seeds = args.int_or("seeds", 5);
  const auto seed = static_cast<std::uint64_t>(args.int_or("seed", 42));
  const std::string trace_path =
      args.get_or("trace", "policy_features.jsonl");
  if (frames < 1 || seeds < 1) {
    std::fprintf(stderr, "--frames and --seeds must be >= 1\n");
    return 2;
  }

  runtime::PipelineConfig base;
  base.paired_rng = true;  // common random numbers; see header comment

  // 1. Fixed baseline at every seed, recording labeled feature traces.
  const RunPoint fixed = measure("fixed", scenario, frames, seeds, seed, base,
                                 trace_path);

  // 2. Train both learned scorers on the pooled traces.
  std::string error;
  std::vector<policy::TrainSample> samples;
  for (int k = 0; k < seeds; ++k) {
    const std::string path =
        trace_path + "." + std::to_string(seed + static_cast<std::uint64_t>(k));
    std::ifstream in(path);
    const auto part = policy::load_feature_trace(in, &error);
    if (!part) {
      std::fprintf(stderr, "trace load failed (%s): %s\n", path.c_str(),
                   error.c_str());
      return 1;
    }
    samples.insert(samples.end(), part->begin(), part->end());
  }
  std::optional<policy::TrainReport> logistic =
      policy::train_model(samples, policy::ModelType::kLogistic, &error);
  if (!logistic) std::fprintf(stderr, "logistic: %s\n", error.c_str());
  std::optional<policy::TrainReport> tree =
      policy::train_model(samples, policy::ModelType::kTree, &error);
  if (!tree) std::fprintf(stderr, "tree: %s\n", error.c_str());

  // 3. The competing policies on the identical scenario/seeds.
  std::vector<RunPoint> runs{fixed};
  {
    runtime::PipelineConfig cfg = base;
    cfg.frame_policy.kind = policy::PolicyKind::kHeuristic;
    runs.push_back(measure("heuristic", scenario, frames, seeds, seed, cfg));
  }
  if (logistic) {
    runtime::PipelineConfig cfg = base;
    cfg.frame_policy.kind = policy::PolicyKind::kLearned;
    cfg.frame_policy.model_json = policy::dump_model(logistic->model);
    runs.push_back(
        measure("learned-logistic", scenario, frames, seeds, seed, cfg));
  }
  if (tree) {
    runtime::PipelineConfig cfg = base;
    cfg.frame_policy.kind = policy::PolicyKind::kLearned;
    cfg.frame_policy.model_json = policy::dump_model(tree->model);
    runs.push_back(
        measure("learned-tree", scenario, frames, seeds, seed, cfg));
  }

  for (RunPoint& p : runs)
    p.busy_cut =
        fixed.busy_ms > 0.0 ? 1.0 - p.busy_ms / fixed.busy_ms : 0.0;

  util::Table table({"policy", "recall", "drop", "gpu_busy_ms", "cut%",
                     "p99_slowest_ms", "mean_slowest_ms"});
  for (const RunPoint& p : runs)
    table.add_row({p.name, util::Table::fmt(p.recall, 3),
                   util::Table::fmt(fixed.recall - p.recall, 3),
                   util::Table::fmt(p.busy_ms, 1),
                   util::Table::fmt(100.0 * p.busy_cut, 1),
                   util::Table::fmt(p.p99_slowest_ms, 1),
                   util::Table::fmt(p.mean_slowest_ms, 1)});
  std::printf(
      "== Ablation: detect-or-track policy (%s, %d frames x %d seeds) ==\n\n",
      scenario.c_str(), frames, seeds);
  std::printf("%s\n", table.to_string().c_str());

  // Acceptance checks.
  bool ok = true;
  double heuristic_cut = 0.0;
  std::ostringstream verdicts;
  for (const RunPoint& p : runs) {
    if (p.name == "fixed") continue;
    const bool in_band = fixed.recall - p.recall <= kRecallBand;
    bool enough = true;
    if (p.name == "heuristic") {
      heuristic_cut = p.busy_cut;
      enough = p.busy_cut >= kBusyCut;
    } else {
      enough = p.busy_cut >= heuristic_cut - kLearnedSlack;
    }
    ok = ok && in_band && enough;
    verdicts << "  " << p.name << ": recall band "
             << (in_band ? "ok" : "VIOLATED") << ", gpu cut "
             << (enough ? "ok" : "INSUFFICIENT") << "\n";
  }
  std::printf("%s", verdicts.str().c_str());
  std::printf("acceptance: %s\n", ok ? "pass" : "FAIL");

  const std::string json_path = args.get_or("json", "");
  if (!json_path.empty()) {
    util::Json::Array points;
    for (const RunPoint& p : runs) {
      util::Json::Object o;
      o["policy"] = util::Json(p.name);
      o["recall"] = util::Json(p.recall);
      o["recall_drop"] = util::Json(fixed.recall - p.recall);
      o["gpu_busy_ms"] = util::Json(p.busy_ms);
      o["busy_cut"] = util::Json(p.busy_cut);
      o["p99_slowest_ms"] = util::Json(p.p99_slowest_ms);
      o["mean_slowest_ms"] = util::Json(p.mean_slowest_ms);
      points.push_back(util::Json(std::move(o)));
    }
    util::Json::Object body;
    body["scenario"] = util::Json(scenario);
    body["frames"] = util::Json(frames);
    body["seeds"] = util::Json(seeds);
    body["recall_band"] = util::Json(kRecallBand);
    body["required_busy_cut"] = util::Json(kBusyCut);
    body["pass"] = util::Json(ok);
    if (logistic) {
      util::Json::Object t;
      t["accuracy"] = util::Json(logistic->accuracy);
      t["precision"] = util::Json(logistic->precision);
      t["recall"] = util::Json(logistic->recall);
      t["train_samples"] =
          util::Json(static_cast<double>(logistic->train_samples));
      t["positive_rate"] = util::Json(logistic->positive_rate);
      body["logistic_holdout"] = util::Json(std::move(t));
    }
    if (tree) {
      util::Json::Object t;
      t["accuracy"] = util::Json(tree->accuracy);
      t["precision"] = util::Json(tree->precision);
      t["recall"] = util::Json(tree->recall);
      t["train_samples"] =
          util::Json(static_cast<double>(tree->train_samples));
      t["positive_rate"] = util::Json(tree->positive_rate);
      body["tree_holdout"] = util::Json(std::move(t));
    }
    body["runs"] = util::Json(std::move(points));

    util::Json::Object doc;
    doc["env"] = util::bench_env_json();
    doc["policy_ablation"] = util::Json(std::move(body));
    std::ofstream out(json_path);
    out << util::Json(std::move(doc)).dump() << '\n';
    std::printf("wrote %s\n", json_path.c_str());
  }
  return ok ? 0 : 1;
}
