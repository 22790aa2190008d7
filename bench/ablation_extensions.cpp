// Extension ablations (paper Sec. V future work, implemented in
// bench/support/extensions.hpp and bench/support/offload.hpp):
//   (1) Redundant K-coverage BALB: latency cost of tracking every shared
//       object from K cameras (occlusion insurance).
//   (2) Quality-aware BALB: mean tracking quality vs system latency across
//       the latency-slack knob.
//   (3) Centralized view selection: uplink cost of greedy set-cover view
//       upload vs uploading every camera, on simulated S1 frames.

#include <cstdio>
#include <map>

#include "core/central_balb.hpp"
#include "sim/dataset.hpp"
#include "sim/scenario.hpp"
#include "support/extensions.hpp"
#include "support/offload.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace {

using namespace mvs;

/// MVS instance built from one simulated S1 frame (real coverage sets).
core::MvsProblem problem_from_frame(const sim::MultiFrame& frame,
                                    const sim::Scenario& scenario) {
  core::MvsProblem problem;
  for (const auto& cam : scenario.cameras) problem.cameras.push_back(cam.device);
  const geom::SizeClassSet sizes;
  std::map<std::uint64_t, core::ObjectSpec> by_id;
  for (std::size_t c = 0; c < frame.per_camera.size(); ++c) {
    for (const auto& gt : frame.per_camera[c]) {
      core::ObjectSpec& spec = by_id[gt.id];
      if (spec.size_class.empty())
        spec.size_class.assign(problem.cameras.size(), 0);
      spec.key = gt.id;
      spec.coverage.push_back(static_cast<int>(c));
      spec.size_class[c] = sizes.quantize(gt.box);
    }
  }
  for (auto& [id, spec] : by_id) problem.objects.push_back(spec);
  return problem;
}

}  // namespace

int main() {
  sim::ScenarioPlayer player(sim::make_s1(9), 90.0);
  std::vector<sim::MultiFrame> frames;
  for (int i = 0; i < 20; ++i) {
    // One probe frame every 2 seconds.
    sim::MultiFrame f;
    for (int skip = 0; skip < 20; ++skip) f = player.next();
    frames.push_back(std::move(f));
  }

  // (1) K-coverage latency cost.
  {
    util::Table table({"K", "system latency (ms)", "mean trackers/object"});
    for (int k : {1, 2, 3}) {
      util::RunningStats latency, redundancy;
      for (const sim::MultiFrame& frame : frames) {
        const core::MvsProblem p = problem_from_frame(frame, player.scenario());
        if (p.objects.empty()) continue;
        const core::Assignment a = core::redundant_balb(p, {k});
        latency.add(a.system_latency());
        std::size_t trackers = 0;
        for (std::size_t j = 0; j < p.object_count(); ++j)
          for (std::size_t i = 0; i < p.camera_count(); ++i)
            trackers += a.x[i][j];
        redundancy.add(static_cast<double>(trackers) /
                       static_cast<double>(p.object_count()));
      }
      table.add_row({std::to_string(k), util::Table::fmt(latency.mean(), 1),
                     util::Table::fmt(redundancy.mean(), 2)});
    }
    std::printf("== Extension 1: redundant K-coverage BALB (S1 frames) ==\n%s\n",
                table.to_string().c_str());
  }

  // (2) Quality-efficiency tradeoff: quality = inverse normalized distance.
  {
    util::Table table({"latency slack", "mean quality", "system latency (ms)"});
    for (double slack : {0.0, 0.1, 0.25, 0.5, 1.0}) {
      util::RunningStats quality_stats, latency_stats;
      for (const sim::MultiFrame& frame : frames) {
        const core::MvsProblem p = problem_from_frame(frame, player.scenario());
        if (p.objects.empty()) continue;
        // Quality: 1 / (1 + distance/30m) for the observing camera.
        std::vector<std::vector<double>> quality(
            p.object_count(), std::vector<double>(p.camera_count(), 0.0));
        std::size_t j = 0;
        std::map<std::uint64_t, std::size_t> index;
        for (const auto& spec : p.objects) index[spec.key] = j++;
        for (std::size_t c = 0; c < frame.per_camera.size(); ++c)
          for (const auto& gt : frame.per_camera[c])
            quality[index[gt.id]][c] = 1.0 / (1.0 + gt.distance_m / 30.0);

        const core::Assignment a =
            core::quality_aware_balb(p, quality, {slack});
        quality_stats.add(core::mean_assignment_quality(p, a, quality));
        latency_stats.add(a.system_latency());
      }
      table.add_row({util::Table::fmt(slack, 2),
                     util::Table::fmt(quality_stats.mean(), 3),
                     util::Table::fmt(latency_stats.mean(), 1)});
    }
    std::printf("== Extension 2: quality-efficiency tradeoff ==\n%s\n",
                table.to_string().c_str());
  }

  // (3) Centralized view selection vs upload-everything.
  {
    util::Table table({"strategy", "mean uplink cost (ms)", "views uploaded"});
    util::RunningStats greedy_cost, all_cost, greedy_views;
    for (const sim::MultiFrame& frame : frames) {
      core::ViewSelectionProblem p;
      for (const auto& cam : frame.per_camera) {
        std::vector<std::uint64_t> ids;
        for (const auto& gt : cam) ids.push_back(gt.id);
        p.objects_per_camera.push_back(std::move(ids));
        // 1280x704 YUV frame at 0.15 bpp over a 20 Mbps uplink.
        p.upload_cost.push_back(1280.0 * 704.0 * 0.15 / (20e6) * 1e3);
      }
      const auto selection = core::select_views_greedy(p);
      greedy_cost.add(selection.total_cost);
      greedy_views.add(static_cast<double>(selection.cameras.size()));
      double everything = 0.0;
      for (double c : p.upload_cost) everything += c;
      all_cost.add(everything);
    }
    table.add_row({"upload all views", util::Table::fmt(all_cost.mean(), 1),
                   std::to_string(frames.front().per_camera.size())});
    table.add_row({"greedy set cover", util::Table::fmt(greedy_cost.mean(), 1),
                   util::Table::fmt(greedy_views.mean(), 1)});
    std::printf("== Extension 3: centralized view selection (S1) ==\n%s\n",
                table.to_string().c_str());
  }
  return 0;
}
