#include "support/offload.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <set>

namespace mvs::core {

namespace {

std::set<std::uint64_t> all_objects(const ViewSelectionProblem& p) {
  std::set<std::uint64_t> ids;
  for (const auto& cam : p.objects_per_camera)
    ids.insert(cam.begin(), cam.end());
  return ids;
}

}  // namespace

ViewSelection select_views_greedy(const ViewSelectionProblem& problem) {
  assert(problem.objects_per_camera.size() == problem.upload_cost.size());
  const std::set<std::uint64_t> universe = all_objects(problem);

  ViewSelection out;
  out.total_objects = universe.size();
  std::set<std::uint64_t> uncovered = universe;
  std::vector<char> used(problem.objects_per_camera.size(), 0);

  while (!uncovered.empty()) {
    int best = -1;
    double best_ratio = std::numeric_limits<double>::infinity();
    std::size_t best_new = 0;
    for (std::size_t i = 0; i < problem.objects_per_camera.size(); ++i) {
      if (used[i]) continue;
      std::size_t fresh = 0;
      for (std::uint64_t id : problem.objects_per_camera[i])
        fresh += uncovered.count(id);
      if (fresh == 0) continue;
      const double ratio =
          problem.upload_cost[i] / static_cast<double>(fresh);
      if (ratio < best_ratio) {
        best_ratio = ratio;
        best = static_cast<int>(i);
        best_new = fresh;
      }
    }
    if (best < 0) break;  // remaining objects are not coverable
    used[static_cast<std::size_t>(best)] = 1;
    out.cameras.push_back(best);
    out.total_cost += problem.upload_cost[static_cast<std::size_t>(best)];
    out.covered += best_new;
    for (std::uint64_t id :
         problem.objects_per_camera[static_cast<std::size_t>(best)])
      uncovered.erase(id);
  }
  std::sort(out.cameras.begin(), out.cameras.end());
  return out;
}

ViewSelection select_views_optimal(const ViewSelectionProblem& problem) {
  assert(problem.objects_per_camera.size() == problem.upload_cost.size());
  const std::size_t m = problem.objects_per_camera.size();
  assert(m <= 20);
  const std::set<std::uint64_t> universe = all_objects(problem);

  // Determine which objects are coverable at all.
  ViewSelection best;
  best.total_objects = universe.size();
  double best_cost = std::numeric_limits<double>::infinity();
  std::vector<int> best_subset;

  for (std::uint32_t mask = 0; mask < (1u << m); ++mask) {
    double cost = 0.0;
    std::set<std::uint64_t> covered;
    for (std::size_t i = 0; i < m; ++i) {
      if (!(mask & (1u << i))) continue;
      cost += problem.upload_cost[i];
      covered.insert(problem.objects_per_camera[i].begin(),
                     problem.objects_per_camera[i].end());
    }
    if (covered.size() == universe.size() && cost < best_cost) {
      best_cost = cost;
      best_subset.clear();
      for (std::size_t i = 0; i < m; ++i)
        if (mask & (1u << i)) best_subset.push_back(static_cast<int>(i));
    }
  }
  best.cameras = best_subset;
  best.total_cost = best_subset.empty() ? 0.0 : best_cost;
  best.covered = universe.size();
  return best;
}

}  // namespace mvs::core
