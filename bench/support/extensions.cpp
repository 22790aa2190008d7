#include "support/extensions.hpp"

#include <algorithm>
#include <cassert>
#include <numeric>

namespace mvs::core {

namespace {

/// Shared incremental scheduler state for the extension passes.
struct PassState {
  std::vector<double> latency;            // L_i
  std::vector<std::vector<int>> counts;   // per camera, per size class

  explicit PassState(const MvsProblem& p) {
    latency.resize(p.camera_count());
    counts.resize(p.camera_count());
    for (std::size_t i = 0; i < p.camera_count(); ++i) {
      latency[i] = p.cameras[i].full_frame_ms();
      counts[i].assign(p.cameras[i].size_class_count(), 0);
    }
  }

  bool has_open_batch(const MvsProblem& p, int cam,
                      geom::SizeClassId s) const {
    const auto i = static_cast<std::size_t>(cam);
    const int limit = p.cameras[i].batch_limit(s);
    const int count = counts[i][static_cast<std::size_t>(s)];
    return count > 0 && count % limit != 0;
  }

  double open_batch_capacity(const MvsProblem& p, int cam,
                             geom::SizeClassId s) const {
    const auto i = static_cast<std::size_t>(cam);
    const int limit = p.cameras[i].batch_limit(s);
    const int fill = counts[i][static_cast<std::size_t>(s)] % limit;
    return static_cast<double>(limit - fill) / static_cast<double>(limit);
  }

  void place(const MvsProblem& p, int cam, geom::SizeClassId s,
             bool new_batch) {
    const auto i = static_cast<std::size_t>(cam);
    if (new_batch) latency[i] += p.cameras[i].batch_latency_ms(s);
    ++counts[i][static_cast<std::size_t>(s)];
  }
};

std::vector<std::size_t> coverage_ascending_order(const MvsProblem& p) {
  std::vector<std::size_t> order(p.object_count());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return p.objects[a].coverage.size() <
                            p.objects[b].coverage.size();
                   });
  return order;
}

}  // namespace

Assignment redundant_balb(const MvsProblem& problem,
                          const RedundancyOptions& options) {
  assert(options.coverage_k >= 1);
  Assignment result;
  result.x.assign(problem.camera_count(),
                  std::vector<char>(problem.object_count(), 0));
  PassState state(problem);
  const std::vector<std::size_t> order = coverage_ascending_order(problem);

  for (int round = 0; round < options.coverage_k; ++round) {
    for (std::size_t j : order) {
      const ObjectSpec& obj = problem.objects[j];
      // Candidates: covering cameras not yet tracking this object.
      std::vector<int> candidates;
      for (int cam : obj.coverage)
        if (!result.x[static_cast<std::size_t>(cam)][j])
          candidates.push_back(cam);
      if (candidates.empty()) continue;  // coverage exhausted below K

      // Batch reuse first (largest relative capacity), else min updated
      // latency — the same rule as Algorithm 1, over the shared state.
      int chosen = -1;
      double best_capacity = 0.0;
      for (int cam : candidates) {
        const geom::SizeClassId s =
            obj.size_class[static_cast<std::size_t>(cam)];
        if (!state.has_open_batch(problem, cam, s)) continue;
        const double capacity = state.open_batch_capacity(problem, cam, s);
        if (capacity > best_capacity) {
          best_capacity = capacity;
          chosen = cam;
        }
      }
      bool new_batch = false;
      if (chosen < 0) {
        double best = 0.0;
        for (int cam : candidates) {
          const auto i = static_cast<std::size_t>(cam);
          const geom::SizeClassId s = obj.size_class[i];
          const double updated =
              state.latency[i] + problem.cameras[i].batch_latency_ms(s);
          if (chosen < 0 || updated < best) {
            best = updated;
            chosen = cam;
          }
        }
        new_batch = true;
      }
      const auto i = static_cast<std::size_t>(chosen);
      result.x[i][j] = 1;
      state.place(problem, chosen, obj.size_class[i], new_batch);
    }
  }
  result.camera_latency = state.latency;
  return result;
}

Assignment quality_aware_balb(const MvsProblem& problem,
                              const std::vector<std::vector<double>>& quality,
                              const QualityOptions& options) {
  assert(quality.size() == problem.object_count());
  Assignment result;
  result.x.assign(problem.camera_count(),
                  std::vector<char>(problem.object_count(), 0));
  PassState state(problem);

  for (std::size_t j : coverage_ascending_order(problem)) {
    const ObjectSpec& obj = problem.objects[j];
    assert(!obj.coverage.empty());

    // Latency-after-inclusion per covering camera; zero marginal cost when a
    // batch is open.
    double best_updated = 0.0;
    bool first = true;
    std::vector<double> updated(obj.coverage.size());
    for (std::size_t k = 0; k < obj.coverage.size(); ++k) {
      const auto i = static_cast<std::size_t>(obj.coverage[k]);
      const geom::SizeClassId s = obj.size_class[i];
      const double marginal =
          state.has_open_batch(problem, obj.coverage[k], s)
              ? 0.0
              : problem.cameras[i].batch_latency_ms(s);
      updated[k] = state.latency[i] + marginal;
      if (first || updated[k] < best_updated) {
        best_updated = updated[k];
        first = false;
      }
    }

    // Among cameras within the slack band, maximize tracking quality.
    int chosen = -1;
    double best_quality = 0.0;
    for (std::size_t k = 0; k < obj.coverage.size(); ++k) {
      if (updated[k] > best_updated * (1.0 + options.latency_slack)) continue;
      const double q =
          quality[j][static_cast<std::size_t>(obj.coverage[k])];
      if (chosen < 0 || q > best_quality) {
        best_quality = q;
        chosen = obj.coverage[k];
      }
    }
    const auto i = static_cast<std::size_t>(chosen);
    const geom::SizeClassId s = obj.size_class[i];
    const bool new_batch = !state.has_open_batch(problem, chosen, s);
    result.x[i][j] = 1;
    state.place(problem, chosen, s, new_batch);
  }
  result.camera_latency = state.latency;
  return result;
}

double mean_assignment_quality(
    const MvsProblem& problem, const Assignment& assignment,
    const std::vector<std::vector<double>>& quality) {
  double total = 0.0;
  std::size_t pairs = 0;
  for (std::size_t j = 0; j < problem.object_count(); ++j) {
    for (std::size_t i = 0; i < problem.camera_count(); ++i) {
      if (!assignment.x[i][j]) continue;
      total += quality[j][i];
      ++pairs;
    }
  }
  return pairs ? total / static_cast<double>(pairs) : 0.0;
}

}  // namespace mvs::core
