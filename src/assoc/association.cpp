#include "assoc/association.hpp"

#include <algorithm>
#include <cassert>
#include <numeric>

#include "matching/hungarian.hpp"
#include "util/thread_pool.hpp"

namespace mvs::assoc {

ml::Feature box_feature(const geom::BBox& box, double frame_w,
                        double frame_h) {
  ml::Feature out;
  box_feature_into(box, frame_w, frame_h, out);
  return out;
}

void box_feature_into(const geom::BBox& box, double frame_w, double frame_h,
                      ml::Feature& out) {
  const geom::Vec2 c = box.center();
  out.resize(4);
  out[0] = c.x / frame_w;
  out[1] = c.y / frame_h;
  out[2] = box.w / frame_w;
  out[3] = box.h / frame_h;
}

geom::BBox feature_box(const ml::Feature& f, double frame_w, double frame_h) {
  assert(f.size() == 4);
  return geom::BBox::from_center({f[0] * frame_w, f[1] * frame_h},
                                 f[2] * frame_w, f[3] * frame_h);
}

namespace {

/// Features of every box on camera src, frame by frame: the inputs shared by
/// all pairs out of src.
std::vector<ml::Feature> source_features(
    const std::vector<sim::MultiFrame>& frames, std::size_t src_cam,
    double src_w, double src_h) {
  std::vector<ml::Feature> x;
  for (const sim::MultiFrame& frame : frames)
    for (const detect::GroundTruthObject& obj : frame.per_camera[src_cam])
      x.push_back(box_feature(obj.box, src_w, src_h));
  return x;
}

/// Labels `x` = source_features(src) against camera dst: fills
/// ds.present, ds.x_pos and ds.y_pos (ds.x is left alone).
void label_pair(const std::vector<sim::MultiFrame>& frames,
                std::size_t src_cam, std::size_t dst_cam, double dst_w,
                double dst_h, const std::vector<ml::Feature>& x,
                PairDataset& ds) {
  std::size_t row = 0;
  for (const sim::MultiFrame& frame : frames) {
    const auto& dst = frame.per_camera[dst_cam];
    for (const detect::GroundTruthObject& obj : frame.per_camera[src_cam]) {
      const detect::GroundTruthObject* match = nullptr;
      for (const detect::GroundTruthObject& cand : dst) {
        if (cand.id == obj.id) {
          match = &cand;
          break;
        }
      }
      ds.present.push_back(match ? 1 : 0);
      if (match) {
        ds.x_pos.push_back(x[row]);
        ds.y_pos.push_back(box_feature(match->box, dst_w, dst_h));
      }
      ++row;
    }
  }
}

/// Neighbours of `box` (a box on a frame_w x frame_h camera) in that
/// camera's index. Per-thread scratch, overwritten by the next call on the
/// same thread: presence queries run per detection pair on key frames, per
/// ghost per frame on pool workers and per cell at set-up, and must stay
/// allocation-free once warm (DESIGN.md §11).
const ml::Neighbours& search(const ml::KnnIndex& index, const geom::BBox& box,
                             double frame_w, double frame_h, int k) {
  thread_local ml::Feature feat;
  thread_local ml::Neighbours nn;
  box_feature_into(box, frame_w, frame_h, feat);
  index.search(feat, k, nn);
  return nn;
}

}  // namespace

PairDataset build_pair_dataset(const std::vector<sim::MultiFrame>& frames,
                               std::size_t src_cam, std::size_t dst_cam,
                               double src_w, double src_h, double dst_w,
                               double dst_h) {
  PairDataset ds;
  ds.x = source_features(frames, src_cam, src_w, src_h);
  label_pair(frames, src_cam, dst_cam, dst_w, dst_h, ds.x, ds);
  return ds;
}

CrossCameraAssociator::CrossCameraAssociator(
    std::vector<std::pair<double, double>> frame_sizes)
    : CrossCameraAssociator(std::move(frame_sizes), Config{}) {}

CrossCameraAssociator::CrossCameraAssociator(
    std::vector<std::pair<double, double>> frame_sizes, Config cfg)
    : cfg_(cfg), sizes_(std::move(frame_sizes)) {
  assert(!sizes_.empty());
  sources_.resize(sizes_.size());
  pairs_.resize(sizes_.size() * sizes_.size());
}

void CrossCameraAssociator::train(const std::vector<sim::MultiFrame>& frames,
                                  util::ThreadPool* pool) {
  const std::size_t m = sizes_.size();
  // Source i writes only sources_[i] and the pairs (i, *).
  auto train_source = [&](std::size_t i) {
    const std::vector<ml::Feature> x =
        source_features(frames, i, sizes_[i].first, sizes_[i].second);
    if (x.empty()) return;
    sources_[i].fit(x);
    for (std::size_t j = 0; j < m; ++j) {
      if (i == j) continue;
      PairDataset ds;
      label_pair(frames, i, j, sizes_[j].first, sizes_[j].second, x, ds);
      PairModels& models = pairs_[pair_index(i, j)];
      models.present = std::move(ds.present);
      if (ds.x_pos.size() >= 3) {
        models.reg = std::make_unique<ml::KnnRegressor>(cfg_.knn_k);
        models.reg->fit(ds.x_pos, ds.y_pos);
        models.has_positives = true;
      }
    }
  };
  if (pool) {
    pool->parallel_for_each(m, train_source);
  } else {
    for (std::size_t i = 0; i < m; ++i) train_source(i);
  }
  trained_ = true;
}

bool CrossCameraAssociator::predict_present(std::size_t src, std::size_t dst,
                                            const geom::BBox& box) const {
  const PairModels& models = pairs_[pair_index(src, dst)];
  if (!models.has_positives) return false;
  const ml::Neighbours& nn = search(sources_[src], box, sizes_[src].first,
                                    sizes_[src].second, cfg_.knn_k);
  return ml::knn_vote(nn, models.present) > 0.0;
}

void CrossCameraAssociator::present_on(std::size_t src, const geom::BBox& box,
                                       std::vector<char>& out) const {
  const std::size_t m = sizes_.size();
  out.assign(m, 0);
  out[src] = 1;
  if (sources_[src].empty()) return;
  const ml::Neighbours& nn = search(sources_[src], box, sizes_[src].first,
                                    sizes_[src].second, cfg_.knn_k);
  for (std::size_t dst = 0; dst < m; ++dst) {
    const PairModels& models = pairs_[pair_index(src, dst)];
    if (dst != src && models.has_positives)
      out[dst] = ml::knn_vote(nn, models.present) > 0.0 ? 1 : 0;
  }
}

geom::BBox CrossCameraAssociator::predict_box(std::size_t src, std::size_t dst,
                                              const geom::BBox& box) const {
  const PairModels& models = pairs_[pair_index(src, dst)];
  assert(models.reg);
  thread_local ml::Feature feat, pred;
  box_feature_into(box, sizes_[src].first, sizes_[src].second, feat);
  models.reg->predict_into(feat, pred);
  return feature_box(pred, sizes_[dst].first, sizes_[dst].second);
}

std::vector<AssociatedObject> CrossCameraAssociator::associate(
    const std::vector<std::vector<detect::Detection>>& detections,
    util::ThreadPool* pool) const {
  const std::size_t m = sizes_.size();
  assert(detections.size() == m);

  // Union-find over all (camera, detection) nodes.
  std::vector<std::size_t> offset(m + 1, 0);
  for (std::size_t i = 0; i < m; ++i)
    offset[i + 1] = offset[i] + detections[i].size();
  std::vector<std::size_t> parent(offset[m]);
  std::iota(parent.begin(), parent.end(), std::size_t{0});
  auto find = [&](std::size_t a) {
    while (parent[a] != a) {
      parent[a] = parent[parent[a]];
      a = parent[a];
    }
    return a;
  };
  auto unite = [&](std::size_t a, std::size_t b) {
    a = find(a);
    b = find(b);
    if (a != b) parent[b] = a;
  };

  // Pairwise matching, camera i against every camera behind it in the list.
  // Only pairs with positives and detections on both sides can match.
  struct PairMatch {
    std::size_t i = 0, j = 0;
    matching::AssignmentResult res;
  };
  std::vector<PairMatch> pairs;
  std::vector<std::size_t> sources;  // cameras with a pair ahead, ascending
  if (trained_) {
    for (std::size_t i = 0; i < m; ++i) {
      if (detections[i].empty()) continue;
      const std::size_t before = pairs.size();
      for (std::size_t j = i + 1; j < m; ++j)
        if (pairs_[pair_index(i, j)].has_positives && !detections[j].empty())
          pairs.push_back({i, j, {}});
      if (pairs.size() > before) sources.push_back(i);
    }
  }

  // One neighbour search per source detection answers its presence on every
  // destination: present[(offset[i] + a) * m + j] for detection a of i.
  std::vector<char> present(offset[m] * m, 0);
  auto search_source = [&](std::size_t s) {
    const std::size_t i = sources[s];
    std::vector<char> on;
    for (std::size_t a = 0; a < detections[i].size(); ++a) {
      present_on(i, detections[i][a].box, on);
      std::copy(on.begin(), on.end(),
                present.begin() +
                    static_cast<std::ptrdiff_t>((offset[i] + a) * m));
    }
  };
  // Each pair builds its own cost matrix and writes only its own result.
  auto match_pair = [&](std::size_t p) {
    PairMatch& pm = pairs[p];
    const auto& src = detections[pm.i];
    const auto& dst = detections[pm.j];
    std::vector<double> cost(src.size() * dst.size(),
                             matching::kForbiddenCost);
    for (std::size_t a = 0; a < src.size(); ++a) {
      if (!present[(offset[pm.i] + a) * m + pm.j]) continue;
      const geom::BBox predicted = predict_box(pm.i, pm.j, src[a].box);
      for (std::size_t b = 0; b < dst.size(); ++b) {
        const double v = geom::iou(predicted, dst[b].box);
        if (v >= cfg_.min_match_iou) cost[a * dst.size() + b] = 1.0 - v;
      }
    }
    pm.res = matching::solve_assignment(cost, src.size(), dst.size());
  };
  if (pool) {
    pool->run_tiles(sources.size(), search_source);
    pool->run_tiles(pairs.size(), match_pair);
  } else {
    for (std::size_t s = 0; s < sources.size(); ++s) search_source(s);
    for (std::size_t p = 0; p < pairs.size(); ++p) match_pair(p);
  }

  // Unions in (i, j) order, as a serial pair loop would apply them: the
  // components, and so the objects' order, do not depend on the pool.
  for (const PairMatch& pm : pairs) {
    for (std::size_t a = 0; a < detections[pm.i].size(); ++a) {
      if (pm.res.row_to_col[a] >= 0)
        unite(offset[pm.i] + a,
              offset[pm.j] + static_cast<std::size_t>(pm.res.row_to_col[a]));
    }
  }

  // Collect components. A component may legitimately contain at most one
  // detection per camera; if matching merged two (rare model error), keep
  // the first and leave the other as its own object.
  std::vector<AssociatedObject> objects;
  std::vector<int> component_of(offset[m], -1);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t d = 0; d < detections[i].size(); ++d) {
      const std::size_t node = offset[i] + d;
      const std::size_t root = find(node);
      int comp = component_of[root];
      if (comp < 0 ||
          objects[static_cast<std::size_t>(comp)].det_index[i] >= 0) {
        comp = static_cast<int>(objects.size());
        if (component_of[root] < 0) component_of[root] = comp;
        objects.push_back(AssociatedObject{
            std::vector<int>(m, -1), std::vector<geom::BBox>(m)});
      }
      AssociatedObject& obj = objects[static_cast<std::size_t>(comp)];
      obj.det_index[i] = static_cast<int>(d);
      obj.boxes[i] = detections[i][d].box;
    }
  }
  return objects;
}

}  // namespace mvs::assoc
