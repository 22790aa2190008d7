#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "assoc/association.hpp"
#include "detect/simulated_detector.hpp"
#include "geometry/grid.hpp"
#include "matching/hungarian.hpp"
#include "metrics/metrics.hpp"
#include "runtime/oracles.hpp"
#include "sim/dataset.hpp"
#include "sim/scenario.hpp"
#include "util/thread_pool.hpp"

namespace mvs::assoc {
namespace {

TEST(BoxFeature, RoundTrip) {
  const geom::BBox box{100, 200, 50, 80};
  const ml::Feature f = box_feature(box, 1280, 704);
  EXPECT_NEAR(f[0], 125.0 / 1280.0, 1e-12);
  EXPECT_NEAR(f[2], 50.0 / 1280.0, 1e-12);
  const geom::BBox back = feature_box(f, 1280, 704);
  EXPECT_NEAR(back.x, box.x, 1e-9);
  EXPECT_NEAR(back.h, box.h, 1e-9);
}

class AssocFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    sim::ScenarioPlayer player(sim::make_s2(3), 60.0);
    train_ = player.take(200);
    test_ = player.take(100);
    std::vector<std::pair<double, double>> sizes;
    for (const sim::ScenarioCamera& cam : player.scenario().cameras)
      sizes.emplace_back(cam.model.width(), cam.model.height());
    associator_ = std::make_unique<CrossCameraAssociator>(sizes);
    associator_->train(train_);
  }

  std::vector<sim::MultiFrame> train_, test_;
  std::unique_ptr<CrossCameraAssociator> associator_;
};

TEST_F(AssocFixture, PairDatasetConsistent) {
  const PairDataset ds =
      build_pair_dataset(train_, 0, 1, 1280, 704, 1280, 704);
  EXPECT_EQ(ds.x.size(), ds.present.size());
  EXPECT_EQ(ds.x_pos.size(), ds.y_pos.size());
  std::size_t positives = 0;
  for (int p : ds.present) positives += static_cast<std::size_t>(p);
  EXPECT_EQ(positives, ds.x_pos.size());
  EXPECT_GT(ds.x.size(), 50u);
}

TEST_F(AssocFixture, ClassifierBeatsChanceOnHeldOut) {
  metrics::BinaryMetrics m;
  for (const sim::MultiFrame& frame : test_) {
    for (const detect::GroundTruthObject& obj : frame.per_camera[0]) {
      bool actual = false;
      for (const detect::GroundTruthObject& other : frame.per_camera[1])
        if (other.id == obj.id) actual = true;
      m.add(associator_->predict_present(0, 1, obj.box), actual);
    }
  }
  EXPECT_GT(m.total(), 50u);
  EXPECT_GT(m.precision(), 0.6);
  EXPECT_GT(m.recall(), 0.6);
}

TEST_F(AssocFixture, RegressionLandsNearTruth) {
  double total_iou = 0.0;
  std::size_t count = 0;
  for (const sim::MultiFrame& frame : test_) {
    for (const detect::GroundTruthObject& obj : frame.per_camera[0]) {
      for (const detect::GroundTruthObject& other : frame.per_camera[1]) {
        if (other.id != obj.id) continue;
        const geom::BBox pred = associator_->predict_box(0, 1, obj.box);
        total_iou += geom::iou(pred, other.box);
        ++count;
      }
    }
  }
  ASSERT_GT(count, 20u);
  EXPECT_GT(total_iou / static_cast<double>(count), 0.3);
}

TEST_F(AssocFixture, AssociateMergesCrossCameraDuplicates) {
  std::size_t merged = 0, frames_with_shared = 0;
  for (const sim::MultiFrame& frame : test_) {
    // Use ground truth as perfect detections.
    std::vector<std::vector<detect::Detection>> dets(2);
    std::map<std::uint64_t, int> seen_by;
    for (std::size_t c = 0; c < 2; ++c) {
      for (const detect::GroundTruthObject& obj : frame.per_camera[c]) {
        detect::Detection d;
        d.box = obj.box;
        d.truth_id = obj.id;
        d.score = 0.9;
        dets[c].push_back(d);
        ++seen_by[obj.id];
      }
    }
    bool has_shared = false;
    for (const auto& [id, n] : seen_by)
      if (n >= 2) has_shared = true;
    if (!has_shared) continue;
    ++frames_with_shared;

    const auto objects = associator_->associate(dets);
    for (const AssociatedObject& obj : objects) {
      int covered = 0;
      for (int det_index : obj.det_index) covered += (det_index >= 0);
      if (covered >= 2) ++merged;
    }
  }
  ASSERT_GT(frames_with_shared, 5u);
  EXPECT_GT(merged, frames_with_shared / 2);  // merging happens regularly
}

TEST_F(AssocFixture, AssociateKeepsEveryDetection) {
  for (int t = 0; t < 10; ++t) {
    const sim::MultiFrame& frame = test_[static_cast<std::size_t>(t * 5)];
    std::vector<std::vector<detect::Detection>> dets(2);
    std::size_t total = 0;
    for (std::size_t c = 0; c < 2; ++c) {
      for (const detect::GroundTruthObject& obj : frame.per_camera[c]) {
        detect::Detection d;
        d.box = obj.box;
        dets[c].push_back(d);
        ++total;
      }
    }
    const auto objects = associator_->associate(dets);
    std::size_t accounted = 0;
    for (const AssociatedObject& obj : objects)
      for (int det_index : obj.det_index) accounted += (det_index >= 0);
    EXPECT_EQ(accounted, total);  // no detection lost or duplicated
  }
}

TEST_F(AssocFixture, AssociateAtMostOneDetectionPerCamera) {
  for (const sim::MultiFrame& frame : test_) {
    std::vector<std::vector<detect::Detection>> dets(2);
    for (std::size_t c = 0; c < 2; ++c)
      for (const detect::GroundTruthObject& obj : frame.per_camera[c]) {
        detect::Detection d;
        d.box = obj.box;
        dets[c].push_back(d);
      }
    for (const AssociatedObject& obj : associator_->associate(dets)) {
      for (std::size_t c = 0; c < 2; ++c) {
        if (obj.det_index[c] >= 0) {
          EXPECT_LT(obj.det_index[c], static_cast<int>(dets[c].size()));
        }
      }
    }
  }
}

// ---- Equivalence with the per-pair classifiers ---------------------------
//
// The reference below is the association model as the paper states it: one
// KNN classifier and one KNN regressor per ordered camera pair, each fitted
// on that pair's build_pair_dataset. The associator must answer every
// presence query, and the cell oracles every cell, exactly as it does.

class PerPairReference {
 public:
  PerPairReference(const std::vector<sim::MultiFrame>& frames,
                   std::vector<std::pair<double, double>> sizes, int k)
      : sizes_(std::move(sizes)), m_(sizes_.size()), pairs_(m_ * m_) {
    for (std::size_t i = 0; i < m_; ++i) {
      for (std::size_t j = 0; j < m_; ++j) {
        if (i == j) continue;
        const PairDataset ds =
            build_pair_dataset(frames, i, j, sizes_[i].first, sizes_[i].second,
                               sizes_[j].first, sizes_[j].second);
        if (!ds.x.empty()) {
          pairs_[i * m_ + j].cls = std::make_unique<ml::KnnClassifier>(k);
          pairs_[i * m_ + j].cls->fit(ds.x, ds.present);
        }
        if (ds.x_pos.size() >= 3) {
          pairs_[i * m_ + j].reg = std::make_unique<ml::KnnRegressor>(k);
          pairs_[i * m_ + j].reg->fit(ds.x_pos, ds.y_pos);
        }
      }
    }
  }

  bool present(std::size_t src, std::size_t dst, const geom::BBox& box) const {
    const Pair& p = pairs_[src * m_ + dst];
    if (!p.cls || !p.reg) return false;
    return p.cls->predict(
        box_feature(box, sizes_[src].first, sizes_[src].second));
  }

  std::vector<int> coverage(int cam, geom::Vec2 center) const {
    std::vector<int> cover;
    for (std::size_t c = 0; c < m_; ++c)
      if (static_cast<int>(c) == cam ||
          present(static_cast<std::size_t>(cam), c, probe(center)))
        cover.push_back(static_cast<int>(c));
    return cover;
  }

  /// The region-key oracle's arithmetic: the probe mapped onto the lowest
  /// covering camera and quantized to 64-px cells there.
  std::uint64_t region_key(int cam, geom::Vec2 center) const {
    const int canonical = coverage(cam, center).front();
    geom::Vec2 canon_center = center;
    if (canonical != cam) {
      const auto src = static_cast<std::size_t>(cam);
      const auto dst = static_cast<std::size_t>(canonical);
      const ml::Feature mapped = pairs_[src * m_ + dst].reg->predict(
          box_feature(probe(center), sizes_[src].first, sizes_[src].second));
      canon_center =
          feature_box(mapped, sizes_[dst].first, sizes_[dst].second).center();
    }
    const auto qx = static_cast<std::int64_t>(canon_center.x / 64.0);
    const auto qy = static_cast<std::int64_t>(canon_center.y / 64.0);
    return static_cast<std::uint64_t>(canonical) * 0x100000000ULL ^
           (static_cast<std::uint64_t>(qy & 0xFFFF) << 16) ^
           static_cast<std::uint64_t>(qx & 0xFFFF);
  }

 private:
  struct Pair {
    std::unique_ptr<ml::KnnClassifier> cls;
    std::unique_ptr<ml::KnnRegressor> reg;
  };

  static geom::BBox probe(geom::Vec2 center) {
    return geom::BBox::from_center(center, runtime::kProbeBoxSide,
                                   runtime::kProbeBoxSide);
  }

  std::vector<std::pair<double, double>> sizes_;
  std::size_t m_;
  std::vector<Pair> pairs_;
};

std::string city12_name() {
  sim::CityConfig city;
  city.cameras = 12;
  return sim::city_scenario_name(city);
}

class PerPairEquivalence : public ::testing::TestWithParam<std::string> {
 protected:
  void SetUp() override {
    sim::ScenarioPlayer player(sim::make_scenario(GetParam(), 42), 45.0);
    frames_ = player.take(120);
    for (const sim::ScenarioCamera& cam : player.scenario().cameras)
      sizes_.emplace_back(cam.model.width(), cam.model.height());
    associator_ = std::make_unique<CrossCameraAssociator>(sizes_);
    associator_->train(frames_);
    reference_ = std::make_unique<PerPairReference>(
        frames_, sizes_, associator_->config().knn_k);
  }

  /// Every training box of camera `cam` (where the box's own label, at
  /// distance zero, outweighs its neighbours), plus probe boxes on a grid
  /// over its frame in three sizes.
  std::vector<geom::BBox> probe_boxes(std::size_t cam) const {
    std::vector<geom::BBox> boxes;
    for (const sim::MultiFrame& frame : frames_)
      for (const detect::GroundTruthObject& obj : frame.per_camera[cam])
        boxes.push_back(obj.box);
    for (double y = 40.0; y < sizes_[cam].second; y += 110.0)
      for (double x = 40.0; x < sizes_[cam].first; x += 110.0)
        for (const auto& [w, h] : {std::pair{64.0, 64.0},
                                   std::pair{140.0, 90.0},
                                   std::pair{24.0, 40.0}})
          boxes.push_back(geom::BBox::from_center({x, y}, w, h));
    return boxes;
  }

  std::vector<sim::MultiFrame> frames_;
  std::vector<std::pair<double, double>> sizes_;
  std::unique_ptr<CrossCameraAssociator> associator_;
  std::unique_ptr<PerPairReference> reference_;
};

TEST_P(PerPairEquivalence, PresenceMatchesPerPairClassifiers) {
  const std::size_t m = sizes_.size();
  std::size_t queries = 0, positives = 0, mismatches = 0;
  std::vector<char> on;
  for (std::size_t src = 0; src < m; ++src) {
    for (const geom::BBox& box : probe_boxes(src)) {
      associator_->present_on(src, box, on);
      ASSERT_EQ(on.size(), m);
      EXPECT_EQ(on[src], 1);
      for (std::size_t dst = 0; dst < m; ++dst) {
        if (dst == src) continue;
        const bool want = reference_->present(src, dst, box);
        const bool got = associator_->predict_present(src, dst, box);
        ++queries;
        positives += want ? 1 : 0;
        if ((got != want || (on[dst] != 0) != want) && mismatches++ == 0)
          ADD_FAILURE() << "pair " << src << "->" << dst << " box ("
                        << box.x << ", " << box.y << ", " << box.w << ", "
                        << box.h << "): reference " << want
                        << ", predict_present " << got << ", present_on "
                        << int{on[dst]};
      }
    }
  }
  EXPECT_EQ(mismatches, 0u) << "of " << queries << " queries";
  EXPECT_GT(positives, 0u);
  EXPECT_LT(positives, queries);
}

TEST_P(PerPairEquivalence, CellOraclesMatchTwoCallOracle) {
  // The pipeline's set-up: train, then fill the cell caches, both on one
  // shared pool. Serial calls and the pooled caches must both match.
  util::ThreadPool pool(4);
  CrossCameraAssociator pooled(sizes_);
  pooled.train(frames_, &pool);
  const std::vector<runtime::CellCache> caches =
      runtime::build_cell_caches(pooled, sizes_, 64, pool);
  ASSERT_EQ(caches.size(), sizes_.size());
  std::size_t cells = 0, shared = 0;
  for (std::size_t cam = 0; cam < sizes_.size(); ++cam) {
    const runtime::CellCache& cache = caches[cam];
    const int c = static_cast<int>(cam);
    for (int r = 0; r < cache.grid.rows(); ++r) {
      for (int col = 0; col < cache.grid.cols(); ++col) {
        const geom::Vec2 center = cache.grid.cell_box({col, r}).center();
        const std::size_t flat = cache.grid.flat({col, r});
        const std::vector<int> want = reference_->coverage(c, center);
        const std::uint64_t want_key = reference_->region_key(c, center);
        const std::vector<int> cover =
            runtime::coverage_of(*associator_, c, center);
        ASSERT_EQ(cover, want) << "cam " << c << " cell " << col << "," << r;
        ASSERT_EQ(runtime::region_key_of(*associator_, c, center, cover),
                  want_key)
            << "cam " << c << " cell " << col << "," << r;
        ASSERT_EQ(cache.coverage[flat], want);
        ASSERT_EQ(cache.region_key[flat], want_key);
        ++cells;
        shared += want.size() > 1 ? 1 : 0;
      }
    }
  }
  EXPECT_GT(cells, 0u);
  EXPECT_GT(shared, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Scenarios, PerPairEquivalence,
    ::testing::Values(std::string("S1"), std::string("S2"), std::string("S3"),
                      city12_name()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return info.param.rfind("city", 0) == 0 ? std::string("City12")
                                              : info.param;
    });

// ---- associate() against the per-pair matching loop -----------------------
//
// The reference is associate() as a loop over the pairs (i, j > i): one
// predict_present and one predict_box per (detection, pair), a Hungarian
// solve per pair, and each pair's unions applied as its solve finishes. The
// associator must produce the same objects, detection for detection.

std::vector<AssociatedObject> associate_per_pair(
    const CrossCameraAssociator& assoc,
    const std::vector<std::vector<detect::Detection>>& detections) {
  const std::size_t m = assoc.camera_count();

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

  // A pair without positives answers "absent" to every predict_present, so
  // its matrix is all forbidden and it unites nothing: no skip is needed.
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = i + 1; j < m; ++j) {
      if (!assoc.trained()) continue;
      const auto& src = detections[i];
      const auto& dst = detections[j];
      if (src.empty() || dst.empty()) continue;

      std::vector<double> cost(src.size() * dst.size(),
                               matching::kForbiddenCost);
      for (std::size_t a = 0; a < src.size(); ++a) {
        if (!assoc.predict_present(i, j, src[a].box)) continue;
        const geom::BBox predicted = assoc.predict_box(i, j, src[a].box);
        for (std::size_t b = 0; b < dst.size(); ++b) {
          const double v = geom::iou(predicted, dst[b].box);
          if (v >= assoc.config().min_match_iou)
            cost[a * dst.size() + b] = 1.0 - v;
        }
      }
      const matching::AssignmentResult res =
          matching::solve_assignment(cost, src.size(), dst.size());
      for (std::size_t a = 0; a < src.size(); ++a) {
        if (res.row_to_col[a] >= 0)
          unite(offset[i] + a,
                offset[j] + static_cast<std::size_t>(res.row_to_col[a]));
      }
    }
  }

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

/// Equal object lists: same order, same detection per camera, same boxes
/// bit for bit.
void expect_same_objects(const std::vector<AssociatedObject>& want,
                         const std::vector<AssociatedObject>& got,
                         const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t o = 0; o < want.size(); ++o) {
    ASSERT_EQ(got[o].det_index, want[o].det_index) << what << " object " << o;
    for (std::size_t c = 0; c < want[o].boxes.size(); ++c) {
      if (want[o].det_index[c] < 0) continue;
      const geom::BBox& a = want[o].boxes[c];
      const geom::BBox& b = got[o].boxes[c];
      EXPECT_TRUE(a.x == b.x && a.y == b.y && a.w == b.w && a.h == b.h)
          << what << " object " << o << " camera " << c;
    }
  }
}

class AssociateReference : public ::testing::TestWithParam<std::string> {};

TEST_P(AssociateReference, PooledAndSerialMatchPerPairLoop) {
  sim::ScenarioPlayer player(sim::make_scenario(GetParam(), 42), 45.0);
  const std::vector<sim::MultiFrame> training = player.take(150);
  std::vector<std::pair<double, double>> sizes;
  for (const sim::ScenarioCamera& cam : player.scenario().cameras)
    sizes.emplace_back(cam.model.width(), cam.model.height());
  const std::size_t m = sizes.size();
  CrossCameraAssociator assoc(sizes);
  assoc.train(training);

  // Full-frame detections as the pipeline's key frames see them: missed
  // objects, noised boxes and false positives.
  const detect::SimulatedDetector detector;
  util::Rng rng(42);
  util::ThreadPool pool(4);
  std::size_t frames = 0, merged = 0;
  for (const sim::MultiFrame& mf : player.take(120)) {
    std::vector<std::vector<detect::Detection>> dets(m);
    for (std::size_t i = 0; i < m; ++i)
      dets[i] = detector.detect_full(mf.per_camera[i], sizes[i].first,
                                     sizes[i].second, rng);
    const std::vector<AssociatedObject> want = associate_per_pair(assoc, dets);
    const std::string what = "frame " + std::to_string(mf.frame_index);
    expect_same_objects(want, assoc.associate(dets), what + " serial");
    expect_same_objects(want, assoc.associate(dets, &pool), what + " pooled");
    ++frames;
    for (const AssociatedObject& obj : want) {
      int covered = 0;
      for (int d : obj.det_index) covered += (d >= 0);
      merged += covered >= 2 ? 1 : 0;
    }
  }
  EXPECT_EQ(frames, 120u);
  EXPECT_GT(merged, 0u);  // the comparison covers real cross-camera merges
}

INSTANTIATE_TEST_SUITE_P(
    Scenarios, AssociateReference,
    ::testing::Values(std::string("S1"), std::string("S2"), std::string("S3"),
                      city12_name()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return info.param.rfind("city", 0) == 0 ? std::string("City12")
                                              : info.param;
    });

TEST(Associator, UntrainedNeverClaimsPresence) {
  CrossCameraAssociator assoc({{1280, 704}, {1280, 704}});
  EXPECT_FALSE(assoc.trained());
  EXPECT_FALSE(assoc.predict_present(0, 1, {100, 100, 50, 50}));
}

TEST(Associator, EmptyDetectionsYieldNoObjects) {
  CrossCameraAssociator assoc({{1280, 704}, {1280, 704}});
  const auto objects = assoc.associate({{}, {}});
  EXPECT_TRUE(objects.empty());
}

}  // namespace
}  // namespace mvs::assoc
