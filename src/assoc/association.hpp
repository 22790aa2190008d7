#pragma once
// Cross-camera object association (paper Sec. II-C).
//
// For every ordered camera pair (i, i') a KNN *classification* model decides
// whether an object detected on camera i also appears on camera i', and a
// KNN *regression* model predicts where. Predicted locations are matched to
// the actual detections on i' with the Hungarian algorithm on IoU
// proximity; matches above a threshold merge into one physical object.
// Both models are trained offline from labelled synchronized frames — in
// this reproduction, ground truth from the world simulator plays the role
// of the human association labels.
//
// Every pair out of camera i trains on the same inputs (camera i's boxes),
// so the classifiers of those pairs share one scaled KNN index per source
// camera and differ only in their labels: one neighbour search answers
// "which cameras also see this box" for every destination at once
// (present_on), with the votes each per-pair classifier would cast.

#include <cstdint>
#include <memory>
#include <vector>

#include "detect/detection.hpp"
#include "geometry/bbox.hpp"
#include "ml/knn.hpp"
#include "sim/dataset.hpp"

namespace mvs::util {
class ThreadPool;
}

namespace mvs::assoc {

/// Training/evaluation dataset for one ordered camera pair.
struct PairDataset {
  std::vector<ml::Feature> x;       ///< source box features (all samples)
  std::vector<int> present;         ///< 1 iff the object appears on dst
  std::vector<ml::Feature> x_pos;   ///< subset of x where present == 1
  std::vector<ml::Feature> y_pos;   ///< dst box features for that subset
};

/// Normalized box feature [cx/W, cy/H, w/W, h/H].
ml::Feature box_feature(const geom::BBox& box, double frame_w, double frame_h);

/// box_feature into a caller-owned feature (resized in place) — the
/// per-frame predict_present path reuses one scratch feature per thread.
void box_feature_into(const geom::BBox& box, double frame_w, double frame_h,
                      ml::Feature& out);

/// Invert box_feature.
geom::BBox feature_box(const ml::Feature& f, double frame_w, double frame_h);

/// Extract the (src -> dst) supervision pairs from synchronized ground-truth
/// frames.
PairDataset build_pair_dataset(const std::vector<sim::MultiFrame>& frames,
                               std::size_t src_cam, std::size_t dst_cam,
                               double src_w, double src_h, double dst_w,
                               double dst_h);

/// One physical object as seen by the camera set.
struct AssociatedObject {
  /// det_index[i] = index into camera i's detection list, or -1 when the
  /// object is not detected there. Cameras with det_index >= 0 form the
  /// observed coverage set.
  std::vector<int> det_index;
  std::vector<geom::BBox> boxes;  ///< valid where det_index[i] >= 0
};

class CrossCameraAssociator {
 public:
  struct Config {
    int knn_k = 5;
    double min_match_iou = 0.15;  ///< proximity threshold for Hungarian match
  };

  /// frame_sizes[i] = {width, height} of camera i.
  explicit CrossCameraAssociator(
      std::vector<std::pair<double, double>> frame_sizes);
  CrossCameraAssociator(std::vector<std::pair<double, double>> frame_sizes,
                        Config cfg);

  /// Train all ordered-pair models from labelled frames. With a pool, the
  /// source cameras train in parallel; each writes only its own models, so
  /// the result does not depend on the pool.
  void train(const std::vector<sim::MultiFrame>& frames,
             util::ThreadPool* pool = nullptr);
  bool trained() const { return trained_; }

  std::size_t camera_count() const { return sizes_.size(); }

  /// Does an object at `box` on camera src (probably) appear on camera dst?
  bool predict_present(std::size_t src, std::size_t dst,
                       const geom::BBox& box) const;

  /// predict_present for every destination from one neighbour search:
  /// out[dst] != 0 iff predict_present(src, dst, box), and out[src] = 1.
  /// `out` is resized to camera_count().
  void present_on(std::size_t src, const geom::BBox& box,
                  std::vector<char>& out) const;

  /// Predicted box of the object on camera dst.
  geom::BBox predict_box(std::size_t src, std::size_t dst,
                         const geom::BBox& box) const;

  /// Associate per-camera detection lists into physical objects
  /// (union-find over pairwise Hungarian matches). Each source detection
  /// gets one presence search (present_on) for all its pairs. With a pool,
  /// the searches fan out per source camera and the pairs' cost matrices
  /// and solves per pair; the unions then apply in pair order, so the
  /// objects do not depend on the pool.
  std::vector<AssociatedObject> associate(
      const std::vector<std::vector<detect::Detection>>& detections,
      util::ThreadPool* pool = nullptr) const;

  const Config& config() const { return cfg_; }

 private:
  /// One ordered pair's models. The classifier is the source camera's
  /// index voting `present`; the pair answers "absent" unless it has the
  /// positives to fit its regressor.
  struct PairModels {
    std::vector<int> present;  ///< label per source-index row
    std::unique_ptr<ml::KnnRegressor> reg;
    bool has_positives = false;
  };

  std::size_t pair_index(std::size_t src, std::size_t dst) const {
    return src * sizes_.size() + dst;
  }

  Config cfg_{};
  std::vector<std::pair<double, double>> sizes_;
  /// Per source camera; empty when that camera had no training boxes.
  std::vector<ml::KnnIndex> sources_;
  std::vector<PairModels> pairs_;  ///< dense M x M (diagonal unused)
  bool trained_ = false;
};

}  // namespace mvs::assoc
