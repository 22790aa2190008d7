#include "policy/features.hpp"

#include <algorithm>
#include <cmath>

namespace mvs::policy {

const std::array<const char*, kFeatureCount> kFeatureNames = {
    "frames_since_detect", "drift_px",    "residual",
    "confidence",          "churn",       "track_count",
    "demand_share",        "unexplained_motion", "track_deficit"};

std::array<double, kFeatureCount> CameraFeatures::to_array() const {
  return {frames_since_detect, drift_px,    residual,     confidence,
          churn,               track_count, demand_share, unexplained_motion,
          track_deficit};
}

std::vector<double> CameraFeatures::to_vector() const {
  const std::array<double, kFeatureCount> a = to_array();
  return {a.begin(), a.end()};
}

void CameraFeatureState::note_detect(double mean_score, int churn_events,
                                     int tracks) {
  frames_since_detect = 0;
  accum_drift_px = 0.0;
  confidence_at_detect = mean_score;
  churn_at_detect = churn_events;
  tracks_at_detect = tracks;
  track_baseline = std::max(track_baseline, tracks);
}

CameraFeatures CameraFeatureState::features(std::size_t track_count,
                                            double residual,
                                            double unexplained_motion) const {
  CameraFeatures f;
  f.frames_since_detect = static_cast<double>(frames_since_detect);
  f.drift_px = accum_drift_px;
  f.residual = residual;
  f.confidence = confidence_at_detect *
                 std::pow(kConfidenceDecay,
                          static_cast<double>(frames_since_detect));
  f.churn = static_cast<double>(churn_at_detect) /
            static_cast<double>(std::max(1, tracks_at_detect));
  f.track_count = static_cast<double>(track_count);
  f.demand_share = demand_share;
  f.unexplained_motion = unexplained_motion;
  const int live = static_cast<int>(track_count);
  f.track_deficit =
      static_cast<double>(std::max(0, track_baseline - live)) /
      static_cast<double>(std::max(1, track_baseline));
  return f;
}

double mean_track_motion_px(const vision::FlowField& field,
                            std::span<const geom::BBox> boxes, double scale) {
  if (boxes.empty() || scale <= 0.0) return 0.0;
  double acc = 0.0;
  for (const geom::BBox& box : boxes) {
    const geom::BBox scaled{box.x / scale, box.y / scale, box.w / scale,
                            box.h / scale};
    const geom::Vec2 motion = vision::median_flow_in(field, scaled);
    acc += std::hypot(motion.x, motion.y) * scale;
  }
  return acc / static_cast<double>(boxes.size());
}

double normalized_residual(const vision::FlowField& field) {
  if (field.residual.empty()) return 0.0;
  double acc = 0.0;
  for (double r : field.residual) acc += r;
  const double worst = static_cast<double>(field.block_size) *
                       static_cast<double>(field.block_size) * 255.0;
  return acc / (static_cast<double>(field.residual.size()) * worst);
}

double unexplained_motion_fraction(const vision::FlowField& field,
                                   const std::vector<geom::BBox>& explained,
                                   double scale, double motion_threshold) {
  if (field.cols <= 0 || field.rows <= 0) return 0.0;
  // Explained boxes are scaled into flow-field coordinates per moving block
  // rather than into a copied vector: this runs per camera per regular frame
  // and must not allocate (DESIGN.md §11).
  const double inv = scale > 0.0 ? 1.0 / scale : 1.0;
  const double half = static_cast<double>(field.block_size) / 2.0;
  std::size_t unexplained = 0;
  for (int r = 0; r < field.rows; ++r) {
    for (int c = 0; c < field.cols; ++c) {
      const geom::Vec2& v = field.at(c, r);
      if (std::hypot(v.x, v.y) < motion_threshold) continue;
      const double cx = c * field.block_size + half;
      const double cy = r * field.block_size + half;
      bool inside = false;
      for (const geom::BBox& e : explained) {
        const geom::BBox b{e.x * inv, e.y * inv, e.w * inv, e.h * inv};
        if (cx >= b.x && cx <= b.x + b.w && cy >= b.y && cy <= b.y + b.h) {
          inside = true;
          break;
        }
      }
      if (!inside) ++unexplained;
    }
  }
  const std::size_t blocks =
      static_cast<std::size_t>(field.cols) * static_cast<std::size_t>(field.rows);
  return static_cast<double>(unexplained) / static_cast<double>(blocks);
}

}  // namespace mvs::policy
