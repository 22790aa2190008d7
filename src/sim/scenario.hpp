#pragma once
// Deployment scenarios mirroring the paper's three AIC21 configurations
// (Sec. IV-A2, Table I):
//   S1 — 5 cameras around a signalized traffic intersection (regular,
//        light-induced traffic patterns); 2x Xavier, 2x TX2, 1x Nano.
//   S2 — 2 cameras at a residential roadside with sparse vehicles;
//        1x Xavier, 1x Nano.
//   S3 — 3 cameras: 2 on a busy fork road, 1 facing a roadside;
//        1x Xavier, 1x TX2, 1x Nano.

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "gpu/device_profile.hpp"
#include "sim/camera_model.hpp"
#include "sim/occlusion.hpp"
#include "sim/world.hpp"

namespace mvs::sim {

struct ScenarioCamera {
  std::string name;
  CameraModel model;
  gpu::DeviceProfile device;
};

/// Day/night detection-quality shift: a square wave on world time with
/// `period_s` of day followed by `period_s` of night. During the night
/// phase the simulated detector's base miss rate is raised by
/// `night_miss_boost` and its mean score lowered by `night_score_drop`
/// (the pipeline swaps detector configs at phase flips). Off by default —
/// the schedule never perturbs existing scenarios.
struct QualitySchedule {
  bool enabled = false;
  double period_s = 120.0;
  double night_miss_boost = 0.25;
  double night_score_drop = 0.15;

  /// Is world time t in the night half of the cycle?
  bool is_night(double t) const;
};

struct Scenario {
  std::string name;
  double fps = 10.0;
  /// Logical frame size is CameraModel::width/height (1280 x 704, as the
  /// paper uses); pixel rendering and optical flow run at logical/render_scale
  /// resolution, as real deployments compute flow on downscaled frames.
  double render_scale = 4.0;
  std::vector<ScenarioCamera> cameras;
  std::unique_ptr<World> world;
  /// Dynamic inter-object occlusion (paper Sec. V). Off by default so the
  /// headline reproductions match the paper's setup; the occlusion
  /// extension bench turns it on.
  OcclusionConfig occlusion{0.6, false};
  /// Day/night detection-quality schedule (city scenarios; off elsewhere).
  QualitySchedule quality;
  /// Scenario-required warmup override (seconds of world simulation before
  /// the first frame). Negative = no opinion: the consumer's own default
  /// applies (ScenarioPlayer 60 s, the pipeline 45 s). City grids set this —
  /// their corridors are hundreds of meters long and need the extra time to
  /// fill with through traffic.
  double warmup_s = -1.0;
};

Scenario make_s1(std::uint64_t seed = 1);
Scenario make_s2(std::uint64_t seed = 2);
Scenario make_s3(std::uint64_t seed = 3);

/// City-scale camera grid (ISSUE: 50-100 cameras with sparse pairwise
/// overlap). The scene is a boulevard grid: parallel east-west corridors
/// with two-way through traffic, one camera pole per block all facing east,
/// so consecutive cameras' road coverage barely touches (coverage ~half the
/// block, then a blind gap until the next pole). Optional flash-crowd
/// arrival bursts and a day/night detection-quality schedule ride along.
struct CityConfig {
  int cameras = 50;             ///< total cameras (row-major over the grid)
  double block_m = 80.0;        ///< pole spacing along a corridor
  double rate_per_s = 0.03;     ///< Poisson arrivals per corridor direction
  double camera_depth_m = 85.0; ///< per-camera max view depth
  /// Flash crowd: all arrival rates multiply by `flash_multiplier` during
  /// [flash_at_s, flash_at_s + flash_duration_s) of EVALUATION time
  /// (warmup excluded). flash_at_s < 0 disables.
  double flash_at_s = -1.0;
  double flash_duration_s = 30.0;
  double flash_multiplier = 4.0;
  /// Day/night quality shift (see QualitySchedule).
  bool day_night = false;
  double night_period_s = 120.0;
  double night_miss_boost = 0.25;
};

Scenario make_city(const CityConfig& config, std::uint64_t seed);

/// Canonical scenario-name encoding of a city config ("city:cams=50;...").
/// Round-trips exactly through parse_city_name, so the whole string-named
/// scenario plumbing (pipeline, fleet sessions, CLI) works unchanged for
/// city grids.
std::string city_scenario_name(const CityConfig& config);

/// Decode a city scenario name; nullopt when `name` is not a city name, is
/// malformed, or holds a value the config's "city" block rejects (a
/// non-finite number or one out of its field's range). The bare name
/// "city" yields the default CityConfig.
std::optional<CityConfig> parse_city_name(const std::string& name);

/// Scenario factory by name ("S1" | "S2" | "S3" | "city[:...]").
Scenario make_scenario(const std::string& name, std::uint64_t seed);

}  // namespace mvs::sim
