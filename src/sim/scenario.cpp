#include "sim/scenario.hpp"

#include <algorithm>
#include <cassert>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <iterator>
#include <stdexcept>
#include <string_view>

namespace mvs::sim {

bool QualitySchedule::is_night(double t) const {
  if (!enabled || period_s <= 0.0) return false;
  return std::fmod(t, 2.0 * period_s) >= period_s;
}

namespace {

CameraModel make_camera(Vec3 pos, double yaw_deg, double pitch_deg,
                        double focal = 900.0, double max_depth = 120.0) {
  CameraModel::Config cfg;
  cfg.position = pos;
  cfg.yaw_deg = yaw_deg;
  cfg.pitch_deg = pitch_deg;
  cfg.focal_px = focal;
  cfg.max_depth_m = max_depth;
  return CameraModel(cfg);
}

}  // namespace

Scenario make_s1(std::uint64_t seed) {
  // Signalized intersection at the origin; approaches along +/-x and +/-y.
  // Phase group 0 = east-west green, group 1 = north-south green.
  std::vector<Route> routes;
  auto add_road = [&](geom::Vec2 from, geom::Vec2 to, int phase) {
    Route r({from, to}, 11.0);
    r.stop_line_s = 68.0;  // 12 m before the 80 m mark (the crossing)
    r.phase_group = phase;
    routes.push_back(std::move(r));
  };
  add_road({-80.0, -2.0}, {80.0, -2.0}, 0);   // eastbound
  add_road({80.0, 2.0}, {-80.0, 2.0}, 0);     // westbound
  add_road({2.0, -80.0}, {2.0, 80.0}, 1);     // northbound
  add_road({-2.0, 80.0}, {-2.0, -80.0}, 1);   // southbound

  std::vector<TrafficStream> streams;
  for (int r = 0; r < 4; ++r) streams.push_back({r, 0.22, {0.8, 0.92, 0.97, 1.0}});

  LightSchedule lights;
  lights.green_s = 12.0;
  lights.all_red_s = 2.0;

  Scenario s;
  s.name = "S1";
  s.world = std::make_unique<World>(std::move(routes), std::move(streams),
                                    lights, seed);
  // Five cameras: four corner poles facing the intersection diagonally and
  // one overview pole. View angles differ by 90/180 degrees as in Fig. 1.
  // Poles are set back from the roads so projected boxes stay in the
  // 64-256 px range typical of pole-mounted traffic cameras.
  s.cameras.push_back({"c1", make_camera({22, 22, 9}, 225, -16, 750.0, 70.0), gpu::jetson_xavier()});
  s.cameras.push_back({"c2", make_camera({-22, 22, 9}, -45, -16, 750.0, 70.0), gpu::jetson_xavier()});
  s.cameras.push_back({"c3", make_camera({-22, -22, 9}, 45, -16, 750.0, 70.0), gpu::jetson_tx2()});
  s.cameras.push_back({"c4", make_camera({22, -22, 9}, 135, -16, 750.0, 70.0), gpu::jetson_tx2()});
  s.cameras.push_back({"c5", make_camera({-30, -30, 12}, 45, -18, 650.0, 65.0), gpu::jetson_nano()});
  return s;
}

Scenario make_s2(std::uint64_t seed) {
  // Straight residential road with sparse two-way traffic.
  std::vector<Route> routes;
  routes.emplace_back(std::vector<geom::Vec2>{{-90.0, -2.0}, {90.0, -2.0}}, 9.0);
  routes.emplace_back(std::vector<geom::Vec2>{{90.0, 2.0}, {-90.0, 2.0}}, 9.0);
  // Occasional pedestrians on a sidewalk path.
  routes.emplace_back(std::vector<geom::Vec2>{{-60.0, 6.0}, {60.0, 6.0}}, 1.4);

  std::vector<TrafficStream> streams = {
      {0, 0.05, {0.85, 0.95, 0.98, 1.0}},
      {1, 0.05, {0.85, 0.95, 0.98, 1.0}},
      {2, 0.02, {0.0, 0.0, 0.0, 1.0}},  // persons only
  };

  Scenario s;
  s.name = "S2";
  s.world = std::make_unique<World>(std::move(routes), std::move(streams),
                                    LightSchedule{}, seed);
  // Two roadside poles with strongly overlapping views of the mid segment,
  // set back enough that vehicles stay small (the Nano rarely needs the
  // expensive large input sizes).
  s.cameras.push_back({"c1", make_camera({-15, -22, 9}, 60, -16, 520.0), gpu::jetson_xavier()});
  s.cameras.push_back({"c2", make_camera({15, -22, 9}, 120, -16, 520.0), gpu::jetson_nano()});
  return s;
}

Scenario make_s3(std::uint64_t seed) {
  // Busy fork road: a trunk from the west splits into NE and SE branches;
  // a third roadside path crosses near the SE branch.
  std::vector<Route> routes;
  routes.emplace_back(
      std::vector<geom::Vec2>{{-80.0, -1.5}, {0.0, -1.5}, {55.0, 35.0}}, 10.0);
  routes.emplace_back(
      std::vector<geom::Vec2>{{-80.0, 1.5}, {0.0, 1.5}, {55.0, -35.0}}, 10.0);
  routes.emplace_back(std::vector<geom::Vec2>{{30.0, -55.0}, {30.0, 55.0}}, 8.0);

  std::vector<TrafficStream> streams = {
      {0, 0.75, {0.75, 0.9, 0.97, 1.0}},
      {1, 0.75, {0.75, 0.9, 0.97, 1.0}},
      {2, 0.4, {0.8, 0.95, 0.98, 1.0}},
  };

  Scenario s;
  s.name = "S3";
  s.world = std::make_unique<World>(std::move(routes), std::move(streams),
                                    LightSchedule{}, seed);
  // Two fork monitors with partially overlapping views + one roadside camera
  // whose overlap with the fork pair is small (the paper notes S3 has the
  // smallest cross-camera overlap).
  s.cameras.push_back({"c1", make_camera({28, 33, 9}, -155, -16, 700.0, 62.0), gpu::jetson_xavier()});
  s.cameras.push_back({"c2", make_camera({28, -33, 9}, 155, -16, 700.0, 62.0), gpu::jetson_tx2()});
  s.cameras.push_back({"c3", make_camera({55, 0, 9}, 180, -16, 650.0, 75.0), gpu::jetson_nano()});
  return s;
}

Scenario make_city(const CityConfig& config, std::uint64_t seed) {
  if (config.cameras < 1 || config.block_m <= 0.0 ||
      config.camera_depth_m <= 0.0 || config.rate_per_s < 0.0)
    throw std::invalid_argument("city config out of range");
  const int cols = std::max(
      1, static_cast<int>(std::ceil(std::sqrt(double(config.cameras)))));
  const int rows = (config.cameras + cols - 1) / cols;
  // Corridor span: one block of approach before the first pole and enough
  // road past the last pole that departures happen off-camera.
  const double x0 = -config.block_m;
  const double x1 = cols * config.block_m + config.camera_depth_m;
  const double corridor_gap = 4.0 * config.block_m;  // rows can't see each other

  std::vector<Route> routes;
  std::vector<TrafficStream> streams;
  const std::array<double, 4> vehicle_cdf = {0.85, 0.95, 1.0, 1.0};
  for (int r = 0; r < rows; ++r) {
    const double y = r * corridor_gap;
    routes.emplace_back(std::vector<geom::Vec2>{{x0, y - 2.0}, {x1, y - 2.0}},
                        10.0);
    streams.push_back(
        {static_cast<int>(routes.size()) - 1, config.rate_per_s, vehicle_cdf});
    routes.emplace_back(std::vector<geom::Vec2>{{x1, y + 2.0}, {x0, y + 2.0}},
                        10.0);
    streams.push_back(
        {static_cast<int>(routes.size()) - 1, config.rate_per_s, vehicle_cdf});
  }

  Scenario s;
  s.name = city_scenario_name(config);
  s.world = std::make_unique<World>(std::move(routes), std::move(streams),
                                    LightSchedule{}, seed);
  // Long corridors need time to fill with through traffic before frame 0.
  const double corridor_m = x1 - x0;
  s.warmup_s = 45.0 + corridor_m / 8.0;

  if (config.flash_at_s >= 0.0 && config.flash_duration_s > 0.0) {
    // flash_at_s is evaluation time; the world clock includes the warmup.
    const double from = s.warmup_s + config.flash_at_s;
    s.world->add_rate_burst(
        {from, from + config.flash_duration_s, config.flash_multiplier});
  }
  if (config.day_night) {
    s.quality.enabled = true;
    s.quality.period_s = config.night_period_s;
    s.quality.night_miss_boost = config.night_miss_boost;
  }

  // One pole per block, all facing east from the south side of the road, so
  // each covers roughly [pole - 7 m, pole + 0.95 * depth] of its corridor:
  // consecutive footprints share only a few meters and non-adjacent cameras
  // share nothing (the sparse pairwise overlap of a real avenue deployment).
  const std::array<gpu::DeviceProfile, 3> device_cycle = {
      gpu::jetson_xavier(), gpu::jetson_tx2(), gpu::jetson_nano()};
  for (int k = 0; k < config.cameras; ++k) {
    const int r = k / cols;
    const int c = k % cols;
    const double px = c * config.block_m;
    const double py = r * corridor_gap - 20.0;
    char name[32];
    std::snprintf(name, sizeof name, "g%02d_%02d", r, c);
    s.cameras.push_back({name,
                         make_camera({px, py, 9.0}, 60.0, -16.0, 520.0,
                                     config.camera_depth_m),
                         device_cycle[static_cast<std::size_t>(k % 3)]});
  }
  return s;
}

std::string city_scenario_name(const CityConfig& c) {
  char buf[320];
  std::snprintf(
      buf, sizeof buf,
      "city:cams=%d;block=%.17g;rate=%.17g;depth=%.17g;"
      "flash=%.17g,%.17g,%.17g;night=%d,%.17g,%.17g",
      c.cameras, c.block_m, c.rate_per_s, c.camera_depth_m, c.flash_at_s,
      c.flash_duration_s, c.flash_multiplier, c.day_night ? 1 : 0,
      c.night_period_s, c.night_miss_boost);
  return buf;
}

std::optional<CityConfig> parse_city_name(const std::string& name) {
  CityConfig c;
  if (name == "city") return c;
  constexpr std::string_view kPrefix = "city:cams=";
  if (name.rfind(kPrefix, 0) != 0) return std::nullopt;
  // from_chars fails on a count that does not fit an int, where sscanf's %d
  // would be undefined behaviour.
  const char* const end = name.data() + name.size();
  const auto [rest, ec] =
      std::from_chars(name.data() + kPrefix.size(), end, c.cameras);
  if (ec != std::errc{}) return std::nullopt;
  // %1d cannot overflow; %n checks the whole name was consumed.
  int night = 0;
  int consumed = -1;
  const int n = std::sscanf(
      rest,
      ";block=%lf;rate=%lf;depth=%lf;flash=%lf,%lf,%lf;night=%1d,%lf,%lf%n",
      &c.block_m, &c.rate_per_s, &c.camera_depth_m, &c.flash_at_s,
      &c.flash_duration_s, &c.flash_multiplier, &night, &c.night_period_s,
      &c.night_miss_boost, &consumed);
  if (n != 9 || rest + consumed != end) return std::nullopt;
  // The ranges of the config's "city" block (runtime/config.cpp): every
  // value finite, so nan and inf fail here as they fail there.
  const double values[] = {c.block_m,          c.rate_per_s,
                           c.camera_depth_m,   c.flash_at_s,
                           c.flash_duration_s, c.flash_multiplier,
                           c.night_period_s,   c.night_miss_boost};
  if (!std::all_of(std::begin(values), std::end(values),
                   [](double v) { return std::isfinite(v); }))
    return std::nullopt;
  if (c.cameras < 1 || c.cameras > 1000 || c.block_m <= 0.0 ||
      c.rate_per_s < 0.0 || c.camera_depth_m <= 0.0 ||
      c.flash_duration_s <= 0.0 || c.flash_multiplier <= 0.0 ||
      c.night_period_s <= 0.0 || c.night_miss_boost < 0.0 ||
      c.night_miss_boost > 1.0)
    return std::nullopt;
  c.day_night = night != 0;
  return c;
}

Scenario make_scenario(const std::string& name, std::uint64_t seed) {
  if (name == "S1") return make_s1(seed);
  if (name == "S2") return make_s2(seed);
  if (name == "S3") return make_s3(seed);
  if (name.rfind("city", 0) == 0) {
    if (const auto city = parse_city_name(name)) return make_city(*city, seed);
  }
  throw std::invalid_argument("unknown scenario: " + name);
}

}  // namespace mvs::sim
