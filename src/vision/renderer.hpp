#pragma once
// Deterministic synthetic frame renderer.
//
// Stands in for the camera sensor: draws each visible object as a textured
// rectangle over a static textured background, plus per-frame sensor noise.
// Textures are hash-based so they are (a) deterministic, (b) unique per
// object, and (c) rich enough for block-matching optical flow to lock onto.
//
// The background depends only on the camera seed, so it is rendered once and
// cached; per-frame work is a memcpy of the cached background plus the
// object rectangles and the noise pass. The noise pass maps each hashed byte
// through a 256-entry table built once per renderer, so no pixel pays an
// integer division (DESIGN.md §7). The cache makes render() non-reentrant
// for a single Renderer instance (one renderer per camera in the pipeline),
// while distinct instances stay independent.

#include <array>
#include <cstdint>
#include <vector>

#include "geometry/bbox.hpp"
#include "vision/image.hpp"

namespace mvs::vision {

struct RenderObject {
  std::uint64_t id = 0;   ///< stable object identity; drives the texture
  geom::BBox box;          ///< pixel box in the render frame
};

class Renderer {
 public:
  struct Config {
    int width = 320;
    int height = 176;
    int noise_amplitude = 3;  ///< uniform per-pixel sensor noise, +/- range
  };

  Renderer() : Renderer(Config{}) {}
  explicit Renderer(Config cfg);

  /// Render the frame at time index `frame` (the index seeds sensor noise so
  /// consecutive frames differ realistically). `camera_seed` decorrelates
  /// background textures across cameras.
  Image render(const std::vector<RenderObject>& objects, long frame,
               std::uint64_t camera_seed) const;

  /// Same, writing into `out` (resized as needed). Reuses `out`'s buffer and
  /// the cached background, so steady-state rendering allocates nothing.
  void render_into(const std::vector<RenderObject>& objects, long frame,
                   std::uint64_t camera_seed, Image& out) const;

  const Config& config() const { return cfg_; }

 private:
  Config cfg_{};
  /// Sensor noise per hashed byte t: t % (2a + 1) - a for amplitude a.
  std::array<int, 256> noise_{};
  // Lazily built per camera_seed; rebuilt only when the seed changes.
  mutable Image background_;
  mutable std::uint64_t background_seed_ = 0;
  mutable bool background_valid_ = false;
};

}  // namespace mvs::vision
