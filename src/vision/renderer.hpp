#pragma once
// Deterministic synthetic frame renderer.
//
// Stands in for the camera sensor: draws each visible object as a textured
// rectangle over a static textured background, plus per-frame sensor noise.
// Textures are hash-based so they are (a) deterministic, (b) unique per
// object, and (c) rich enough for block-matching optical flow to lock onto.
//
// The background depends only on the camera seed, so its 4x4 texels are
// drawn once and cached; per-frame work expands the cached texels one texel
// row at a time, then draws the object rectangles and the noise pass. An
// object's 2x2 texels are hashed once each: the value fills both columns
// and the texel's second row copies its first. The noise pass maps each
// hashed byte through a 256-entry int16 table built once per renderer, so
// no pixel pays an integer division, hashes a chunk of each row into int16
// noise, and adds the chunk with SSE2 where the saturating pack is the
// clamp (DESIGN.md §7). The cache makes render() non-reentrant for a
// single Renderer instance (one renderer per camera in the pipeline), while
// distinct instances stay independent.

#include <array>
#include <cstddef>
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

  /// Same, drawing into the interior of `out`, which must already be shaped
  /// config().width x config().height (its pad is the caller's), then
  /// filling its border. The flow pyramid's level 0 is rendered this way.
  void render_into(const std::vector<RenderObject>& objects, long frame,
                   std::uint64_t camera_seed, PaddedImage& out) const;

  const Config& config() const { return cfg_; }

 private:
  Config cfg_{};
  /// The one draw body behind both render_into targets: the frame whose
  /// row y starts at origin + y * stride.
  void draw(const std::vector<RenderObject>& objects, long frame,
            std::uint64_t camera_seed, std::uint8_t* origin,
            std::ptrdiff_t stride) const;

  /// Sensor noise per hashed byte t: t % (2a + 1) - a for amplitude a,
  /// clamped to [-255, 255].
  std::array<std::int16_t, 256> noise_{};
  // Background texel values, row-major over ceil(width / 4) x
  // ceil(height / 4) texels; rebuilt only when the camera seed changes.
  mutable std::vector<std::uint8_t> texels_;
  mutable std::uint64_t background_seed_ = 0;
  mutable bool background_valid_ = false;
};

}  // namespace mvs::vision
