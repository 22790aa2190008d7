#include "vision/renderer.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>

namespace mvs::vision {

namespace {

/// SplitMix64 hash: fast, deterministic, well-mixed.
std::uint64_t hash64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

std::uint8_t texture_pixel(std::uint64_t seed, int x, int y) {
  const std::uint64_t h = hash64(seed ^ (static_cast<std::uint64_t>(
                                             static_cast<std::uint32_t>(x))
                                         << 32) ^
                                 static_cast<std::uint32_t>(y));
  return static_cast<std::uint8_t>(h & 0xFF);
}

}  // namespace

Renderer::Renderer(Config cfg) : cfg_(cfg) {
  // The same `t % span - a` the noise pass used to compute per pixel; t is
  // a byte, so 256 entries cover every input exactly.
  if (cfg_.noise_amplitude > 0) {
    const int span = 2 * cfg_.noise_amplitude + 1;
    for (int t = 0; t < 256; ++t)
      noise_[static_cast<std::size_t>(t)] = t % span - cfg_.noise_amplitude;
  }
}

Image Renderer::render(const std::vector<RenderObject>& objects, long frame,
                       std::uint64_t camera_seed) const {
  Image img;
  render_into(objects, frame, camera_seed, img);
  return img;
}

void Renderer::render_into(const std::vector<RenderObject>& objects,
                           long frame, std::uint64_t camera_seed,
                           Image& out) const {
  out.resize(cfg_.width, cfg_.height);
  draw(objects, frame, camera_seed, out.row(0), cfg_.width);
}

void Renderer::render_into(const std::vector<RenderObject>& objects,
                           long frame, std::uint64_t camera_seed,
                           PaddedImage& out) const {
  assert(out.width() == cfg_.width && out.height() == cfg_.height);
  draw(objects, frame, camera_seed, out.row(0), out.stride());
  out.fill_border();
}

void Renderer::draw(const std::vector<RenderObject>& objects, long frame,
                    std::uint64_t camera_seed, std::uint8_t* origin,
                    std::ptrdiff_t stride) const {
  auto row_of = [&](int y) { return origin + y * stride; };

  // Static background texture, smoothed to mid-gray contrast so objects
  // stand out. Coarse 4x4 texels keep the background locally flat, which is
  // what block matching sees from asphalt/grass.
  const int texel_cols = (cfg_.width + 3) / 4;
  const int texel_rows = (cfg_.height + 3) / 4;
  if (!background_valid_ || background_seed_ != camera_seed) {
    texels_.resize(static_cast<std::size_t>(texel_cols) *
                   static_cast<std::size_t>(texel_rows));
    std::uint8_t* t = texels_.data();
    for (int ty = 0; ty < texel_rows; ++ty)
      for (int tx = 0; tx < texel_cols; ++tx)
        *t++ = static_cast<std::uint8_t>(
            96 + (texture_pixel(camera_seed, tx, ty) % 48));
    background_seed_ = camera_seed;
    background_valid_ = true;
  }
  // Expand one texel row into the first frame row it covers, then copy that
  // row into the (up to) three below it.
  const int whole = cfg_.width / 4;  // texels 4 pixels wide
  for (int y = 0; y < cfg_.height; y += 4) {
    const std::uint8_t* t =
        texels_.data() +
        static_cast<std::size_t>(y / 4) * static_cast<std::size_t>(texel_cols);
    std::uint8_t* first = row_of(y);
    for (int tx = 0; tx < whole; ++tx) std::memset(first + 4 * tx, t[tx], 4);
    std::memset(first + 4 * whole, t[texel_cols - 1],
                static_cast<std::size_t>(cfg_.width - 4 * whole));
    for (int y1 = y + 1; y1 < std::min(y + 4, cfg_.height); ++y1)
      std::memcpy(row_of(y1), first, static_cast<std::size_t>(cfg_.width));
  }

  // Objects: texture anchored to the object's own frame so pixels translate
  // rigidly with the object (pure translation locally, as real flow assumes).
  for (const RenderObject& obj : objects) {
    const int x0 = std::max(0, static_cast<int>(std::floor(obj.box.x)));
    const int y0 = std::max(0, static_cast<int>(std::floor(obj.box.y)));
    const int x1 = std::min(cfg_.width, static_cast<int>(std::ceil(obj.box.x2())));
    const int y1 = std::min(cfg_.height, static_cast<int>(std::ceil(obj.box.y2())));
    const int ox = static_cast<int>(std::floor(obj.box.x));
    const int oy = static_cast<int>(std::floor(obj.box.y));
    const std::uint64_t obj_seed = hash64(obj.id + 1);
    for (int y = y0; y < y1; ++y) {
      std::uint8_t* row = row_of(y);
      for (int x = x0; x < x1; ++x) {
        const std::uint8_t t =
            texture_pixel(obj_seed, (x - ox) / 2, (y - oy) / 2);
        row[x] = static_cast<std::uint8_t>(160 + (t % 80));
      }
    }
  }

  // Per-frame sensor noise.
  if (cfg_.noise_amplitude > 0) {
    const std::uint64_t frame_seed =
        hash64(camera_seed ^ (static_cast<std::uint64_t>(frame) << 20));
    for (int y = 0; y < cfg_.height; ++y) {
      std::uint8_t* row = row_of(y);
      for (int x = 0; x < cfg_.width; ++x) {
        const int v = static_cast<int>(row[x]) +
                      noise_[texture_pixel(frame_seed, x, y)];
        row[x] = static_cast<std::uint8_t>(std::clamp(v, 0, 255));
      }
    }
  }
}

}  // namespace mvs::vision
