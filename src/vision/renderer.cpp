#include "vision/renderer.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

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

/// row[i] = clamp(row[i] + noise[i], 0, 255) for i < n. Every noise value
/// is in [-255, 255], so each sum is in [-255, 510], where SSE2's
/// unsigned saturating pack equals the clamp.
void add_noise(std::uint8_t* row, const std::int16_t* noise, int n) {
  int i = 0;
#if defined(__SSE2__)
  const __m128i zero = _mm_setzero_si128();
  for (; i + 16 <= n; i += 16) {
    const __m128i px =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(row + i));
    const __m128i lo = _mm_add_epi16(
        _mm_unpacklo_epi8(px, zero),
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(noise + i)));
    const __m128i hi = _mm_add_epi16(
        _mm_unpackhi_epi8(px, zero),
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(noise + i + 8)));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(row + i),
                     _mm_packus_epi16(lo, hi));
  }
#endif
  for (; i < n; ++i)
    row[i] = static_cast<std::uint8_t>(std::clamp(row[i] + noise[i], 0, 255));
}

}  // namespace

Renderer::Renderer(Config cfg) : cfg_(cfg) {
  // The same `t % span - a` the noise pass used to compute per pixel; t is
  // a byte, so 256 entries cover every input exactly. A pixel is in
  // [0, 255], so clamping an entry to [-255, 255] changes no clamped sum
  // and keeps every amplitude inside int16.
  if (cfg_.noise_amplitude > 0) {
    const int span = 2 * cfg_.noise_amplitude + 1;
    for (int t = 0; t < 256; ++t)
      noise_[static_cast<std::size_t>(t)] = static_cast<std::int16_t>(
          std::clamp(t % span - cfg_.noise_amplitude, -255, 255));
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
  // A texel is 2x2 pixels from the unclipped integer origin (ox, oy): each
  // is hashed once and written to both of its columns, and its second row
  // is a copy of its first.
  for (const RenderObject& obj : objects) {
    const int x0 = std::max(0, static_cast<int>(std::floor(obj.box.x)));
    const int y0 = std::max(0, static_cast<int>(std::floor(obj.box.y)));
    const int x1 = std::min(cfg_.width, static_cast<int>(std::ceil(obj.box.x2())));
    const int y1 = std::min(cfg_.height, static_cast<int>(std::ceil(obj.box.y2())));
    if (x0 >= x1) continue;
    const int ox = static_cast<int>(std::floor(obj.box.x));
    const int oy = static_cast<int>(std::floor(obj.box.y));
    const std::uint64_t obj_seed = hash64(obj.id + 1);
    for (int y = y0; y < y1; ++y) {
      std::uint8_t* row = row_of(y);
      if (y > y0 && (y - oy) % 2 == 1) {
        std::memcpy(row + x0, row_of(y - 1) + x0,
                    static_cast<std::size_t>(x1 - x0));
        continue;
      }
      auto texel = [&](int x) {
        const std::uint8_t t =
            texture_pixel(obj_seed, (x - ox) / 2, (y - oy) / 2);
        return static_cast<std::uint8_t>(160 + (t % 80));
      };
      int x = x0;
      if ((x - ox) % 2 == 1) {  // the right half of a texel clipped at x0
        row[x] = texel(x);
        ++x;
      }
      for (; x + 1 < x1; x += 2) row[x] = row[x + 1] = texel(x);
      if (x < x1) row[x] = texel(x);
    }
  }

  // Per-frame sensor noise: hash a chunk of a row into int16 noise (the
  // scalar part, one hash per pixel), then add the chunk to the row.
  if (cfg_.noise_amplitude > 0) {
    const std::uint64_t frame_seed =
        hash64(camera_seed ^ (static_cast<std::uint64_t>(frame) << 20));
    constexpr int kChunk = 64;
    alignas(16) std::int16_t noise[kChunk];
    for (int y = 0; y < cfg_.height; ++y) {
      std::uint8_t* row = row_of(y);
      for (int x0 = 0; x0 < cfg_.width; x0 += kChunk) {
        const int n = std::min(kChunk, cfg_.width - x0);
        for (int i = 0; i < n; ++i)
          noise[i] = noise_[texture_pixel(frame_seed, x0 + i, y)];
        add_noise(row + x0, noise, n);
      }
    }
  }
}

}  // namespace mvs::vision
