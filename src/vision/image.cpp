#include "vision/image.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace mvs::vision {

Image::Image(int width, int height, std::uint8_t fill)
    : width_(width),
      height_(height),
      data_(static_cast<std::size_t>(width) * static_cast<std::size_t>(height),
            fill) {
  assert(width >= 0 && height >= 0);
}

std::uint8_t Image::at_clamped(int x, int y) const {
  x = std::clamp(x, 0, width_ - 1);
  y = std::clamp(y, 0, height_ - 1);
  return at(x, y);
}

void Image::copy_clamped(int x0, int y0, int w, int h,
                         std::uint8_t* out) const {
  assert(!empty() && w >= 0 && h >= 0);
  // Window columns [lo, hi) read real pixels; those left of lo replicate
  // column 0 and those from hi on replicate the last column.
  const int lo = std::clamp(-x0, 0, w);
  const int hi = std::clamp(width_ - x0, lo, w);
  const auto left = static_cast<std::size_t>(lo);
  const auto span = static_cast<std::size_t>(hi - lo);
  const auto right = static_cast<std::size_t>(w - hi);
  for (int y = 0; y < h; ++y, out += w) {
    const std::uint8_t* src = row(std::clamp(y0 + y, 0, height_ - 1));
    std::memset(out, src[0], left);
    if (span != 0) std::memcpy(out + left, src + x0 + lo, span);
    std::memset(out + left + span, src[width_ - 1], right);
  }
}

void Image::resize(int width, int height) {
  assert(width >= 0 && height >= 0);
  width_ = width;
  height_ = height;
  data_.resize(static_cast<std::size_t>(width) *
               static_cast<std::size_t>(height));
}

Image Image::downsampled() const {
  Image out;
  downsample_into(out);
  return out;
}

void Image::downsample_into(Image& out) const {
  assert(this != &out);
  const int w = std::max(1, width_ / 2);
  const int h = std::max(1, height_ / 2);
  out.resize(w, h);
  for (int y = 0; y < h; ++y) {
    const int sy = std::min(2 * y, height_ - 1);
    const int sy1 = std::min(sy + 1, height_ - 1);
    const std::uint8_t* r0 = row(sy);
    const std::uint8_t* r1 = row(sy1);
    std::uint8_t* dst = out.row(y);
    int x = 0;
#if defined(__SSE2__)
    // For x < width_ / 2 the sx + 1 clamp never fires, so 16 outputs take
    // 32 contiguous source bytes per row: even and odd bytes split into
    // 16-bit lanes, four of them summed (<= 1020) and shifted right by 2,
    // which is sum / 4 exactly. Only the column tail (all of a source
    // narrower than 32 pixels) stays scalar.
    const __m128i low = _mm_set1_epi16(0x00FF);
    auto quarter_sums = [&](int offset) {
      const __m128i a =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(r0 + offset));
      const __m128i b =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(r1 + offset));
      const __m128i sum = _mm_add_epi16(
          _mm_add_epi16(_mm_and_si128(a, low), _mm_srli_epi16(a, 8)),
          _mm_add_epi16(_mm_and_si128(b, low), _mm_srli_epi16(b, 8)));
      return _mm_srli_epi16(sum, 2);
    };
    for (; x + 16 <= w; x += 16)
      _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + x),
                       _mm_packus_epi16(quarter_sums(2 * x),
                                        quarter_sums(2 * x + 16)));
#endif
    for (; x < w; ++x) {
      const int sx = std::min(2 * x, width_ - 1);
      const int sx1 = std::min(sx + 1, width_ - 1);
      const int sum = r0[sx] + r0[sx1] + r1[sx] + r1[sx1];
      dst[x] = static_cast<std::uint8_t>(sum / 4);
    }
  }
}

void PaddedImage::assign(const Image& src, int pad) {
  assert(!src.empty() && pad >= 0);
  width_ = src.width();
  height_ = src.height();
  pad_ = pad;
  stride_ = width_ + 2 * pad;
  data_.resize(static_cast<std::size_t>(stride_) *
               static_cast<std::size_t>(height_ + 2 * pad));

  // Interior rows: left/right border replicates the row's edge pixels.
  for (int y = 0; y < height_; ++y) {
    std::uint8_t* dst =
        data_.data() + static_cast<std::size_t>(y + pad) *
                           static_cast<std::size_t>(stride_);
    const std::uint8_t* s = src.row(y);
    std::memset(dst, s[0], static_cast<std::size_t>(pad));
    std::memcpy(dst + pad, s, static_cast<std::size_t>(width_));
    std::memset(dst + pad + width_, s[width_ - 1],
                static_cast<std::size_t>(pad));
  }
  // Top/bottom borders replicate the first/last padded row wholesale.
  const std::uint8_t* top =
      data_.data() + static_cast<std::size_t>(pad) *
                         static_cast<std::size_t>(stride_);
  const std::uint8_t* bottom =
      data_.data() + static_cast<std::size_t>(pad + height_ - 1) *
                         static_cast<std::size_t>(stride_);
  for (int y = 0; y < pad; ++y) {
    std::memcpy(data_.data() + static_cast<std::size_t>(y) *
                                   static_cast<std::size_t>(stride_),
                top, static_cast<std::size_t>(stride_));
    std::memcpy(data_.data() + static_cast<std::size_t>(pad + height_ + y) *
                                   static_cast<std::size_t>(stride_),
                bottom, static_cast<std::size_t>(stride_));
  }
}

double mean_abs_diff(const Image& a, const Image& b) {
  assert(a.width() == b.width() && a.height() == b.height());
  if (a.empty()) return 0.0;
  double acc = 0.0;
  for (std::size_t i = 0; i < a.data().size(); ++i)
    acc += std::abs(static_cast<int>(a.data()[i]) - static_cast<int>(b.data()[i]));
  return acc / static_cast<double>(a.data().size());
}

}  // namespace mvs::vision
