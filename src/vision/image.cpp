#include "vision/image.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace mvs::vision {

namespace {

/// The w x h window of `plane` whose top-left is (x0, y0), read with
/// at_clamped semantics into `out` (row-major, w * h bytes): one memcpy of
/// each row's in-frame span, edge-replicated fills for the rest. The window
/// may lie partly or wholly outside the plane, or be larger than it.
/// `Plane` is Image or PaddedImage (whose interior is the plane here).
template <class Plane>
void copy_clamped_from(const Plane& plane, int x0, int y0, int w, int h,
                       std::uint8_t* out) {
  assert(!plane.empty() && w >= 0 && h >= 0);
  const int width = plane.width();
  // Window columns [lo, hi) read real pixels; those left of lo replicate
  // column 0 and those from hi on replicate the last column.
  const int lo = std::clamp(-x0, 0, w);
  const int hi = std::clamp(width - x0, lo, w);
  const auto left = static_cast<std::size_t>(lo);
  const auto span = static_cast<std::size_t>(hi - lo);
  const auto right = static_cast<std::size_t>(w - hi);
  for (int y = 0; y < h; ++y, out += w) {
    const std::uint8_t* src = plane.row(std::clamp(y0 + y, 0, plane.height() - 1));
    std::memset(out, src[0], left);
    if (span != 0) std::memcpy(out + left, src + x0 + lo, span);
    std::memset(out + left + span, src[width - 1], right);
  }
}

}  // namespace

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
  copy_clamped_from(*this, x0, y0, w, h, out);
}

void Image::resize(int width, int height) {
  assert(width >= 0 && height >= 0);
  width_ = width;
  height_ = height;
  data_.resize(static_cast<std::size_t>(width) *
               static_cast<std::size_t>(height));
}

void PaddedImage::reshape(int width, int height, int pad) {
  assert(width > 0 && height > 0 && pad >= 0);
  width_ = width;
  height_ = height;
  pad_ = pad;
  stride_ = width + 2 * pad;
  data_.resize(static_cast<std::size_t>(stride_) *
               static_cast<std::size_t>(height + 2 * pad));
}

void PaddedImage::fill_border() {
  const auto pad = static_cast<std::size_t>(pad_);
  const auto stride = static_cast<std::size_t>(stride_);
  // Interior rows: left/right border replicates the row's edge pixels.
  for (int y = 0; y < height_; ++y) {
    std::uint8_t* r = row(y);
    std::memset(r - pad_, r[0], pad);
    std::memset(r + width_, r[width_ - 1], pad);
  }
  // Top/bottom borders replicate the first/last padded row wholesale.
  const std::uint8_t* top = row(0) - pad_;
  const std::uint8_t* bottom = row(height_ - 1) - pad_;
  for (int y = 1; y <= pad_; ++y) {
    std::memcpy(row(-y) - pad_, top, stride);
    std::memcpy(row(height_ - 1 + y) - pad_, bottom, stride);
  }
}

void PaddedImage::assign(const Image& src, int pad) {
  assert(!src.empty());
  reshape(src.width(), src.height(), pad);
  for (int y = 0; y < height_; ++y)
    std::memcpy(row(y), src.row(y), static_cast<std::size_t>(width_));
  fill_border();
}

void PaddedImage::copy_clamped(int x0, int y0, int w, int h,
                               std::uint8_t* out) const {
  copy_clamped_from(*this, x0, y0, w, h, out);
}

void PaddedImage::downsample_into(PaddedImage& out, int pad) const {
  assert(this != &out && !empty() && pad_ >= 1);
  const int w = std::max(1, width_ / 2);
  const int h = std::max(1, height_ / 2);
  out.reshape(w, h, pad);
  // Source row 2y + 1 and column 2x + 1 lie inside the interior except on a
  // 1-pixel side, where they land on the border's copy of the edge: the
  // value the clamp to the last row or column used to read.
  for (int y = 0; y < h; ++y) {
    const std::uint8_t* r0 = row(2 * y);
    const std::uint8_t* r1 = row(2 * y + 1);
    std::uint8_t* dst = out.row(y);
    int x = 0;
#if defined(__SSE2__)
    // 16 outputs take 32 contiguous source bytes per row: even and odd
    // bytes split into 16-bit lanes, four of them summed (<= 1020) and
    // shifted right by 2, which is sum / 4 exactly. Only the column tail
    // (all of a source narrower than 32 pixels) stays scalar.
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
      const int sum = r0[2 * x] + r0[2 * x + 1] + r1[2 * x] + r1[2 * x + 1];
      dst[x] = static_cast<std::uint8_t>(sum / 4);
    }
  }
  out.fill_border();
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
