#pragma once
// Grayscale raster image. The optical-flow tracker operates on real pixels
// rendered by vision::Renderer, so the motion-estimation code path matches a
// deployment that feeds camera frames into a DIS-style flow estimator.

#include <cstdint>
#include <vector>

namespace mvs::vision {

class Image {
 public:
  Image() = default;
  Image(int width, int height, std::uint8_t fill = 0);

  int width() const { return width_; }
  int height() const { return height_; }
  bool empty() const { return width_ == 0 || height_ == 0; }

  std::uint8_t at(int x, int y) const {
    return data_[static_cast<std::size_t>(y) * static_cast<std::size_t>(width_) +
                 static_cast<std::size_t>(x)];
  }
  void set(int x, int y, std::uint8_t v) {
    data_[static_cast<std::size_t>(y) * static_cast<std::size_t>(width_) +
          static_cast<std::size_t>(x)] = v;
  }

  /// Raw row pointer (y in [0, height)); hot kernels index columns directly.
  const std::uint8_t* row(int y) const {
    return data_.data() +
           static_cast<std::size_t>(y) * static_cast<std::size_t>(width_);
  }
  std::uint8_t* row(int y) {
    return data_.data() +
           static_cast<std::size_t>(y) * static_cast<std::size_t>(width_);
  }

  /// Clamped read: out-of-bounds coordinates return the nearest edge pixel.
  std::uint8_t at_clamped(int x, int y) const;

  /// Copy the w x h window whose top-left is (x0, y0) into `out` (row-major,
  /// w * h bytes) with at_clamped semantics: one memcpy of each row's
  /// in-frame span, edge-replicated fills for the rest. The window may lie
  /// partly or wholly outside the frame, or be larger than it.
  void copy_clamped(int x0, int y0, int w, int h, std::uint8_t* out) const;

  /// Reshape to width x height. Pixel contents are unspecified afterwards;
  /// no reallocation when the new size fits the existing capacity.
  void resize(int width, int height);

  const std::vector<std::uint8_t>& data() const { return data_; }

 private:
  int width_ = 0;
  int height_ = 0;
  std::vector<std::uint8_t> data_;
};

/// Grayscale plane with `pad` pixels of edge-replicated border on every
/// side. Reads at x in [-pad, width+pad) and y in [-pad, height+pad) hit
/// real storage that replicates the nearest edge pixel, so hot kernels
/// (block SAD, the pyramid downsample) walk raw row pointers with
/// Image::at_clamped semantics and zero per-pixel bounds logic. The flow
/// pyramid keeps every level only in this form: the renderer draws level 0
/// straight into the interior and each coarser level is downsampled from
/// the one above it.
class PaddedImage {
 public:
  PaddedImage() = default;

  /// Shape to width x height with `pad` pixels of border on every side.
  /// Contents are unspecified afterwards; no reallocation when the padded
  /// size fits the existing capacity.
  void reshape(int width, int height, int pad);

  /// Copy the interior's edge pixels into the border. Call after writing
  /// the interior through row().
  void fill_border();

  /// (Re)fill from `src` with `pad` pixels of replicated border: reshape,
  /// copy the interior, fill the border.
  void assign(const Image& src, int pad);

  int width() const { return width_; }
  int height() const { return height_; }
  int pad() const { return pad_; }
  /// Bytes between consecutive rows (width + 2 * pad).
  std::ptrdiff_t stride() const { return stride_; }
  bool empty() const { return width_ == 0 || height_ == 0; }

  /// Row pointer for y in [-pad, height+pad); valid column offsets are
  /// [-pad, width+pad).
  const std::uint8_t* row(int y) const {
    return data_.data() +
           static_cast<std::size_t>(y + pad_) * static_cast<std::size_t>(stride_) +
           static_cast<std::size_t>(pad_);
  }
  std::uint8_t* row(int y) {
    return data_.data() +
           static_cast<std::size_t>(y + pad_) * static_cast<std::size_t>(stride_) +
           static_cast<std::size_t>(pad_);
  }

  /// Clamped-equivalent read (for tests; kernels use row()).
  std::uint8_t at(int x, int y) const { return row(y)[x]; }

  /// Image::copy_clamped over the interior: the window is clamped to the
  /// interior's edges, not to the border, so it may be any size.
  void copy_clamped(int x0, int y0, int w, int h, std::uint8_t* out) const;

  /// 2x box-filter downsample of the interior (floor dimensions, minimum
  /// 1x1) into `out`, reshaped with `pad` and its border filled. A 1-pixel
  /// side reads the border's copy of its edge where an edge clamp would
  /// reread the edge, so this plane's border must be filled (pad >= 1).
  void downsample_into(PaddedImage& out, int pad) const;

 private:
  int width_ = 0;
  int height_ = 0;
  int pad_ = 0;
  int stride_ = 0;
  std::vector<std::uint8_t> data_;
};

/// Mean absolute pixel difference over the whole frame (test helper).
double mean_abs_diff(const Image& a, const Image& b);

}  // namespace mvs::vision
