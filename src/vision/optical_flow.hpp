#pragma once
// Coarse-to-fine pyramidal block-matching optical flow.
//
// Plays the role of the DIS flow estimator in the paper (Kroeger et al.,
// ECCV'16): it predicts per-block pixel motion between consecutive frames.
// The tracker uses it to (a) project tracked boxes forward and (b) find
// "new regions" — clusters of moving pixels not explained by any tracked
// object — where new objects may have appeared (paper Sec. II-B).
//
// Performance engineering (DESIGN.md §7): matching runs SIMD integer SAD
// kernels (SSE2 on x86-64, scalar elsewhere) over edge-replicated
// PaddedImage rows. At the default 8x8 block size the matcher scores each
// pair of horizontally adjacent blocks together, one 16-byte SAD per row,
// in two passes: the first computes both blocks' SADs at every candidate
// and nothing else; the second forms their costs side by side, takes each
// block's minimum and picks the first candidate in scan order that reaches
// it, the one the reference's strict `<` keeps. Other sizes pack each
// reference block once (SadBlock) and compare it against every candidate
// in one sequential loop. Per-camera FlowScratch state carries the previous
// frame's pyramid across frames so each regular frame builds exactly one
// pyramid and reallocates nothing. Outputs are bit-identical to the
// straight-line reference implementation (kept in tests/test_vision.cpp as
// the golden oracle).

#include <cstdint>
#include <vector>

#include "geometry/bbox.hpp"
#include "vision/image.hpp"

namespace mvs::util {
class ThreadPool;
}

namespace mvs::vision {

/// Per-block motion field at the finest pyramid level.
struct FlowField {
  int block_size = 8;
  int cols = 0;
  int rows = 0;
  std::vector<geom::Vec2> flow;     ///< row-major block motions (pixels)
  std::vector<double> residual;     ///< matching SAD residual per block

  const geom::Vec2& at(int col, int row) const {
    return flow[static_cast<std::size_t>(row) * static_cast<std::size_t>(cols) +
                static_cast<std::size_t>(col)];
  }
  double residual_at(int col, int row) const {
    return residual[static_cast<std::size_t>(row) *
                        static_cast<std::size_t>(cols) +
                    static_cast<std::size_t>(col)];
  }
};

/// The runtime-size block-matching SAD kernel (block sides other than the
/// matcher's paired 8x8 path). load() packs a size x size reference
/// block once; sad() then compares it against any candidate block. The
/// packed layout is 8-column chunks stored as 16-byte row pairs (row 2p in
/// the low half, row 2p+1 in the high half, zeros past the last row), which
/// SSE2 `_mm_sad_epu8` consumes two rows at a time, followed by the
/// size % 8 remainder columns row-major for a scalar tail. Other
/// architectures run the same layout through a scalar loop. The sum is
/// exact integer arithmetic, so every path returns the same value.
class SadBlock {
 public:
  /// Pack the size x size block of `a` at (ax, ay). Reuses capacity.
  void load(const PaddedImage& a, int ax, int ay, int size);

  /// Integer SAD between the packed block and the block of `b` at (bx, by).
  /// Reads may run into the replicated borders, which reproduces
  /// Image::at_clamped semantics as long as every coordinate stays within
  /// the image's pad.
  std::uint32_t sad(const PaddedImage& b, int bx, int by) const;

 private:
  int size_ = 0;
  std::vector<std::uint8_t> packed_;
};

/// Integer sum of absolute differences between the size x size block of `a`
/// at (ax, ay) and the block of `b` at (bx, by): one SadBlock load + sad.
std::uint32_t padded_block_sad(const PaddedImage& a, int ax, int ay,
                               const PaddedImage& b, int bx, int by, int size);

/// Per-camera scratch state for incremental flow computation: both frames'
/// pyramids, one edge-padded plane per level, and the per-level match
/// buffers. The caller renders the new frame straight into the current
/// pyramid's level 0 (OpticalFlow::render_target). advance() promotes the
/// current frame's pyramid to "previous" in O(1) (buffer swaps), so
/// consecutive frames build one pyramid each instead of two.
class FlowScratch {
 public:
  /// Level 0 of the current frame, as last shaped by
  /// OpticalFlow::render_target.
  const PaddedImage& cur_frame() const { return cur_pad_.front(); }

  /// True once a previous-frame pyramid is in place (i.e. compute() may run).
  bool ready() const { return ready_; }

  /// Promote the current frame (pyramid built by OpticalFlow::compute or
  /// OpticalFlow::rebase) to the previous frame. Buffer swaps only.
  void advance();

  /// Forget the previous frame (e.g. after a camera rejoins).
  void reset() {
    ready_ = false;
    built_ = false;
  }

 private:
  friend class OpticalFlow;
  std::vector<PaddedImage> prev_pad_, cur_pad_; ///< padded levels 0..
  std::vector<geom::Vec2> est_, coarse_;        ///< per-level match buffers
  bool built_ = false;  ///< cur pyramid valid (set by the builder)
  bool ready_ = false;  ///< prev pyramid valid (set by advance)
};

class OpticalFlow {
 public:
  struct Config {
    int block_size = 8;     ///< block side at the finest level
    int pyramid_levels = 3; ///< >= 1
    int search_radius = 3;  ///< +/- pixels searched at each level
  };

  OpticalFlow() = default;
  explicit OpticalFlow(Config cfg) : cfg_(cfg) {}

  /// Compute block motion from `prev` to `cur` (same dimensions, non-empty).
  /// Convenience path: copies both frames into the padded level-0 planes
  /// of a throwaway FlowScratch.
  FlowField compute(const Image& prev, const Image& cur) const;

  /// Shape the current frame's level 0 in `scratch` to width x height with
  /// the pad its pyramid needs, and return it. Write the new frame into it
  /// with Renderer::render_into or PaddedImage::assign (both fill the
  /// border), then call compute() or rebase().
  PaddedImage& render_target(FlowScratch& scratch, int width,
                             int height) const;

  /// Incremental path: compute block motion from the scratch's previous
  /// frame to scratch.cur_frame(), reusing every buffer. Requires
  /// scratch.ready(). When `pool` is non-null, block rows are tiled across
  /// its workers (bit-identical output regardless of tiling: tiles write
  /// disjoint row ranges and read only the finished coarser level). Call
  /// scratch.advance() afterwards to make the current frame the reference.
  void compute(FlowScratch& scratch, FlowField& out,
               util::ThreadPool* pool = nullptr) const;

  /// Build the pyramid for scratch.cur_frame() and promote it to the
  /// previous frame without matching (key frames: establish the flow
  /// reference for the next regular frame).
  void rebase(FlowScratch& scratch) const;

  const Config& config() const { return cfg_; }

 private:
  /// Levels of the pyramid over a width x height frame.
  int level_count(int width, int height) const;

  /// Border of level `level` (of `levels`), `width` pixels wide.
  int level_pad(int levels, int level, int width) const;

  /// Downsample the current frame's level 0 into levels 1..; returns the
  /// level count.
  int build_cur_pyramid(FlowScratch& scratch) const;

  void match_level(const PaddedImage& pa, const PaddedImage& pb,
                   const geom::Vec2* coarse, int ccols, int crows,
                   geom::Vec2* est, double* res, int cols, int rows,
                   util::ThreadPool* pool) const;

  Config cfg_{};
};

/// Robust (median) motion of the blocks whose centers fall inside `box`.
/// Returns {0,0} when the box covers no block center.
geom::Vec2 median_flow_in(const FlowField& field, const geom::BBox& box);

/// Mean motion magnitude over all blocks (activity level of the scene).
double mean_flow_magnitude(const FlowField& field);

}  // namespace mvs::vision
