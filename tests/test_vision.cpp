#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "vision/image.hpp"
#include "vision/optical_flow.hpp"
#include "vision/regions.hpp"
#include "vision/renderer.hpp"

namespace mvs::vision {
namespace {

// ---- golden reference implementations ------------------------------------
// Straight-line copies of the pre-optimization kernels (double-accumulating
// SAD over at_clamped reads, pyramids rebuilt per call). The optimized
// kernels must reproduce their outputs BIT-identically.

double reference_block_sad(const Image& a, int ax, int ay, const Image& b,
                           int bx, int by, int size) {
  double sad = 0.0;
  for (int dy = 0; dy < size; ++dy)
    for (int dx = 0; dx < size; ++dx)
      sad += std::abs(static_cast<int>(a.at_clamped(ax + dx, ay + dy)) -
                      static_cast<int>(b.at_clamped(bx + dx, by + dy)));
  return sad;
}

// 2x box filter with clamped reads (floor dimensions, minimum 1x1).
Image reference_downsample(const Image& src) {
  const int w = std::max(1, src.width() / 2);
  const int h = std::max(1, src.height() / 2);
  Image out(w, h);
  for (int y = 0; y < h; ++y) {
    const int sy = std::min(2 * y, src.height() - 1);
    const int sy1 = std::min(sy + 1, src.height() - 1);
    const std::uint8_t* r0 = src.row(sy);
    const std::uint8_t* r1 = src.row(sy1);
    std::uint8_t* dst = out.row(y);
    for (int x = 0; x < w; ++x) {
      const int sx = std::min(2 * x, src.width() - 1);
      const int sx1 = std::min(sx + 1, src.width() - 1);
      const int sum = r0[sx] + r0[sx1] + r1[sx] + r1[sx1];
      dst[x] = static_cast<std::uint8_t>(sum / 4);
    }
  }
  return out;
}

FlowField reference_flow(const OpticalFlow::Config& cfg, const Image& prev,
                         const Image& cur) {
  std::vector<Image> pa{prev}, pb{cur};
  for (int l = 1; l < cfg.pyramid_levels; ++l) {
    if (pa.back().width() < 2 * cfg.block_size ||
        pa.back().height() < 2 * cfg.block_size)
      break;
    pa.push_back(reference_downsample(pa.back()));
    pb.push_back(reference_downsample(pb.back()));
  }
  const int levels = static_cast<int>(pa.size());

  FlowField field;
  field.block_size = cfg.block_size;
  field.cols = std::max(1, prev.width() / cfg.block_size);
  field.rows = std::max(1, prev.height() / cfg.block_size);
  field.flow.assign(static_cast<std::size_t>(field.cols) *
                        static_cast<std::size_t>(field.rows),
                    {0.0, 0.0});
  field.residual.assign(field.flow.size(), 0.0);

  std::vector<geom::Vec2> coarse;
  int ccols = 0, crows = 0;
  for (int l = levels - 1; l >= 0; --l) {
    const Image& ia = pa[static_cast<std::size_t>(l)];
    const Image& ib = pb[static_cast<std::size_t>(l)];
    const int cols = std::max(1, ia.width() / cfg.block_size);
    const int rows = std::max(1, ia.height() / cfg.block_size);
    std::vector<geom::Vec2> est(static_cast<std::size_t>(cols) *
                                static_cast<std::size_t>(rows));
    std::vector<double> res(est.size(), 0.0);

    for (int r = 0; r < rows; ++r) {
      for (int c = 0; c < cols; ++c) {
        const int bx = c * cfg.block_size;
        const int by = r * cfg.block_size;
        geom::Vec2 seed{0.0, 0.0};
        if (!coarse.empty()) {
          const int pc = std::min(c / 2, ccols - 1);
          const int pr = std::min(r / 2, crows - 1);
          const geom::Vec2& s =
              coarse[static_cast<std::size_t>(pr) *
                         static_cast<std::size_t>(ccols) +
                     static_cast<std::size_t>(pc)];
          seed = {s.x * 2.0, s.y * 2.0};
        }
        const int sx = static_cast<int>(std::lround(seed.x));
        const int sy = static_cast<int>(std::lround(seed.y));

        double best = std::numeric_limits<double>::infinity();
        int best_dx = sx, best_dy = sy;
        for (int dy = sy - cfg.search_radius; dy <= sy + cfg.search_radius;
             ++dy) {
          for (int dx = sx - cfg.search_radius; dx <= sx + cfg.search_radius;
               ++dx) {
            const double sad =
                reference_block_sad(ia, bx, by, ib, bx + dx, by + dy,
                                    cfg.block_size);
            const double penalty = 0.1 * (std::abs(dx) + std::abs(dy));
            if (sad + penalty < best) {
              best = sad + penalty;
              best_dx = dx;
              best_dy = dy;
            }
          }
        }
        est[static_cast<std::size_t>(r) * static_cast<std::size_t>(cols) +
            static_cast<std::size_t>(c)] = {static_cast<double>(best_dx),
                                            static_cast<double>(best_dy)};
        res[static_cast<std::size_t>(r) * static_cast<std::size_t>(cols) +
            static_cast<std::size_t>(c)] =
            best / static_cast<double>(cfg.block_size * cfg.block_size);
      }
    }
    coarse = std::move(est);
    ccols = cols;
    crows = rows;
    if (l == 0) {
      field.cols = cols;
      field.rows = rows;
      field.flow = coarse;
      field.residual = std::move(res);
    }
  }
  return field;
}

std::uint64_t reference_hash64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

std::uint8_t reference_texel(std::uint64_t seed, int x, int y) {
  return static_cast<std::uint8_t>(
      reference_hash64(seed ^ (static_cast<std::uint64_t>(
                                   static_cast<std::uint32_t>(x))
                               << 32) ^
                       static_cast<std::uint32_t>(y)) &
      0xFF);
}

/// The renderer before its noise table: background, object texels and a
/// per-pixel `% span` sensor-noise pass, with no caching.
Image reference_render(const Renderer::Config& cfg,
                       const std::vector<RenderObject>& objects, long frame,
                       std::uint64_t camera_seed) {
  Image out(cfg.width, cfg.height);
  for (int y = 0; y < cfg.height; ++y)
    for (int x = 0; x < cfg.width; ++x)
      out.set(x, y, static_cast<std::uint8_t>(
                        96 + reference_texel(camera_seed, x / 4, y / 4) % 48));
  for (const RenderObject& obj : objects) {
    const int x0 = std::max(0, static_cast<int>(std::floor(obj.box.x)));
    const int y0 = std::max(0, static_cast<int>(std::floor(obj.box.y)));
    const int x1 =
        std::min(cfg.width, static_cast<int>(std::ceil(obj.box.x2())));
    const int y1 =
        std::min(cfg.height, static_cast<int>(std::ceil(obj.box.y2())));
    const int ox = static_cast<int>(std::floor(obj.box.x));
    const int oy = static_cast<int>(std::floor(obj.box.y));
    const std::uint64_t obj_seed = reference_hash64(obj.id + 1);
    for (int y = y0; y < y1; ++y)
      for (int x = x0; x < x1; ++x)
        out.set(x, y, static_cast<std::uint8_t>(
                          160 + reference_texel(obj_seed, (x - ox) / 2,
                                                (y - oy) / 2) %
                                    80));
  }
  if (cfg.noise_amplitude > 0) {
    const std::uint64_t frame_seed = reference_hash64(
        camera_seed ^ (static_cast<std::uint64_t>(frame) << 20));
    const int span = 2 * cfg.noise_amplitude + 1;
    for (int y = 0; y < cfg.height; ++y)
      for (int x = 0; x < cfg.width; ++x) {
        const int n = static_cast<int>(reference_texel(frame_seed, x, y) %
                                       span) -
                      cfg.noise_amplitude;
        out.set(x, y, static_cast<std::uint8_t>(
                          std::clamp(static_cast<int>(out.at(x, y)) + n, 0,
                                     255)));
      }
  }
  return out;
}

Image random_image(int w, int h, util::Rng& rng) {
  Image img(w, h);
  for (int y = 0; y < h; ++y)
    for (int x = 0; x < w; ++x)
      img.set(x, y, static_cast<std::uint8_t>(rng.uniform_int(0, 255)));
  return img;
}

void expect_fields_bit_identical(const FlowField& a, const FlowField& b) {
  ASSERT_EQ(a.cols, b.cols);
  ASSERT_EQ(a.rows, b.rows);
  ASSERT_EQ(a.block_size, b.block_size);
  ASSERT_EQ(a.flow.size(), b.flow.size());
  ASSERT_EQ(a.residual.size(), b.residual.size());
  for (std::size_t i = 0; i < a.flow.size(); ++i) {
    EXPECT_EQ(a.flow[i].x, b.flow[i].x) << "flow.x mismatch at " << i;
    EXPECT_EQ(a.flow[i].y, b.flow[i].y) << "flow.y mismatch at " << i;
    EXPECT_EQ(a.residual[i], b.residual[i]) << "residual mismatch at " << i;
  }
}

Renderer small_renderer() {
  Renderer::Config cfg;
  cfg.width = 160;
  cfg.height = 96;
  cfg.noise_amplitude = 2;
  return Renderer(cfg);
}

TEST(Image, ConstructAndAccess) {
  Image img(4, 3, 7);
  EXPECT_EQ(img.width(), 4);
  EXPECT_EQ(img.height(), 3);
  EXPECT_EQ(img.at(3, 2), 7);
  img.set(1, 1, 42);
  EXPECT_EQ(img.at(1, 1), 42);
}

TEST(Image, ClampedRead) {
  Image img(2, 2);
  img.set(0, 0, 10);
  img.set(1, 1, 20);
  EXPECT_EQ(img.at_clamped(-5, -5), 10);
  EXPECT_EQ(img.at_clamped(10, 10), 20);
}

/// The per-pixel at_clamped copy that Image::copy_clamped replaces.
std::vector<std::uint8_t> reference_copy_clamped(const Image& img, int x0,
                                                 int y0, int w, int h) {
  std::vector<std::uint8_t> out;
  for (int y = 0; y < h; ++y)
    for (int x = 0; x < w; ++x) out.push_back(img.at_clamped(x0 + x, y0 + y));
  return out;
}

/// Image::copy_clamped against the per-pixel reference, and the padded
/// plane's copy_clamped against Image::copy_clamped. The pad of 2 is
/// narrower than most windows' overhang, so the padded copy must clamp to
/// the interior rather than read the border.
void expect_copy_matches(const Image& img, int x0, int y0, int w, int h) {
  std::vector<std::uint8_t> got(static_cast<std::size_t>(w) *
                                static_cast<std::size_t>(h));
  img.copy_clamped(x0, y0, w, h, got.data());
  EXPECT_EQ(got, reference_copy_clamped(img, x0, y0, w, h))
      << "window (" << x0 << ", " << y0 << ") " << w << "x" << h << " on "
      << img.width() << "x" << img.height();
  PaddedImage padded;
  padded.assign(img, 2);
  std::vector<std::uint8_t> from_padded(got.size());
  padded.copy_clamped(x0, y0, w, h, from_padded.data());
  EXPECT_EQ(from_padded, got)
      << "padded window (" << x0 << ", " << y0 << ") " << w << "x" << h
      << " on " << img.width() << "x" << img.height();
}

TEST(Image, CopyClampedMatchesPerPixelClampedReads) {
  util::Rng rng(0xC0FF);
  const Image img = random_image(13, 9, rng);
  struct Window {
    int x0, y0, w, h;
  };
  const Window windows[] = {
      {2, 2, 5, 4},      // inside
      {0, 0, 13, 9},     // the whole frame
      {-3, 3, 6, 3},     // over the left edge
      {10, 3, 6, 3},     // over the right edge
      {4, -2, 4, 5},     // over the top edge
      {4, 7, 4, 5},      // over the bottom edge
      {-4, -3, 6, 6},    // top-left corner
      {10, -3, 6, 6},    // top-right corner
      {-4, 6, 6, 6},     // bottom-left corner
      {10, 6, 6, 6},     // bottom-right corner
      {-20, 2, 5, 5},    // wholly left of the frame
      {20, 2, 5, 5},     // wholly right
      {2, -20, 5, 5},    // wholly above
      {2, 20, 5, 5},     // wholly below
      {-30, -30, 4, 4},  // beyond a corner
      {-5, -4, 25, 20},  // larger than the frame on every side
      {-1, 2, 15, 3},    // wider than the frame
  };
  for (const Window& win : windows)
    expect_copy_matches(img, win.x0, win.y0, win.w, win.h);
  for (int i = 0; i < 300; ++i)
    expect_copy_matches(img, rng.uniform_int(-20, 25), rng.uniform_int(-15, 20),
                        rng.uniform_int(1, 30), rng.uniform_int(1, 30));
  const Image pixel = random_image(1, 1, rng);
  expect_copy_matches(pixel, -3, -2, 8, 7);
}

TEST(Image, MeanAbsDiff) {
  Image a(2, 2, 10), b(2, 2, 14);
  EXPECT_DOUBLE_EQ(mean_abs_diff(a, b), 4.0);
  EXPECT_DOUBLE_EQ(mean_abs_diff(a, a), 0.0);
}

TEST(Renderer, Deterministic) {
  const Renderer r = small_renderer();
  const std::vector<RenderObject> objs = {{42, {30, 30, 20, 12}}};
  const Image a = r.render(objs, 5, 1);
  const Image b = r.render(objs, 5, 1);
  EXPECT_DOUBLE_EQ(mean_abs_diff(a, b), 0.0);
}

TEST(Renderer, FrameNoiseVaries) {
  const Renderer r = small_renderer();
  const Image a = r.render({}, 1, 1);
  const Image b = r.render({}, 2, 1);
  EXPECT_GT(mean_abs_diff(a, b), 0.1);  // noise differs
  EXPECT_LT(mean_abs_diff(a, b), 6.0);  // but background is static
}

TEST(Renderer, ObjectsBrighterThanBackground) {
  const Renderer r = small_renderer();
  const Image bg = r.render({}, 1, 1);
  const Image with = r.render({{7, {40, 40, 30, 20}}}, 1, 1);
  // Pixels inside the object region changed substantially.
  double diff = 0.0;
  for (int y = 42; y < 58; ++y)
    for (int x = 42; x < 68; ++x)
      diff += std::abs(static_cast<int>(bg.at(x, y)) -
                       static_cast<int>(with.at(x, y)));
  EXPECT_GT(diff / (16 * 26), 10.0);
}

TEST(OpticalFlow, ZeroMotionOnStaticScene) {
  const Renderer r = small_renderer();
  const std::vector<RenderObject> objs = {{3, {50, 40, 24, 16}}};
  const Image a = r.render(objs, 1, 1);
  const Image b = r.render(objs, 2, 1);  // same pose, new sensor noise
  const OpticalFlow flow;
  const FlowField field = flow.compute(a, b);
  EXPECT_LT(mean_flow_magnitude(field), 0.3);
}

class FlowTranslation : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(FlowTranslation, RecoversObjectMotion) {
  const auto [dx, dy] = GetParam();
  const Renderer r = small_renderer();
  const geom::BBox start{60, 40, 28, 18};
  const Image a = r.render({{9, start}}, 1, 1);
  const Image b = r.render({{9, start.shifted({static_cast<double>(dx),
                                               static_cast<double>(dy)})}},
                           2, 1);
  const OpticalFlow flow;
  const FlowField field = flow.compute(a, b);
  const geom::Vec2 motion = median_flow_in(field, start);
  EXPECT_NEAR(motion.x, dx, 1.6);
  EXPECT_NEAR(motion.y, dy, 1.6);
}

INSTANTIATE_TEST_SUITE_P(
    Shifts, FlowTranslation,
    ::testing::Values(std::pair{3, 0}, std::pair{-3, 0}, std::pair{0, 3},
                      std::pair{0, -2}, std::pair{4, 2}, std::pair{-2, -3},
                      std::pair{6, 0}, std::pair{0, 5}));

TEST(OpticalFlow, MedianFlowWindowMatchesFullScan) {
  // median_flow_in visits only the blocks a box can cover; the result must
  // equal a full-field scan for boxes inside, straddling and outside the
  // field, degenerate boxes, and non-finite coordinates.
  util::Rng rng(16);
  FlowField field;
  field.block_size = 8;
  field.cols = 13;
  field.rows = 9;
  for (int i = 0; i < field.cols * field.rows; ++i)
    field.flow.push_back({rng.uniform(-4.0, 4.0), rng.uniform(-4.0, 4.0)});
  field.residual.assign(field.flow.size(), 0.0);
  auto full_scan = [&](const geom::BBox& box) {
    std::vector<double> xs, ys;
    for (int r = 0; r < field.rows; ++r)
      for (int c = 0; c < field.cols; ++c)
        if (box.contains({(c + 0.5) * 8, (r + 0.5) * 8})) {
          xs.push_back(field.at(c, r).x);
          ys.push_back(field.at(c, r).y);
        }
    if (xs.empty()) return geom::Vec2{0.0, 0.0};
    const auto mid = static_cast<long>(xs.size() / 2);
    std::nth_element(xs.begin(), xs.begin() + mid, xs.end());
    std::nth_element(ys.begin(), ys.begin() + mid, ys.end());
    return geom::Vec2{xs[static_cast<std::size_t>(mid)],
                      ys[static_cast<std::size_t>(mid)]};
  };
  std::vector<geom::BBox> boxes = {
      {4, 4, 8, 8},     {12, 12, 0, 0},  {-50, -50, 40, 40}, {0, 0, 104, 72},
      {100, 68, 50, 9}, {30, 20, -5, 10}};
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  boxes.push_back({-inf, 10, inf, 20});
  boxes.push_back({nan, 10, 20, 20});
  for (int i = 0; i < 300; ++i)
    boxes.push_back({rng.uniform(-20.0, 110.0), rng.uniform(-20.0, 80.0),
                     rng.uniform(0.0, 60.0), rng.uniform(0.0, 60.0)});
  for (const geom::BBox& box : boxes) {
    const geom::Vec2 got = median_flow_in(field, box);
    const geom::Vec2 want = full_scan(box);
    EXPECT_EQ(got.x, want.x) << box.x << "," << box.y << "," << box.w;
    EXPECT_EQ(got.y, want.y) << box.x << "," << box.y << "," << box.w;
  }
}

TEST(OpticalFlow, MedianFlowEmptyBoxIsZero) {
  FlowField field;
  field.block_size = 8;
  field.cols = 2;
  field.rows = 2;
  field.flow.assign(4, {5.0, 5.0});
  field.residual.assign(4, 0.0);
  const geom::Vec2 motion = median_flow_in(field, {100, 100, 4, 4});
  EXPECT_DOUBLE_EQ(motion.x, 0.0);
}

TEST(NewRegions, FindsUnexplainedMovingObject) {
  const Renderer r = small_renderer();
  const geom::BBox moving{60, 40, 24, 16};
  const Image a = r.render({{5, moving}}, 1, 1);
  const Image b = r.render({{5, moving.shifted({5, 0})}}, 2, 1);
  const OpticalFlow flow;
  const FlowField field = flow.compute(a, b);

  // No predicted boxes -> the mover must surface as a new region.
  const auto regions = extract_new_regions(field, {}, 1.0);
  ASSERT_FALSE(regions.empty());
  bool covers = false;
  for (const geom::BBox& region : regions)
    if (geom::coverage(moving, region) > 0.5) covers = true;
  EXPECT_TRUE(covers);
}

TEST(NewRegions, ExplainedObjectSuppressed) {
  const Renderer r = small_renderer();
  const geom::BBox moving{60, 40, 24, 16};
  const Image a = r.render({{5, moving}}, 1, 1);
  const Image b = r.render({{5, moving.shifted({5, 0})}}, 2, 1);
  const OpticalFlow flow;
  const FlowField field = flow.compute(a, b);

  const auto regions =
      extract_new_regions(field, {moving.expanded(8.0)}, 1.0);
  for (const geom::BBox& region : regions)
    EXPECT_LT(geom::coverage(moving, region), 0.5);
}

TEST(NewRegions, ScaleMapsToLogicalPixels) {
  FlowField field;
  field.block_size = 8;
  field.cols = 4;
  field.rows = 4;
  field.flow.assign(16, {0.0, 0.0});
  field.residual.assign(16, 0.0);
  // One moving block at (2,2).
  field.flow[2 * 4 + 2] = {4.0, 0.0};
  NewRegionConfig cfg;
  cfg.min_area = 1.0;
  cfg.merge_margin = 0.0;
  const auto regions = extract_new_regions(field, {}, 4.0, cfg);
  ASSERT_EQ(regions.size(), 1u);
  // Block (2,2) covers flow pixels [16,24)x[16,24) -> logical [64,96).
  EXPECT_DOUBLE_EQ(regions[0].x, 64.0);
  EXPECT_DOUBLE_EQ(regions[0].w, 32.0);
}

TEST(SliceRegions, QuantizedAndClamped) {
  const geom::SizeClassSet sizes;
  const std::vector<std::pair<long, geom::BBox>> predicted = {
      {7, {50, 50, 30, 30}},    // -> class 0 (64)
      {8, {1200, 600, 90, 90}}, // near border -> clamped
  };
  const auto slices = slice_regions(predicted, sizes, 1280, 704);
  ASSERT_EQ(slices.size(), 2u);
  EXPECT_EQ(slices[0].track_id, 7);
  EXPECT_EQ(slices[0].size_class, 0);
  EXPECT_DOUBLE_EQ(slices[0].roi.w, 64.0);
  EXPECT_LE(slices[1].roi.x2(), 1280.0);
  EXPECT_LE(slices[1].roi.y2(), 704.0);
}

TEST(SliceRegions, EmptyInput) {
  const geom::SizeClassSet sizes;
  EXPECT_TRUE(slice_regions({}, sizes, 100, 100).empty());
}

TEST(PaddedImage, ReplicatesClampedReads) {
  util::Rng rng(12);
  const Image img = random_image(13, 7, rng);
  PaddedImage padded;
  padded.assign(img, 5);
  for (int y = -5; y < 12; ++y)
    for (int x = -5; x < 18; ++x)
      ASSERT_EQ(padded.at(x, y), img.at_clamped(x, y))
          << "(" << x << "," << y << ")";
}

TEST(PaddedImage, ReassignReusesStorage) {
  util::Rng rng(13);
  const Image a = random_image(16, 8, rng);
  const Image b = random_image(16, 8, rng);
  PaddedImage padded;
  padded.assign(a, 3);
  padded.assign(b, 3);  // same geometry: no reallocation, fresh contents
  for (int y = -3; y < 11; ++y)
    for (int x = -3; x < 19; ++x)
      ASSERT_EQ(padded.at(x, y), b.at_clamped(x, y));
}

/// Every pixel of `got`, border included, equals `want.at_clamped`.
void expect_padded_matches(const PaddedImage& got, const Image& want,
                           const char* what) {
  ASSERT_EQ(got.width(), want.width()) << what;
  ASSERT_EQ(got.height(), want.height()) << what;
  for (int y = -got.pad(); y < got.height() + got.pad(); ++y)
    for (int x = -got.pad(); x < got.width() + got.pad(); ++x)
      ASSERT_EQ(got.at(x, y), want.at_clamped(x, y))
          << what << " " << want.width() << "x" << want.height() << " pad "
          << got.pad() << " at (" << x << "," << y << ")";
}

TEST(PaddedImage, DownsampleIntoMatchesReferenceDownsample) {
  // Source widths 15/16/17, 31/32/33 and 1 sit on either side of the SIMD
  // body's 16-output step and of the scalar-only 1-pixel column; a 1-pixel
  // side reads the border where the reference clamps. Each level is
  // downsampled again from the padded output, so the output's border is
  // checked as the next source too.
  util::Rng rng(16);
  for (const auto& [w, h] :
       {std::pair{1, 1}, std::pair{1, 9}, std::pair{4, 4}, std::pair{7, 5},
        std::pair{15, 3}, std::pair{16, 1}, std::pair{17, 6},
        std::pair{31, 7}, std::pair{32, 2}, std::pair{33, 17},
        std::pair{160, 96}, std::pair{320, 180}}) {
    for (const int pad : {1, 6}) {
      const Image img = random_image(w, h, rng);
      PaddedImage src;
      src.assign(img, pad);
      const Image half = reference_downsample(img);
      // A stale, larger plane must be reshaped and fully overwritten.
      PaddedImage out;
      out.assign(random_image(w + 3, h + 2, rng), pad + 2);
      src.downsample_into(out, pad + 1);
      EXPECT_EQ(out.pad(), pad + 1);
      expect_padded_matches(out, half, "half");
      PaddedImage quarter;
      out.downsample_into(quarter, pad);
      expect_padded_matches(quarter, reference_downsample(half), "quarter");
    }
  }
}

TEST(PaddedSad, MatchesReferenceSad) {
  // Sizes 1-24 cover the scalar-only path (< 8 columns), whole SIMD chunks,
  // chunks plus a scalar remainder, and odd row counts (half-empty pair).
  util::Rng rng(14);
  const int w = 40, h = 32;
  const Image a = random_image(w, h, rng);
  const Image b = random_image(w, h, rng);
  const int pad = 24;
  PaddedImage pa, pb;
  pa.assign(a, pad);
  pb.assign(b, pad);
  for (int trial = 0; trial < 1000; ++trial) {
    const int size = rng.uniform_int(1, 24);
    // Block origins anywhere in-frame; displaced origin may run `size + pad`
    // deep into the border, exactly like the clamped reference.
    const int ax = rng.uniform_int(0, w - 1);
    const int ay = rng.uniform_int(0, h - 1);
    const int bx = rng.uniform_int(-pad + 1, w + pad - size - 1);
    const int by = rng.uniform_int(-pad + 1, h + pad - size - 1);
    const std::uint32_t fast = padded_block_sad(pa, ax, ay, pb, bx, by, size);
    const double gold = reference_block_sad(a, ax, ay, b, bx, by, size);
    ASSERT_EQ(static_cast<double>(fast), gold)
        << "size=" << size << " a=(" << ax << "," << ay << ") b=(" << bx
        << "," << by << ")";
  }
}

TEST(RendererGolden, ByteIdenticalToReferenceRender) {
  // Amplitudes cover no noise, the default, spans below and above one byte
  // (127 -> 255, 200 -> 401), noise below -255 (255, 300) and every clamp
  // direction. One renderer per amplitude renders several cameras in turn,
  // so the cached background is rebuilt on each seed change and reused
  // across frames.
  //
  // Object texels are 2x2 and anchored to the box's unclipped integer
  // origin. The last four scenes put that origin on odd columns and rows,
  // inside the frame and past its left and top edges (where the clipped
  // origin has the other parity), draw boxes 1 and 3 pixels wide or tall,
  // boxes that overhang the right and bottom edges, and overlapping boxes,
  // whose later object wins.
  const std::vector<std::vector<RenderObject>> scenes = {
      {},
      {{42, {30.5, 20.25, 24, 16}}},
      {{7, {-6, -4, 30, 20}}, {8, {140, 80, 40, 30}}, {9, {60, 40, 12, 9}}},
      {{3, {31, 17, 24, 13}}, {4, {64, 40, 7, 9}}},
      {{5, {11, 9, 1, 20}},
       {6, {40, 21, 3, 3}},
       {7, {70, 5, 30, 1}},
       {8, {90, 33, 3, 1}},
       {9, {101, 3, 1, 1}}},
      {{10, {-5, -3, 20, 15}},
       {11, {-7, 30, 12.5, 9}},
       {12, {45, -1, 9, 6}},
       {13, {151, 55, 20, 20}},
       {14, {120, 57, 17, 11}}},
      {{15, {20, 20, 40, 30}},
       {16, {35, 27, 25, 21}},
       {17, {41, 31, 3, 3}},
       {18, {-4.5, 10.25, 9.5, 6.75}}}};
  // Each frame is rendered into an Image and into a PaddedImage that held
  // other pixels: the padded interior must match byte for byte and its
  // border must replicate the edge. 157x61 leaves a partial texel column
  // and row.
  util::Rng rng(17);
  for (const auto& [width, height] : {std::pair{160, 90}, std::pair{157, 61}}) {
    for (const int amplitude : {0, 1, 3, 8, 127, 200, 255, 300}) {
      Renderer::Config cfg;
      cfg.width = width;
      cfg.height = height;
      cfg.noise_amplitude = amplitude;
      const Renderer r(cfg);
      PaddedImage padded;
      padded.assign(random_image(width, height, rng), 7);
      for (const std::uint64_t camera_seed : {1ULL, 9ULL, 0xDEADBEEFULL}) {
        for (const long frame : {0L, 1L, 37L, 1000003L}) {
          for (const std::vector<RenderObject>& scene : scenes) {
            const Image got = r.render(scene, frame, camera_seed);
            const Image want =
                reference_render(cfg, scene, frame, camera_seed);
            ASSERT_EQ(got.width(), want.width());
            ASSERT_EQ(got.height(), want.height());
            for (int y = 0; y < want.height(); ++y)
              for (int x = 0; x < want.width(); ++x)
                ASSERT_EQ(got.at(x, y), want.at(x, y))
                    << "amplitude=" << amplitude << " seed=" << camera_seed
                    << " frame=" << frame << " objects=" << scene.size()
                    << " at (" << x << "," << y << ")";
            r.render_into(scene, frame, camera_seed, padded);
            expect_padded_matches(padded, want, "padded render");
          }
        }
      }
    }
  }
}

TEST(OpticalFlowGolden, BitIdenticalOnRenderedPairs) {
  const Renderer r = small_renderer();
  const OpticalFlow flow;
  for (int trial = 0; trial < 6; ++trial) {
    const geom::BBox start{20.0 + 15.0 * trial, 30.0 + 5.0 * trial, 26, 18};
    const geom::Vec2 shift{static_cast<double>(trial - 3),
                           static_cast<double>((trial % 3) - 1)};
    const Image a = r.render({{static_cast<std::uint64_t>(trial + 1), start}},
                             trial, 9);
    const Image b = r.render(
        {{static_cast<std::uint64_t>(trial + 1), start.shifted(shift)}},
        trial + 1, 9);
    expect_fields_bit_identical(flow.compute(a, b),
                                reference_flow(flow.config(), a, b));
  }
}

TEST(OpticalFlowGolden, BitIdenticalOnOddSizesAndConfigs) {
  util::Rng rng(15);
  // 24x16 and 40x24 give block 8 an odd column count on a width that is
  // an exact multiple of 8, so the pair matcher's phantom partner reads only
  // padding; 7x5 is narrower than one block.
  const std::vector<std::pair<int, int>> sizes = {
      {7, 5},   {8, 8},   {9, 16},  {17, 9}, {24, 16},
      {37, 23}, {40, 24}, {64, 40}, {31, 64}};
  // Block sizes: 4, 5 and 7 run only the scalar remainder, 8 the pair
  // matcher, 16/24 only whole SIMD chunks, 9 and 12 both. 9 packs an odd
  // last row pair; running it right after 12 leaves that pair's high half
  // holding 12's bytes unless load() zeroes it.
  for (const auto& [w, h] : sizes) {
    for (const int block : {24, 16, 12, 9, 8, 7, 5, 4}) {
      for (const int levels : {1, 2, 4}) {
        for (const int radius : {0, 1, 3}) {
          OpticalFlow::Config cfg;
          cfg.block_size = block;
          cfg.pyramid_levels = levels;
          cfg.search_radius = radius;
          const OpticalFlow flow(cfg);
          const Image a = random_image(w, h, rng);
          const Image b = random_image(w, h, rng);
          expect_fields_bit_identical(flow.compute(a, b),
                                      reference_flow(cfg, a, b));
        }
      }
    }
  }
}

TEST(OpticalFlowGolden, IncrementalScratchMatchesOneShotAcrossSequence) {
  // The pipeline's path: each frame rendered straight into the scratch's
  // level 0, against the reference over the same frames rendered as Images.
  const Renderer r = small_renderer();
  const OpticalFlow flow;
  const geom::BBox start{30, 25, 24, 16};
  const int w = r.config().width, h = r.config().height;

  FlowScratch scratch;
  EXPECT_FALSE(scratch.ready());
  r.render_into({{4, start}}, 0, 3, flow.render_target(scratch, w, h));
  flow.rebase(scratch);
  EXPECT_TRUE(scratch.ready());
  Image prev = r.render({{4, start}}, 0, 3);

  FlowField incremental;
  for (int f = 1; f <= 6; ++f) {
    const std::vector<RenderObject> scene = {
        {4, start.shifted({1.5 * f, -0.5 * f})}};
    r.render_into(scene, f, 3, flow.render_target(scratch, w, h));
    flow.compute(scratch, incremental);
    scratch.advance();
    const Image cur = r.render(scene, f, 3);
    expect_fields_bit_identical(incremental,
                                reference_flow(flow.config(), prev, cur));
    prev = cur;
  }
}

TEST(OpticalFlowGolden, TiledComputeMatchesUntiled) {
  util::ThreadPool pool(4);
  const Renderer r = small_renderer();
  const OpticalFlow flow;
  const int w = r.config().width, h = r.config().height;
  const std::vector<RenderObject> scene_a = {{8, {40, 30, 30, 20}}};
  const std::vector<RenderObject> scene_b = {{8, {44, 32, 30, 20}}};

  FlowScratch scratch;
  r.render_into(scene_a, 0, 5, flow.render_target(scratch, w, h));
  flow.rebase(scratch);
  r.render_into(scene_b, 1, 5, flow.render_target(scratch, w, h));
  FlowField tiled;
  flow.compute(scratch, tiled, &pool);
  expect_fields_bit_identical(
      tiled, reference_flow(flow.config(), r.render(scene_a, 0, 5),
                            r.render(scene_b, 1, 5)));
}

/// w x h frame whose pixel (x, y) is `pattern(x, y)`.
template <typename Pattern>
Image pattern_image(int w, int h, Pattern pattern) {
  Image img(w, h);
  for (int y = 0; y < h; ++y)
    for (int x = 0; x < w; ++x)
      img.set(x, y, static_cast<std::uint8_t>(pattern(x, y)));
  return img;
}

TEST(OpticalFlowGolden, FirstMinimumWinsOnHeavyTies) {
  // Frames where many candidates reach the same cost, so the winner is
  // decided by the reference's strict `<`: the first minimum in dy-outer,
  // dx-inner order. Period-2 stripes and checkerboards moved by one pixel
  // match exactly at dx = -1 and +1 (and dy = -1 and +1) at equal
  // penalties; binary noise gives small SADs that tie often; flat frames
  // and noise-free renders tie on every candidate inside flat texels.
  // Radii 2 and 5 search 25 and 121 candidates, not a multiple of the
  // matcher's four min accumulators.
  const auto stripes = [](int period, int shift, bool vertical) {
    return [=](int x, int y) {
      return ((vertical ? x : y) + shift) / (period / 2) % 2 ? 200 : 50;
    };
  };
  const auto checker = [](int shift) {
    return [=](int x, int y) { return (x + y + shift) % 2 ? 180 : 40; };
  };
  std::vector<std::pair<Image, Image>> pairs;
  for (const auto& [w, h] : {std::pair{64, 40}, std::pair{72, 48}}) {
    pairs.emplace_back(Image(w, h, 128), Image(w, h, 128));
    for (const bool vertical : {true, false}) {
      pairs.emplace_back(pattern_image(w, h, stripes(2, 0, vertical)),
                         pattern_image(w, h, stripes(2, 1, vertical)));
      pairs.emplace_back(pattern_image(w, h, stripes(4, 0, vertical)),
                         pattern_image(w, h, stripes(4, 2, vertical)));
    }
    pairs.emplace_back(pattern_image(w, h, checker(0)),
                       pattern_image(w, h, checker(1)));
    util::Rng rng(static_cast<std::uint64_t>(w));
    const auto bit = [&](int, int) { return rng.uniform_int(0, 1); };
    const Image a = pattern_image(w, h, bit);
    pairs.emplace_back(a, pattern_image(w, h, bit));
    Renderer::Config rc;
    rc.width = w;
    rc.height = h;
    rc.noise_amplitude = 0;
    const Renderer r(rc);
    const geom::BBox box{13, 9, 22, 15};
    pairs.emplace_back(r.render({{2, box}}, 0, 4),
                       r.render({{2, box.shifted({2, -1})}}, 1, 4));
  }
  for (const auto& [a, b] : pairs) {
    for (const int block : {8, 4}) {
      for (const int levels : {1, 3}) {
        for (const int radius : {2, 3, 5}) {
          OpticalFlow::Config cfg;
          cfg.block_size = block;
          cfg.pyramid_levels = levels;
          cfg.search_radius = radius;
          const OpticalFlow flow(cfg);
          SCOPED_TRACE(testing::Message()
                       << a.width() << "x" << a.height() << " block=" << block
                       << " levels=" << levels << " radius=" << radius);
          expect_fields_bit_identical(flow.compute(a, b),
                                      reference_flow(cfg, a, b));
        }
      }
    }
  }
}

}  // namespace
}  // namespace mvs::vision
