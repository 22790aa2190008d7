#include "vision/optical_flow.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>
#include <cstring>
#include <limits>
#include <utility>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "util/thread_pool.hpp"

namespace mvs::vision {

namespace {

std::uint32_t abs_diff(std::uint8_t a, std::uint8_t b) {
  return static_cast<std::uint32_t>(a > b ? a - b : b - a);
}

/// Inclusive index range of the blocks (side `bs`, `n` of them) whose
/// centers (i + 0.5) * bs can lie in [lo, hi], widened by one block on each
/// side so rounding never drops a block. A NaN bound widens to the whole
/// range; an empty result has first > last.
std::pair<int, int> covered_blocks(double lo, double hi, int bs, int n) {
  const double first = std::max(0.0, std::floor(lo / bs - 0.5) - 1.0);
  const double last = std::min(n - 1.0, std::ceil(hi / bs - 0.5) + 1.0);
  return {static_cast<int>(std::min(first, static_cast<double>(n))),
          static_cast<int>(std::max(last, -1.0))};
}

/// The reference rows of two horizontally adjacent 8x8 blocks, 16 bytes per
/// row: the left block in bytes 0-7, the right block in bytes 8-15. One
/// 16-byte SAD per row scores both blocks against a candidate, because
/// `_mm_sad_epu8` sums each 8-byte half into its own 64-bit lane.
class PairRef {
 public:
  /// Take the 16x8 window of `a` at (x, y).
  PairRef(const PaddedImage& a, int x, int y) {
    for (int i = 0; i < 8; ++i) {
      const std::uint8_t* src = a.row(y + i) + x;
#if defined(__SSE2__)
      rows_[i] = _mm_loadu_si128(reinterpret_cast<const __m128i*>(src));
#else
      std::memcpy(rows_[i], src, 16);
#endif
    }
  }

  /// Pass 1 of the pair matcher: the integer SADs of the left and right
  /// blocks against the 16x8 window of `b` at every (x + i, y + j) with i
  /// and j in [0, side), in j-outer, i-inner order: out[2k] is the left
  /// block's SAD at candidate k and out[2k + 1] the right block's. The loop
  /// does nothing else, so the eight reference rows stay in registers.
  void window_sads(const PaddedImage& b, int x, int y, int side,
                   std::uint32_t* out) const {
    const std::ptrdiff_t stride = b.stride();
#if defined(__SSE2__)
    const __m128i r0 = rows_[0], r1 = rows_[1], r2 = rows_[2], r3 = rows_[3],
                  r4 = rows_[4], r5 = rows_[5], r6 = rows_[6], r7 = rows_[7];
    for (int j = 0; j < side; ++j) {
      const std::uint8_t* rb = b.row(y + j) + x;
      for (int i = 0; i < side; ++i, out += 2) {
        const std::uint8_t* p = rb + i;
        // The loaded row is the destination operand, so no reference row
        // is copied per candidate.
        const auto sad = [&](__m128i ref, int row) {
          return _mm_sad_epu8(
              _mm_loadu_si128(
                  reinterpret_cast<const __m128i*>(p + row * stride)),
              ref);
        };
        const __m128i acc = _mm_add_epi32(
            _mm_add_epi32(_mm_add_epi32(sad(r0, 0), sad(r1, 1)),
                          _mm_add_epi32(sad(r2, 2), sad(r3, 3))),
            _mm_add_epi32(_mm_add_epi32(sad(r4, 4), sad(r5, 5)),
                          _mm_add_epi32(sad(r6, 6), sad(r7, 7))));
        // The sums sit in 32-bit lanes 0 and 2 (each at most
        // 8 * 8 * 255 = 16320); move them next to each other.
        _mm_storel_epi64(reinterpret_cast<__m128i*>(out),
                         _mm_shuffle_epi32(acc, _MM_SHUFFLE(3, 1, 2, 0)));
      }
    }
#else
    for (int j = 0; j < side; ++j) {
      for (int i = 0; i < side; ++i, out += 2) {
        const std::uint8_t* rb = b.row(y + j) + x + i;
        std::uint32_t left = 0, right = 0;
        for (int row = 0; row < 8; ++row, rb += stride) {
          for (int k = 0; k < 8; ++k) {
            left += abs_diff(rows_[row][k], rb[k]);
            right += abs_diff(rows_[row][8 + k], rb[8 + k]);
          }
        }
        out[0] = left;
        out[1] = right;
      }
    }
#endif
  }

 private:
#if defined(__SSE2__)
  __m128i rows_[8];
#else
  std::uint8_t rows_[8][16];
#endif
};

/// Per-thread candidate buffers of the pair matcher. Rows run on arbitrary
/// pool workers and capacity persists, so steady ticks allocate nothing
/// (DESIGN.md §11).
struct PairCandidates {
  std::vector<std::uint32_t> sads;  ///< pass 1: left, right per candidate
  std::vector<double> costs;        ///< pass 2: left, right per candidate
  /// Each candidate's penalty, twice (one per block), for the window at
  /// (x_lo, y_lo) with `side` candidates per row. Neighbouring pairs mostly
  /// share their seed, so the table is rebuilt only when the window moves.
  std::vector<double> penalties;
  int x_lo = 0, y_lo = 0, side = 0;
};

/// Pass 2 of the pair matcher: cost[2k + j] = double(sad[2k + j]) +
/// penalty[2k + j] for the `n` candidates k and both blocks j, the
/// reference's cost expression; returns each block's minimum cost. Costs
/// are finite and never -0.0, so any reduction order gives the same value:
/// the SSE2 body computes two lanes at a time and keeps four accumulators,
/// so the minimum is not one latency chain.
std::array<double, 2> pair_costs(const std::uint32_t* sad,
                                 const double* penalty, double* cost,
                                 std::size_t n) {
  std::size_t k = 0;
#if defined(__SSE2__)
  // A SAD is at most 16320, so the signed conversion is exact.
  const auto at = [&](std::size_t i) {
    const __m128d c = _mm_add_pd(
        _mm_cvtepi32_pd(
            _mm_loadl_epi64(reinterpret_cast<const __m128i*>(sad + 2 * i))),
        _mm_loadu_pd(penalty + 2 * i));
    _mm_storeu_pd(cost + 2 * i, c);
    return c;
  };
  const __m128d inf = _mm_set1_pd(std::numeric_limits<double>::infinity());
  __m128d m0 = inf, m1 = inf, m2 = inf, m3 = inf;
  for (; k + 4 <= n; k += 4) {
    m0 = _mm_min_pd(m0, at(k));
    m1 = _mm_min_pd(m1, at(k + 1));
    m2 = _mm_min_pd(m2, at(k + 2));
    m3 = _mm_min_pd(m3, at(k + 3));
  }
  for (; k < n; ++k) m0 = _mm_min_pd(m0, at(k));
  const __m128d m = _mm_min_pd(_mm_min_pd(m0, m1), _mm_min_pd(m2, m3));
  return {_mm_cvtsd_f64(m), _mm_cvtsd_f64(_mm_unpackhi_pd(m, m))};
#else
  std::array<double, 2> best = {std::numeric_limits<double>::infinity(),
                                std::numeric_limits<double>::infinity()};
  for (; k < 2 * n; ++k) {
    cost[k] = static_cast<double>(sad[k]) + penalty[k];
    best[k % 2] = std::min(best[k % 2], cost[k]);
  }
  return best;
#endif
}

/// Each block's winner: the first candidate k, in the window's dy-outer,
/// dx-inner order, whose cost equals the block's minimum `best`. That is
/// the one the reference's sequential strict `<` keeps (DESIGN.md §7).
/// `cost` is laid out as pair_costs() writes it and padded with +inf to
/// whole groups of four candidates; `best` is attained, so the scan ends.
std::array<int, 2> first_minimum(const double* cost,
                                 const std::array<double, 2>& best) {
  std::array<int, 2> first = {-1, -1};
#if defined(__SSE2__)
  // Four candidates per step: bit 2i + j of `hit` is candidate k + i of
  // block j.
  const __m128d target = _mm_set_pd(best[1], best[0]);
  const auto hits = [&](const double* c) {
    return _mm_movemask_pd(_mm_cmpeq_pd(_mm_loadu_pd(c), target));
  };
  for (int k = 0; first[0] < 0 || first[1] < 0; k += 4, cost += 8) {
    const int hit = hits(cost) | hits(cost + 2) << 2 | hits(cost + 4) << 4 |
                    hits(cost + 6) << 6;
    if (first[0] < 0 && (hit & 0x55) != 0)
      first[0] = k + __builtin_ctz(static_cast<unsigned>(hit & 0x55)) / 2;
    if (first[1] < 0 && (hit & 0xAA) != 0)
      first[1] = k + __builtin_ctz(static_cast<unsigned>(hit & 0xAA)) / 2;
  }
#else
  for (std::size_t j = 0; j < 2; ++j) {
    int k = 0;
    while (cost[2 * static_cast<std::size_t>(k) + j] != best[j]) ++k;
    first[j] = k;
  }
#endif
  return first;
}

}  // namespace

void SadBlock::load(const PaddedImage& a, int ax, int ay, int size) {
  size_ = size;
  const int chunks = size / 8;
  const int pairs = (size + 1) / 2;
  const int rem = size % 8;
  // Every byte is written below, so the buffer is resized, not cleared.
  packed_.resize(static_cast<std::size_t>(chunks * pairs * 16 + rem * size));
  std::uint8_t* out = packed_.data();
  for (int k = 0; k < chunks; ++k) {
    for (int y = 0; y < size; y += 2, out += 16) {
      std::memcpy(out, a.row(ay + y) + ax + 8 * k, 8);
      if (y + 1 < size)
        std::memcpy(out + 8, a.row(ay + y + 1) + ax + 8 * k, 8);
      else
        std::memset(out + 8, 0, 8);  // odd size: the kernel reads zeros
    }
  }
  for (int y = 0; y < size; ++y, out += rem)
    std::memcpy(out, a.row(ay + y) + ax + 8 * chunks,
                static_cast<std::size_t>(rem));
}

// Out of line on purpose: inlined into match_level's candidate loop, GCC 12
// compiled this runtime-size loop about 3x slower than a call to it (block
// side 12, BM_OpticalFlowBlock12).
[[gnu::noinline]] std::uint32_t SadBlock::sad(const PaddedImage& b, int bx,
                                              int by) const {
  const int size = size_;
  const int chunks = size / 8;
  const int rem = size % 8;
  const std::ptrdiff_t stride = b.stride();
  const std::uint8_t* const origin = b.row(by) + bx;
  const std::uint8_t* ref = packed_.data();
  std::uint32_t total = 0;
#if defined(__SSE2__)
  __m128i acc = _mm_setzero_si128();
  for (int k = 0; k < chunks; ++k) {
    const std::uint8_t* rb = origin + 8 * k;
    int y = 0;
    for (; y + 1 < size; y += 2, rb += 2 * stride, ref += 16) {
      const __m128i cand = _mm_unpacklo_epi64(
          _mm_loadl_epi64(reinterpret_cast<const __m128i*>(rb)),
          _mm_loadl_epi64(reinterpret_cast<const __m128i*>(rb + stride)));
      acc = _mm_add_epi64(
          acc, _mm_sad_epu8(
                   _mm_loadu_si128(reinterpret_cast<const __m128i*>(ref)),
                   cand));
    }
    if (y < size) {
      // Odd last row: both high halves are zero and contribute nothing.
      acc = _mm_add_epi64(
          acc, _mm_sad_epu8(
                   _mm_loadu_si128(reinterpret_cast<const __m128i*>(ref)),
                   _mm_loadl_epi64(reinterpret_cast<const __m128i*>(rb))));
      ref += 16;
    }
  }
  total = static_cast<std::uint32_t>(
      _mm_cvtsi128_si32(acc) +
      _mm_cvtsi128_si32(_mm_unpackhi_epi64(acc, acc)));
#else
  for (int k = 0; k < chunks; ++k) {
    const std::uint8_t* rb = origin + 8 * k;
    for (int y = 0; y < size; ++y, rb += stride) {
      const std::uint8_t* rr = ref + 16 * (y / 2) + 8 * (y % 2);
      for (int i = 0; i < 8; ++i) total += abs_diff(rr[i], rb[i]);
    }
    ref += 16 * ((size + 1) / 2);
  }
#endif
  if (rem != 0) {
    const std::uint8_t* rb = origin + 8 * chunks;
    for (int y = 0; y < size; ++y, rb += stride, ref += rem)
      for (int i = 0; i < rem; ++i) total += abs_diff(ref[i], rb[i]);
  }
  return total;
}

std::uint32_t padded_block_sad(const PaddedImage& a, int ax, int ay,
                               const PaddedImage& b, int bx, int by,
                               int size) {
  thread_local SadBlock block;  // packed capacity persists per thread
  block.load(a, ax, ay, size);
  return block.sad(b, bx, by);
}

void FlowScratch::advance() {
  std::swap(prev_pad_, cur_pad_);
  ready_ = built_;
  built_ = false;
}

int OpticalFlow::level_count(int width, int height) const {
  // Same stopping rule as the reference: level l exists iff level l-1 is at
  // least 2 blocks wide and tall.
  int levels = 1;
  while (levels < cfg_.pyramid_levels && width >= 2 * cfg_.block_size &&
         height >= 2 * cfg_.block_size) {
    width = std::max(1, width / 2);
    height = std::max(1, height / 2);
    ++levels;
  }
  return levels;
}

int OpticalFlow::level_pad(int levels, int level, int width) const {
  // Pad covers the worst-case block read at each level: the seed chain bounds
  // the displacement at level l by r * (2^(levels-l) - 1), and the block
  // itself extends block_size pixels past its origin. The 8x8 pair matcher
  // reads two blocks from each even block's origin; past the last block
  // that stays inside one block side of the image edge, unless the level is
  // narrower than one block (DESIGN.md §7), which the last term covers.
  return cfg_.search_radius * ((1 << (levels - level)) - 1) +
         cfg_.block_size + std::max(0, cfg_.block_size - width);
}

PaddedImage& OpticalFlow::render_target(FlowScratch& s, int width,
                                        int height) const {
  assert(width > 0 && height > 0);
  const int levels = level_count(width, height);
  s.cur_pad_.resize(static_cast<std::size_t>(levels));
  PaddedImage& base = s.cur_pad_.front();
  base.reshape(width, height, level_pad(levels, 0, width));
  s.built_ = false;
  return base;
}

int OpticalFlow::build_cur_pyramid(FlowScratch& s) const {
  assert(!s.cur_pad_.empty() && !s.cur_pad_.front().empty());
  const int levels = static_cast<int>(s.cur_pad_.size());
  for (int l = 1; l < levels; ++l) {
    const PaddedImage& src = s.cur_pad_[static_cast<std::size_t>(l - 1)];
    src.downsample_into(s.cur_pad_[static_cast<std::size_t>(l)],
                        level_pad(levels, l, std::max(1, src.width() / 2)));
  }
  s.built_ = true;
  return levels;
}

void OpticalFlow::rebase(FlowScratch& scratch) const {
  build_cur_pyramid(scratch);
  scratch.advance();
}

void OpticalFlow::match_level(const PaddedImage& pa, const PaddedImage& pb,
                              const geom::Vec2* coarse, int ccols, int crows,
                              geom::Vec2* est, double* res, int cols, int rows,
                              util::ThreadPool* pool) const {
  const int bs = cfg_.block_size;
  const int radius = cfg_.search_radius;

  // Block c of row r searches around coarse cell (c / 2, r / 2), clamped to
  // the coarse grid, so columns 2k and 2k + 1 share their seed.
  auto seed_of = [&](int c, int r) -> std::pair<int, int> {
    if (coarse == nullptr) return {0, 0};
    const int pc = std::min(c / 2, ccols - 1);
    const int pr = std::min(r / 2, crows - 1);
    const geom::Vec2& s = coarse[static_cast<std::size_t>(pr) *
                                     static_cast<std::size_t>(ccols) +
                                 static_cast<std::size_t>(pc)];
    return {static_cast<int>(std::lround(s.x * 2.0)),
            static_cast<int>(std::lround(s.y * 2.0))};
  };
  auto store = [&](int c, int r, double best, int best_dx, int best_dy) {
    const std::size_t idx =
        static_cast<std::size_t>(r) * static_cast<std::size_t>(cols) +
        static_cast<std::size_t>(c);
    est[idx] = {static_cast<double>(best_dx), static_cast<double>(best_dy)};
    if (res != nullptr) res[idx] = best / static_cast<double>(bs * bs);
  };
  // A candidate's cost is the reference's `double(sad) + penalty` on its
  // full integer SAD (exact in any summation order), and every block keeps
  // the reference's winner (DESIGN.md §7). A slight zero-motion bias
  // resolves flat-texture ties toward rest.
  auto penalty_of = [](int dx, int dy) {
    return 0.1 * (std::abs(dx) + std::abs(dy));
  };

  // Default block size: the blocks of each column pair search the same
  // window, so one 16-byte SAD per row scores both. An odd last column runs
  // with a phantom right partner whose result is dropped.
  auto match_row_pairs = [&](int r) {
    thread_local PairCandidates cand;
    const int side = 2 * radius + 1;
    const std::size_t n =
        static_cast<std::size_t>(side) * static_cast<std::size_t>(side);
    cand.sads.resize(2 * n);
    // Padded with +inf to whole groups of four for first_minimum().
    cand.costs.assign(2 * ((n + 3) / 4 * 4),
                      std::numeric_limits<double>::infinity());
    cand.penalties.resize(2 * n);
    const int by = r * 8;
    for (int c = 0; c < cols; c += 2) {
      const int bx = c * 8;
      const auto [sx, sy] = seed_of(c, r);
      // The pad bound (build_cur_pyramid): the 16-byte rows stay inside it.
      assert(bx + sx - radius >= -pb.pad() &&
             bx + sx + radius + 16 <= pb.width() + pb.pad() &&
             bx + 16 <= pa.width() + pa.pad());
      const int x_lo = sx - radius, y_lo = sy - radius;
      // Pass 1: both blocks' integer SADs at every candidate.
      PairRef(pa, bx, by).window_sads(pb, bx + x_lo, by + y_lo, side,
                                      cand.sads.data());
      // Pass 2: both blocks' costs side by side and each block's minimum.
      if (x_lo != cand.x_lo || y_lo != cand.y_lo || side != cand.side) {
        double* p = cand.penalties.data();
        for (int dy = y_lo; dy < y_lo + side; ++dy)
          for (int dx = x_lo; dx < x_lo + side; ++dx, p += 2)
            p[0] = p[1] = penalty_of(dx, dy);
        cand.x_lo = x_lo;
        cand.y_lo = y_lo;
        cand.side = side;
      }
      const std::array<double, 2> best = pair_costs(
          cand.sads.data(), cand.penalties.data(), cand.costs.data(), n);
      const std::array<int, 2> first =
          first_minimum(cand.costs.data(), best);
      store(c, r, best[0], x_lo + first[0] % side, y_lo + first[0] / side);
      if (c + 1 < cols)
        store(c + 1, r, best[1], x_lo + first[1] % side,
              y_lo + first[1] / side);
    }
  };

  // Any other block size: the runtime-size kernel behind SadBlock::sad().
  auto match_row_blocks = [&](int r) {
    // Rows run on arbitrary pool workers; the packed reference's capacity
    // persists per thread (zero steady-state allocation, DESIGN.md §11).
    thread_local SadBlock ref;
    const int by = r * bs;
    for (int c = 0; c < cols; ++c) {
      const int bx = c * bs;
      const auto [sx, sy] = seed_of(c, r);
      ref.load(pa, bx, by, bs);
      double best = std::numeric_limits<double>::infinity();
      int best_dx = sx, best_dy = sy;
      for (int dy = sy - radius; dy <= sy + radius; ++dy) {
        for (int dx = sx - radius; dx <= sx + radius; ++dx) {
          const double cost =
              static_cast<double>(ref.sad(pb, bx + dx, by + dy)) +
              penalty_of(dx, dy);
          if (cost < best) {
            best = cost;
            best_dx = dx;
            best_dy = dy;
          }
        }
      }
      store(c, r, best, best_dx, best_dy);
    }
  };

  auto match_row = [&](std::size_t row_index) {
    const int r = static_cast<int>(row_index);
    if (bs == 8)
      match_row_pairs(r);
    else
      match_row_blocks(r);
  };

  if (pool != nullptr && rows >= 4) {
    // Tiles (rows) write disjoint est/res ranges and read only `coarse`,
    // which is complete before this level starts — deterministic under any
    // tile-to-worker mapping.
    pool->run_tiles(static_cast<std::size_t>(rows), match_row);
  } else {
    for (int r = 0; r < rows; ++r) match_row(static_cast<std::size_t>(r));
  }
}

void OpticalFlow::compute(FlowScratch& scratch, FlowField& out,
                          util::ThreadPool* pool) const {
  assert(scratch.ready());
  assert(scratch.cur_frame().width() == scratch.prev_pad_.front().width() &&
         scratch.cur_frame().height() == scratch.prev_pad_.front().height());

  const int levels = build_cur_pyramid(scratch);
  assert(static_cast<int>(scratch.prev_pad_.size()) == levels);

  out.block_size = cfg_.block_size;

  // Coarse-to-fine: the estimate from the coarser level (scaled 2x) seeds the
  // search window at the finer level. The finest level writes straight into
  // the caller's FlowField buffers.
  const geom::Vec2* coarse = nullptr;
  int ccols = 0, crows = 0;
  for (int l = levels - 1; l >= 0; --l) {
    const PaddedImage& pa = scratch.prev_pad_[static_cast<std::size_t>(l)];
    const PaddedImage& pb = scratch.cur_pad_[static_cast<std::size_t>(l)];
    const int cols = std::max(1, pa.width() / cfg_.block_size);
    const int rows = std::max(1, pa.height() / cfg_.block_size);
    const std::size_t cells =
        static_cast<std::size_t>(cols) * static_cast<std::size_t>(rows);
    if (l == 0) {
      out.cols = cols;
      out.rows = rows;
      out.flow.resize(cells);
      out.residual.resize(cells);
      match_level(pa, pb, coarse, ccols, crows, out.flow.data(),
                  out.residual.data(), cols, rows, pool);
    } else {
      scratch.est_.resize(cells);
      match_level(pa, pb, coarse, ccols, crows, scratch.est_.data(), nullptr,
                  cols, rows, pool);
      std::swap(scratch.est_, scratch.coarse_);
      coarse = scratch.coarse_.data();
      ccols = cols;
      crows = rows;
    }
  }
}

FlowField OpticalFlow::compute(const Image& prev, const Image& cur) const {
  assert(!prev.empty() && prev.width() == cur.width() &&
         prev.height() == cur.height());
  FlowScratch scratch;
  auto load = [&](const Image& frame) {
    PaddedImage& target = render_target(scratch, frame.width(), frame.height());
    target.assign(frame, target.pad());
  };
  load(prev);
  rebase(scratch);
  load(cur);
  FlowField out;
  compute(scratch, out, nullptr);
  return out;
}

geom::Vec2 median_flow_in(const FlowField& field, const geom::BBox& box) {
  // Per-thread scratch: this runs per track per frame on pool workers, and
  // the zero-allocation steady-tick invariant (DESIGN.md §11) forbids a
  // fresh vector pair here. Capacity persists per thread.
  thread_local std::vector<double> xs, ys;
  xs.clear();
  ys.clear();
  const auto [c0, c1] = covered_blocks(box.x, box.x2(), field.block_size,
                                       field.cols);
  const auto [r0, r1] = covered_blocks(box.y, box.y2(), field.block_size,
                                       field.rows);
  for (int r = r0; r <= r1; ++r) {
    for (int c = c0; c <= c1; ++c) {
      const geom::Vec2 center{(c + 0.5) * field.block_size,
                              (r + 0.5) * field.block_size};
      if (!box.contains(center)) continue;
      xs.push_back(field.at(c, r).x);
      ys.push_back(field.at(c, r).y);
    }
  }
  if (xs.empty()) return {0.0, 0.0};
  auto median = [](std::vector<double>& v) {
    const std::size_t mid = v.size() / 2;
    std::nth_element(v.begin(), v.begin() + static_cast<long>(mid), v.end());
    return v[mid];
  };
  return {median(xs), median(ys)};
}

double mean_flow_magnitude(const FlowField& field) {
  if (field.flow.empty()) return 0.0;
  double acc = 0.0;
  for (const geom::Vec2& v : field.flow) acc += v.norm();
  return acc / static_cast<double>(field.flow.size());
}

}  // namespace mvs::vision
