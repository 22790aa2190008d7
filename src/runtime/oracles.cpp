#include "runtime/oracles.hpp"

#include "util/thread_pool.hpp"

namespace mvs::runtime {

namespace {

geom::BBox probe_box(geom::Vec2 center) {
  return geom::BBox::from_center(center, kProbeBoxSide, kProbeBoxSide);
}

}  // namespace

std::vector<int> coverage_of(const assoc::CrossCameraAssociator& associator,
                             int cam, geom::Vec2 center) {
  thread_local std::vector<char> present;
  associator.present_on(static_cast<std::size_t>(cam), probe_box(center),
                        present);
  std::vector<int> cover;
  for (std::size_t c = 0; c < present.size(); ++c)
    if (present[c]) cover.push_back(static_cast<int>(c));
  return cover;
}

std::uint64_t region_key_of(const assoc::CrossCameraAssociator& associator,
                            int cam, geom::Vec2 center,
                            const std::vector<int>& cover) {
  const int canonical = cover.front();  // sorted -> lowest index
  geom::Vec2 canon_center = center;
  if (canonical != cam) {
    canon_center = associator
                       .predict_box(static_cast<std::size_t>(cam),
                                    static_cast<std::size_t>(canonical),
                                    probe_box(center))
                       .center();
  }
  // Quantize to 64-px world cells on the canonical camera.
  const auto qx = static_cast<std::int64_t>(canon_center.x / 64.0);
  const auto qy = static_cast<std::int64_t>(canon_center.y / 64.0);
  return static_cast<std::uint64_t>(canonical) * 0x100000000ULL ^
         (static_cast<std::uint64_t>(qy & 0xFFFF) << 16) ^
         static_cast<std::uint64_t>(qx & 0xFFFF);
}

std::vector<CellCache> build_cell_caches(
    const assoc::CrossCameraAssociator& associator,
    const std::vector<std::pair<double, double>>& frame_sizes, int cell_px,
    util::ThreadPool& pool) {
  std::vector<CellCache> caches;
  std::vector<std::pair<int, int>> tiles;  // (camera, cell row)
  for (std::size_t i = 0; i < frame_sizes.size(); ++i) {
    const geom::Grid grid(static_cast<int>(frame_sizes[i].first),
                          static_cast<int>(frame_sizes[i].second), cell_px);
    caches.push_back({grid, std::vector<std::vector<int>>(grid.cell_count()),
                      std::vector<std::uint64_t>(grid.cell_count())});
    for (int r = 0; r < grid.rows(); ++r)
      tiles.emplace_back(static_cast<int>(i), r);
  }
  // A tile writes only its own row's cells.
  pool.run_tiles(tiles.size(), [&](std::size_t t) {
    const auto [cam, r] = tiles[t];
    CellCache& cache = caches[static_cast<std::size_t>(cam)];
    for (int c = 0; c < cache.grid.cols(); ++c) {
      const geom::CellIndex cell{c, r};
      const geom::Vec2 center = cache.grid.cell_box(cell).center();
      const std::size_t flat = cache.grid.flat(cell);
      cache.coverage[flat] = coverage_of(associator, cam, center);
      cache.region_key[flat] =
          region_key_of(associator, cam, center, cache.coverage[flat]);
    }
  });
  return caches;
}

}  // namespace mvs::runtime
