#pragma once
// Cell oracles built from the data-driven cross-camera models (assoc) for
// the mask construction the core scheduler consumes (paper Sec. III-C2:
// "the computation of the coverage set for each cell relies on the
// cross-camera classification and regression models").

#include <cstdint>
#include <utility>
#include <vector>

#include "assoc/association.hpp"
#include "geometry/grid.hpp"

namespace mvs::util {
class ThreadPool;
}

namespace mvs::runtime {

/// Side of the nominal probe box placed at a cell center when querying the
/// pair models about that cell's coverage.
inline constexpr double kProbeBoxSide = 64.0;

/// Cameras (`cam` included, ascending) able to see the world region behind
/// pixel `center` of camera `cam`, per the trained classification models.
std::vector<int> coverage_of(const assoc::CrossCameraAssociator& associator,
                             int cam, geom::Vec2 center);

/// Deterministic world-region key of the same point, given its `cover`
/// (coverage_of's result): the probe mapped to the lowest-index covering
/// camera (the canonical view) and quantized, so all cameras derive the
/// same key for the same region. Used by the Static Partitioning masks.
std::uint64_t region_key_of(const assoc::CrossCameraAssociator& associator,
                            int cam, geom::Vec2 center,
                            const std::vector<int>& cover);

/// One camera's cell oracles, computed once per deployment: coverage sets
/// and region keys depend only on camera poses.
struct CellCache {
  geom::Grid grid;
  std::vector<std::vector<int>> coverage;  ///< per flat cell
  std::vector<std::uint64_t> region_key;   ///< per flat cell

  /// Flat index of the cell containing pixel `p`.
  std::size_t cell_of(geom::Vec2 p) const { return grid.flat(grid.cell_at(p)); }
};

/// Cell caches of every camera (`frame_sizes[i]` = {width, height}) on a
/// `cell_px` grid. (camera, cell-row) tiles run on `pool`; every cell is a
/// pure function of the models, so the result does not depend on the pool.
std::vector<CellCache> build_cell_caches(
    const assoc::CrossCameraAssociator& associator,
    const std::vector<std::pair<double, double>>& frame_sizes, int cell_px,
    util::ThreadPool& pool);

}  // namespace mvs::runtime
