#include <gtest/gtest.h>

#include <cmath>
#include <utility>
#include <vector>

#include "gcm/decomp.hpp"
#include "gcm/grid.hpp"
#include "tests/gcm/gcm_test_util.hpp"

namespace hyades::gcm {
namespace {

using testing::small_ocean;

TEST(Decomp, TileCoordsAndOffsets) {
  const ModelConfig cfg = small_ocean(4, 2);
  const Decomp d(cfg, 5);  // tile (1, 1)
  EXPECT_EQ(d.tx, 1);
  EXPECT_EQ(d.ty, 1);
  EXPECT_EQ(d.snx, 4);
  EXPECT_EQ(d.sny, 4);
  EXPECT_EQ(d.i0, 4);
  EXPECT_EQ(d.j0, 4);
  EXPECT_EQ(d.ext_x(), 4 + 2 * cfg.halo);
  EXPECT_EQ(d.global_i(cfg.halo), 4);
  EXPECT_EQ(d.global_j(cfg.halo + 3), 7);
}

TEST(Decomp, NeighborsPeriodicInXClosedInY) {
  const ModelConfig cfg = small_ocean(4, 2);
  {
    const Decomp d(cfg, 0);  // tile (0,0): southwest corner
    EXPECT_EQ(d.neighbors[comm::kEast], 1);
    EXPECT_EQ(d.neighbors[comm::kWest], 3);  // periodic wrap
    EXPECT_EQ(d.neighbors[comm::kNorth], 4);
    EXPECT_EQ(d.neighbors[comm::kSouth], -1);
  }
  {
    const Decomp d(cfg, 7);  // tile (3,1): northeast corner
    EXPECT_EQ(d.neighbors[comm::kEast], 4);  // wraps to tile (0,1)
    EXPECT_EQ(d.neighbors[comm::kWest], 6);
    EXPECT_EQ(d.neighbors[comm::kNorth], -1);
    EXPECT_EQ(d.neighbors[comm::kSouth], 3);
  }
}

TEST(Decomp, RejectsBadRank) {
  const ModelConfig cfg = small_ocean(2, 2);
  EXPECT_THROW(Decomp(cfg, 4), std::invalid_argument);
  EXPECT_THROW(Decomp(cfg, -1), std::invalid_argument);
}

TEST(Decomp, BadRankCarriesTypedCode) {
  const ModelConfig cfg = small_ocean(2, 2);
  try {
    const Decomp d(cfg, 4);
    FAIL() << "expected DecompError";
  } catch (const DecompError& e) {
    EXPECT_EQ(e.code(), DecompError::Code::kBadRank);
  }
}

TEST(Decomp, RankOfRejectsTileYOutsideGrid) {
  const ModelConfig cfg = small_ocean(2, 2);
  const Decomp d(cfg, 0);
  // x wraps periodically; y must stay inside the grid.
  EXPECT_EQ(d.rank_of(-1, 0), 1);
  EXPECT_EQ(d.rank_of(2, 1), 2);
  EXPECT_THROW((void)d.rank_of(0, -1), DecompError);
  EXPECT_THROW((void)d.rank_of(0, 2), DecompError);
  try {
    (void)d.rank_of(0, cfg.py);
    FAIL() << "expected DecompError";
  } catch (const DecompError& e) {
    EXPECT_EQ(e.code(), DecompError::Code::kBadRank);
  }
}

TEST(Decomp, OneByNTilesWrapOntoThemselves) {
  // A 1 x py strip decomposition: with a single tile across x, the
  // periodic east/west neighbors are the tile itself.
  ModelConfig cfg = small_ocean(1, 2);
  cfg.halo = 2;
  cfg.validate();
  const Decomp d(cfg, 1);
  EXPECT_EQ(d.snx, cfg.nx);
  EXPECT_EQ(d.neighbors[comm::kEast], 1);
  EXPECT_EQ(d.neighbors[comm::kWest], 1);
  EXPECT_EQ(d.neighbors[comm::kSouth], 0);
  EXPECT_EQ(d.neighbors[comm::kNorth], -1);
}

TEST(Decomp, HaloWiderThanSmallestTileIsTypedError) {
  // 8 tiles across 16 cells leave 2-cell tiles; a 3-wide halo would
  // read past a neighbor's interior.
  ModelConfig cfg = small_ocean(8, 1);
  cfg.halo = 3;
  try {
    const Decomp d(cfg, 0);
    FAIL() << "expected DecompError";
  } catch (const DecompError& e) {
    EXPECT_EQ(e.code(), DecompError::Code::kHaloTooWide);
  }
}

TEST(Decomp, MoreTilesThanCellsIsTypedError) {
  ModelConfig cfg = small_ocean(1, 1);
  cfg.px = cfg.nx + 1;
  try {
    const Decomp d(cfg, 0);
    FAIL() << "expected DecompError";
  } catch (const DecompError& e) {
    EXPECT_EQ(e.code(), DecompError::Code::kBadShape);
  }
}

TEST(Decomp, RemainderTilesPartitionTheGrid) {
  // 3 x 3 tiles over a 16 x 8 grid: neither axis divides evenly; the
  // leading tiles absorb one extra column/row each, the tiles still
  // partition the grid exactly, and the strip-size invariants hold
  // (row-mates share sny, column-mates share snx).
  ModelConfig cfg = small_ocean(1, 1);
  cfg.px = 3;
  cfg.py = 3;
  cfg.halo = 2;
  std::vector<Decomp> tiles;
  for (int r = 0; r < cfg.tiles(); ++r) tiles.emplace_back(cfg, r);
  int covered_x = 0;
  for (int tx = 0; tx < cfg.px; ++tx) {
    EXPECT_EQ(tiles[static_cast<std::size_t>(tx)].i0, covered_x);
    covered_x += tiles[static_cast<std::size_t>(tx)].snx;
  }
  EXPECT_EQ(covered_x, cfg.nx);
  int covered_y = 0;
  for (int ty = 0; ty < cfg.py; ++ty) {
    const auto r = static_cast<std::size_t>(ty * cfg.px);
    EXPECT_EQ(tiles[r].j0, covered_y);
    covered_y += tiles[r].sny;
  }
  EXPECT_EQ(covered_y, cfg.ny);
  for (const Decomp& d : tiles) {
    EXPECT_EQ(d.snx, tiles[static_cast<std::size_t>(d.tx)].snx);
    EXPECT_EQ(d.sny, tiles[static_cast<std::size_t>(d.ty * cfg.px)].sny);
    EXPECT_GE(d.snx, cfg.halo);
    EXPECT_GE(d.sny, cfg.halo);
  }
}

TEST(TileGrid, MetricsShrinkTowardPoles) {
  const ModelConfig cfg = small_ocean(1, 1);
  const Decomp d(cfg, 0);
  const TileGrid g(cfg, d);
  // dx largest near the equator (middle rows), smaller at the walls.
  const auto jm = static_cast<std::size_t>(cfg.halo + cfg.ny / 2);
  const auto j0 = static_cast<std::size_t>(cfg.halo);
  EXPECT_GT(g.dxC[jm], g.dxC[j0]);
  EXPECT_GT(g.dyC, 0.0);
  // Coriolis negative in the south, positive in the north.
  EXPECT_LT(g.fC[j0], 0.0);
  EXPECT_GT(g.fC[static_cast<std::size_t>(cfg.halo + cfg.ny - 1)], 0.0);
}

TEST(TileGrid, FlatBottomDepthAndLevels) {
  const ModelConfig cfg = small_ocean(1, 1);
  const Decomp d(cfg, 0);
  const TileGrid g(cfg, d);
  for (int i = cfg.halo; i < cfg.halo + cfg.nx; ++i) {
    for (int j = cfg.halo; j < cfg.halo + cfg.ny; ++j) {
      EXPECT_DOUBLE_EQ(g.depth(static_cast<std::size_t>(i),
                               static_cast<std::size_t>(j)),
                       cfg.total_depth);
    }
  }
  double total = 0;
  for (double dz : g.dzf) total += dz;
  EXPECT_NEAR(total, cfg.total_depth, 1e-9);
  // zC strictly increasing (downward).
  for (std::size_t k = 1; k < g.zC.size(); ++k) {
    EXPECT_GT(g.zC[k], g.zC[k - 1]);
  }
}

TEST(TileGrid, WallsAreLand) {
  const ModelConfig cfg = small_ocean(1, 1);
  const Decomp d(cfg, 0);
  const TileGrid g(cfg, d);
  // Halo rows beyond the global y extent must be fully masked.
  for (int i = 0; i < d.ext_x(); ++i) {
    for (int j = 0; j < cfg.halo; ++j) {
      for (int k = 0; k < cfg.nz; ++k) {
        EXPECT_EQ(g.hFacC(static_cast<std::size_t>(i),
                          static_cast<std::size_t>(j),
                          static_cast<std::size_t>(k)),
                  0.0);
      }
    }
  }
}

TEST(TileGrid, RidgeCreatesPartialCells) {
  ModelConfig cfg = small_ocean(1, 1);
  cfg.topography = ModelConfig::Topography::kRidge;
  const Decomp d(cfg, 0);
  const TileGrid g(cfg, d);
  bool found_partial = false;
  bool found_closed = false;
  for (int i = cfg.halo; i < cfg.halo + cfg.nx; ++i) {
    for (int j = cfg.halo; j < cfg.halo + cfg.ny; ++j) {
      for (int k = 0; k < cfg.nz; ++k) {
        const double h = g.hFacC(static_cast<std::size_t>(i),
                                 static_cast<std::size_t>(j),
                                 static_cast<std::size_t>(k));
        if (h > 0 && h < 1) found_partial = true;
        if (h == 0 && k == cfg.nz - 1) found_closed = true;
      }
    }
  }
  EXPECT_TRUE(found_partial);  // shaved cells on the ridge flanks
  EXPECT_TRUE(found_closed);   // the crest closes the deepest level
}

TEST(TileGrid, ContinentsCreateLandColumns) {
  ModelConfig cfg = small_ocean(1, 1);
  cfg.nx = 32;
  cfg.ny = 16;
  cfg.topography = ModelConfig::Topography::kContinents;
  cfg.validate();
  const Decomp d(cfg, 0);
  const TileGrid g(cfg, d);
  EXPECT_LT(g.wet_columns(), static_cast<std::int64_t>(cfg.nx) * cfg.ny);
  EXPECT_GT(g.wet_columns(), 0);
}

TEST(TileGrid, FaceFractionIsMinOfNeighbors) {
  ModelConfig cfg = small_ocean(1, 1);
  cfg.topography = ModelConfig::Topography::kRidge;
  const Decomp d(cfg, 0);
  const TileGrid g(cfg, d);
  for (int i = 1; i < d.ext_x(); ++i) {
    for (int j = 1; j < d.ext_y(); ++j) {
      for (int k = 0; k < cfg.nz; ++k) {
        const auto si = static_cast<std::size_t>(i);
        const auto sj = static_cast<std::size_t>(j);
        const auto sk = static_cast<std::size_t>(k);
        EXPECT_DOUBLE_EQ(g.hFacW(si, sj, sk),
                         std::min(g.hFacC(si - 1, sj, sk), g.hFacC(si, sj, sk)));
        EXPECT_DOUBLE_EQ(g.hFacS(si, sj, sk),
                         std::min(g.hFacC(si, sj - 1, sk), g.hFacC(si, sj, sk)));
      }
    }
  }
}

TEST(TileGrid, WetCensusConsistent) {
  const ModelConfig cfg = small_ocean(2, 2);
  std::int64_t cells = 0, cols = 0;
  for (int r = 0; r < 4; ++r) {
    const Decomp d(cfg, r);
    const TileGrid g(cfg, d);
    cells += g.wet_cells();
    cols += g.wet_columns();
  }
  EXPECT_EQ(cells, static_cast<std::int64_t>(cfg.nx) * cfg.ny * cfg.nz);
  EXPECT_EQ(cols, static_cast<std::int64_t>(cfg.nx) * cfg.ny);
}

}  // namespace
}  // namespace hyades::gcm
