#include "gcm/decomp.hpp"

#include <algorithm>

namespace hyades::gcm {

namespace {

// Interior size of tile `t` of `p` tiles over `n` cells: the remainder
// n % p is spread one cell at a time over the leading tiles, so sizes
// differ by at most one and depend only on the tile's own coordinate
// (all row-mates share sny, all column-mates share snx -- the invariant
// the halo exchange strip sizes rely on).  Identical to n / p whenever
// p divides n.
int tile_span(int n, int p, int t) { return n / p + (t < n % p ? 1 : 0); }

// Global offset of tile `t`'s first interior cell.
int tile_start(int n, int p, int t) { return t * (n / p) + std::min(t, n % p); }

void check_shape(const ModelConfig& cfg) {
  if (cfg.px < 1 || cfg.py < 1 || cfg.px > cfg.nx || cfg.py > cfg.ny) {
    throw DecompError(DecompError::Code::kBadShape,
                      "Decomp: more tiles than grid cells");
  }
  // The halo must fit the *smallest* tile (the floor-division size);
  // a wider halo would read past a neighbour's interior and silently
  // corrupt the exchange.
  if (cfg.halo > cfg.nx / cfg.px || cfg.halo > cfg.ny / cfg.py) {
    throw DecompError(DecompError::Code::kHaloTooWide,
                      "Decomp: halo wider than smallest tile");
  }
}

}  // namespace

Decomp::Decomp(const ModelConfig& cfg, int group_rank)
    : px(cfg.px),
      py(cfg.py),
      tx(group_rank % std::max(cfg.px, 1)),
      ty(group_rank / std::max(cfg.px, 1)),
      halo(cfg.halo) {
  check_shape(cfg);
  if (group_rank < 0 || group_rank >= cfg.tiles()) {
    throw DecompError(DecompError::Code::kBadRank,
                      "Decomp: rank outside tile grid");
  }
  snx = tile_span(cfg.nx, px, tx);
  sny = tile_span(cfg.ny, py, ty);
  i0 = tile_start(cfg.nx, px, tx);
  j0 = tile_start(cfg.ny, py, ty);
  neighbors[comm::kEast] = rank_of(tx + 1, ty);
  neighbors[comm::kWest] = rank_of(tx - 1, ty);
  neighbors[comm::kNorth] = ty + 1 < py ? rank_of(tx, ty + 1) : -1;
  neighbors[comm::kSouth] = ty - 1 >= 0 ? rank_of(tx, ty - 1) : -1;
}

}  // namespace hyades::gcm
