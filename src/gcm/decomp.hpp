// Tiled domain decomposition (Section 4, Figure 5): the global lateral
// grid is carved into px x py tiles, each extending over the full depth.
// Tiles carry a halo in which neighbouring tiles' data are duplicated.
//
// Arbitrary rank counts are supported: when px (py) does not divide nx
// (ny) the remainder is spread one extra column (row) at a time over
// the leading tiles, so tile sizes differ by at most one.  All tiles in
// a row share sny and all tiles in a column share snx, which keeps the
// four halo strip sizes agreed between exchange partners.  Degenerate
// shapes -- more tiles than cells, or a halo wider than the smallest
// tile -- fail fast with a typed DecompError instead of silently
// corrupting halo exchanges.
#pragma once

#include <array>
#include <stdexcept>
#include <string>

#include "comm/comm.hpp"
#include "gcm/config.hpp"

namespace hyades::gcm {

class DecompError : public std::invalid_argument {
 public:
  enum class Code {
    kBadRank,      // rank / tile coordinate outside the tile grid
    kBadShape,     // more tiles than grid cells along an axis
    kHaloTooWide,  // halo exceeds the smallest tile's interior
  };
  DecompError(Code code, const std::string& what)
      : std::invalid_argument(what), code_(code) {}
  [[nodiscard]] Code code() const { return code_; }

 private:
  Code code_;
};

struct Decomp {
  Decomp(const ModelConfig& cfg, int group_rank);

  int px, py;     // tile grid shape
  int tx, ty;     // this tile's coordinates
  int snx, sny;   // interior tile size (remainder tiles are one larger)
  int halo;       // halo width
  int i0, j0;     // global index of the tile's first interior cell

  // Group ranks of the four neighbours (periodic in x, closed in y);
  // -1 where the domain ends.
  std::array<int, comm::kDirections> neighbors;

  // Rank owning tile (tile_x, tile_y); tile_x wraps periodically,
  // tile_y must lie inside the grid (throws DecompError otherwise).
  [[nodiscard]] int rank_of(int tile_x, int tile_y) const {
    if (tile_y < 0 || tile_y >= py) {
      throw DecompError(DecompError::Code::kBadRank,
                        "Decomp::rank_of: tile_y outside grid");
    }
    return tile_y * px + ((tile_x % px) + px) % px;
  }
  // Total allocated extent including halos.
  [[nodiscard]] int ext_x() const { return snx + 2 * halo; }
  [[nodiscard]] int ext_y() const { return sny + 2 * halo; }
  // Global j for a local (halo-offset) j index.
  [[nodiscard]] int global_j(int j_local) const { return j0 + j_local - halo; }
  [[nodiscard]] int global_i(int i_local) const { return i0 + i_local - halo; }
};

}  // namespace hyades::gcm
