// Bit-level contracts of the elliptic operators' host kernels, on the
// tiles the benchmarks run: the ocean preset (continents) and the
// atmosphere preset (flat, and on continents so that its 10-level
// columns meet land too), each as one 128x64 tile and as every rank of
// a 4x4 tiling.  The operators are tile-local, so every rank's tile is
// built on this thread from its Decomp; no runtime is needed.
//
// Inputs fill whole arrays, halos included, from a seeded generator and
// plant +0.0 and -0.0 among them: the sign of an exact zero is where a
// restructured kernel most easily differs from the loop it replaces.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "gcm/elliptic.hpp"
#include "gcm/elliptic3.hpp"
#include "support/rng.hpp"

namespace hyades::gcm {
namespace {

struct TileSet {
  std::string name;
  ModelConfig cfg;
};

std::vector<TileSet> tile_sets() {
  std::vector<TileSet> out;
  for (const int p : {1, 4}) {
    const std::string at = " " + std::to_string(p) + "x" + std::to_string(p);
    out.push_back({"ocean" + at, ocean_preset(p, p)});
    out.push_back({"atmosphere" + at, atmosphere_preset(p, p)});
    ModelConfig land = atmosphere_preset(p, p);
    land.topography = ModelConfig::Topography::kContinents;
    land.validate();
    out.push_back({"atmosphere on continents" + at, land});
  }
  return out;
}

// One rank's tile: decomposition, grid and both operators.
struct Tile {
  Decomp dec;
  TileGrid grid;
  EllipticOperator op;
  EllipticOperator3 op3;
  Tile(const ModelConfig& cfg, int rank)
      : dec(cfg, rank), grid(cfg, dec), op(cfg, dec, grid),
        op3(cfg, dec, grid) {}
};

template <typename Fn>
void for_each_tile(const Fn& fn) {
  for (const TileSet& set : tile_sets()) {
    for (int rank = 0; rank < set.cfg.px * set.cfg.py; ++rank) {
      const auto tile = std::make_unique<Tile>(set.cfg, rank);
      fn(set.name + " rank " + std::to_string(rank), *tile);
    }
  }
}

// Every entry from [-1, 1], except that about one in eight is +0.0 or
// -0.0.
template <typename Array>
void fill(Array& f, SplitMix64& rng) {
  for (double& x : f) {
    const double v = rng.next_in(-1.0, 1.0);
    const auto pick = rng.next_below(16);
    x = pick == 0 ? 0.0 : pick == 1 ? -0.0 : v;
  }
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

template <typename Array>
bool same_bits(const Array& a, const Array& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

// <p, out> over the interior in (i, j) order, as CG's dot_interior sums.
double interior_dot(const Decomp& dec, const Array2D<double>& p,
                    const Array2D<double>& out) {
  double s = 0.0;
  for (int i = dec.halo; i < dec.halo + dec.snx; ++i) {
    for (int j = dec.halo; j < dec.halo + dec.sny; ++j) {
      const auto si = static_cast<std::size_t>(i);
      const auto sj = static_cast<std::size_t>(j);
      s += p(si, sj) * out(si, sj);
    }
  }
  return s;
}

// The same in (i, j, k) order.
double interior_dot(const Decomp& dec, const Array3D<double>& p,
                    const Array3D<double>& out) {
  double s = 0.0;
  for (int i = dec.halo; i < dec.halo + dec.snx; ++i) {
    for (int j = dec.halo; j < dec.halo + dec.sny; ++j) {
      for (std::size_t k = 0; k < p.nz(); ++k) {
        const auto si = static_cast<std::size_t>(i);
        const auto sj = static_cast<std::size_t>(j);
        s += p(si, sj, k) * out(si, sj, k);
      }
    }
  }
  return s;
}

// apply(p, out, &dot) against apply(p, out) and a separate dot: the same
// output bits (halos included, from the same stale contents), the same
// flops, and a dot equal to the separate sum bit for bit.
template <typename Op, typename Array>
void expect_fused_dot(const std::string& where, const Decomp& dec,
                      const Op& op, Array p, SplitMix64& rng) {
  fill(p, rng);
  Array stale = p;
  fill(stale, rng);
  Array plain = stale, fused = stale;
  const double fl_plain = op.apply(p, plain);
  double dot = 1.0;
  const double fl_fused = op.apply(p, fused, &dot);
  EXPECT_EQ(fl_fused, fl_plain) << where;
  EXPECT_TRUE(same_bits(fused, plain)) << where;
  const double want = interior_dot(dec, p, plain);
  EXPECT_TRUE(same_bits(dot, want))
      << where << ": " << dot << " (" << std::hexfloat << dot << ") vs "
      << want << std::defaultfloat;
}

TEST(Elliptic, ApplyReturnsItsDotBitForBit) {
  SplitMix64 rng(26);
  int tiles = 0;
  for_each_tile([&](const std::string& where, const Tile& t) {
    const auto ex = static_cast<std::size_t>(t.dec.ext_x());
    const auto ey = static_cast<std::size_t>(t.dec.ext_y());
    expect_fused_dot(where + " 2-D", t.dec, t.op, Array2D<double>(ex, ey, 0.0),
                     rng);
    expect_fused_dot(where + " 3-D", t.dec, t.op3,
                     Array3D<double>(ex, ey, t.op3.diagonal().nz(), 0.0), rng);
    ++tiles;
  });
  EXPECT_EQ(tiles, 3 * (1 + 16));
}

// p = -0.0 everywhere, halos too: L p is +0.0 on wet cells and 0.0 on
// land, so every term p * out is -0.0.  The dot is +0.0 only because its
// sum starts at +0.0, as dot_interior's does; a sum seeded with its
// first term would return -0.0.
TEST(Elliptic, ApplyDotOfANegativeZeroFieldIsAPositiveZero) {
  for_each_tile([&](const std::string& where, const Tile& t) {
    if (t.dec.px > 1) return;  // one tile per set is enough
    const auto ex = static_cast<std::size_t>(t.dec.ext_x());
    const auto ey = static_cast<std::size_t>(t.dec.ext_y());
    Array2D<double> p(ex, ey, -0.0), out(ex, ey, 7.0);
    double dot = 1.0;
    t.op.apply(p, out, &dot);
    EXPECT_TRUE(same_bits(dot, interior_dot(t.dec, p, out))) << where;
    EXPECT_TRUE(same_bits(dot, 0.0)) << where;
  });
}

// ---- the line preconditioner ------------------------------------------

class Digest {
 public:
  void add_bits(std::uint64_t w) {
    for (int b = 0; b < 64; b += 8) {
      h_ ^= (w >> b) & 0xffU;
      h_ *= 0x100000001b3ULL;
    }
  }
  void add(double x) { add_bits(std::bit_cast<std::uint64_t>(x)); }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

// Three chained calls from each of four residuals per tile: each call's
// z, with zeros planted again, is the next call's r.  The digest takes
// every bit of each z (halos included, from a fresh stale fill, so a
// stray write shows) and each call's flops.  The residuals:
// - random values, with -0.0 also planted on wet cells that restart a
//   line after land;
// - -0.0 everywhere, and a signed zero of random sign everywhere: with
//   nonzero neighbours a zero's sign is absorbed, but when every r is a
//   signed zero so is every Thomas value, and each sign is decided by
//   the selects and by the stale carry a land cell leaves (+0.0 times a
//   -0.0 carry is -0.0);
// - random values with +inf, -inf and NaN planted: z stays 0.0 on land
//   whatever reaches a line's carries.  Every NaN digests alike, as a
//   NaN's payload is the platform's.
TEST(Elliptic, LinePreconditionerGolden) {
  SplitMix64 rng(2026);
  Digest d;
  double flops = 0;
  for_each_tile([&](const std::string&, const Tile& t) {
    const auto ex = static_cast<std::size_t>(t.dec.ext_x());
    const auto ey = static_cast<std::size_t>(t.dec.ext_y());
    for (int start = 0; start < 4; ++start) {
      Array2D<double> r(ex, ey, -0.0);
      if (start == 0 || start == 3) fill(r, rng);
      if (start == 2) {
        for (double& x : r) x = rng.next_below(2) == 0 ? 0.0 : -0.0;
      }
      if (start == 3) {
        constexpr double kInf = std::numeric_limits<double>::infinity();
        const double odd[] = {kInf, -kInf,
                              std::numeric_limits<double>::quiet_NaN()};
        for (double& x : r) {
          if (rng.next_below(64) == 0) x = odd[rng.next_below(3)];
        }
      }
      for (int call = 0; call < 3; ++call) {
        for (int i = t.dec.halo; i < t.dec.halo + t.dec.snx; ++i) {
          for (int j = t.dec.halo; j < t.dec.halo + t.dec.sny; ++j) {
            const auto si = static_cast<std::size_t>(i);
            const auto sj = static_cast<std::size_t>(j);
            const bool restart =
                t.op.is_wet(i, j) &&
                (!t.op.is_wet(i - 1, j) || !t.op.is_wet(i, j - 1));
            if (restart && rng.next_below(2) == 0) r(si, sj) = -0.0;
            if (rng.next_below(16) == 0) {
              r(si, sj) = rng.next_below(2) == 0 ? 0.0 : -0.0;
            }
          }
        }
        Array2D<double> z(ex, ey, 0.0);
        fill(z, rng);
        const double fl = t.op.precondition(r, z);
        for (const double x : z) {
          d.add(std::isnan(x) ? std::numeric_limits<double>::quiet_NaN() : x);
        }
        d.add(fl);
        flops += fl;
        r = z;
      }
    }
  });
  char got[64];
  std::snprintf(got, sizeof got, "0x%016llx %a",
                static_cast<unsigned long long>(d.value()), flops);
  // Captured before the preconditioner's passes were restructured.
  EXPECT_STREQ(got, "0x06b2ab69a313d8c3 0x1.6b7c8p+22");
}

}  // namespace
}  // namespace hyades::gcm
