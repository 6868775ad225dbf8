#include "arctic/route.hpp"

#include <gtest/gtest.h>

namespace hyades::arctic {
namespace {

// The paper's 16-node and 64-node radix-4 trees.
constexpr FatTreeShape kTree16{kRadix, 2};
constexpr FatTreeShape kTree64{kRadix, 3};

TEST(Route, LevelsFor) {
  EXPECT_EQ(levels_for(2, kRadix), 1);
  EXPECT_EQ(levels_for(4, kRadix), 1);
  EXPECT_EQ(levels_for(5, kRadix), 2);
  EXPECT_EQ(levels_for(16, kRadix), 2);
  EXPECT_EQ(levels_for(17, kRadix), 3);
  EXPECT_EQ(levels_for(64, kRadix), 3);
  EXPECT_THROW(levels_for(0, kRadix), std::invalid_argument);
}

TEST(Route, SameLeafStaysLow) {
  // Nodes 0..3 share the level-0 router in a 16-node tree.
  const Route r = compute_route(1, 2, kTree16);
  EXPECT_EQ(r.up_levels, 0);
  EXPECT_EQ(r.router_hops(), 1);
  EXPECT_EQ(r.down_port(0), 2);
}

TEST(Route, CrossTreeClimbs) {
  const Route r = compute_route(0, 15, kTree16);
  EXPECT_EQ(r.up_levels, 1);
  EXPECT_EQ(r.router_hops(), 3);
  EXPECT_EQ(r.down_port(1), 3);  // digit 1 of 15
  EXPECT_EQ(r.down_port(0), 3);  // digit 0 of 15
}

TEST(Route, EncodingRoundTrips) {
  const Route r = compute_route(3, 60, kTree64);
  const Route d = Route::decode(r.encode_uproute(), r.downroute, kTree64);
  EXPECT_EQ(d.up_levels, r.up_levels);
  EXPECT_EQ(d.downroute, r.downroute);
  for (int l = 0; l < r.up_levels; ++l) {
    EXPECT_EQ(d.up_ports[static_cast<std::size_t>(l)],
              r.up_ports[static_cast<std::size_t>(l)]);
  }
}

TEST(Route, EncodingRoundTripsAtFullWidth) {
  // Every up-port slot populated with a distinct 2-bit value at the
  // maximum climb height: locks the per-level wire encoding (3 + 2l bit
  // positions) and the indexed port array handling.
  constexpr int kMaxLevels = 5;  // the paper's 14-bit uproute field
  const FatTreeShape shape{kRadix, kMaxLevels + 1};
  Route r;
  r.up_levels = kMaxLevels;
  for (int l = 0; l < kMaxLevels; ++l) {
    r.up_ports[static_cast<std::size_t>(l)] =
        static_cast<std::uint8_t>((l + 1) & (kRadix - 1));
  }
  r.downroute = 0x2d6;  // arbitrary down digits
  ASSERT_LT(r.encode_uproute(), 1u << 14);
  const Route d = Route::decode(r.encode_uproute(), r.downroute, shape);
  EXPECT_EQ(d.up_levels, kMaxLevels);
  EXPECT_EQ(d.downroute, r.downroute);
  for (int l = 0; l < kMaxLevels; ++l) {
    EXPECT_EQ(d.up_ports[static_cast<std::size_t>(l)],
              r.up_ports[static_cast<std::size_t>(l)])
        << "port at level " << l;
  }
}

TEST(Route, DeterministicIsStable) {
  for (int trial = 0; trial < 3; ++trial) {
    const Route a = compute_route(5, 11, kTree16);
    const Route b = compute_route(5, 11, kTree16);
    EXPECT_EQ(a.encode_uproute(), b.encode_uproute());
    EXPECT_EQ(a.downroute, b.downroute);
  }
}

TEST(Route, RandomModeChoosesValidPorts) {
  SplitMix64 rng(3);
  for (int trial = 0; trial < 200; ++trial) {
    const Route r = compute_route(0, 63, kTree64, &rng);
    EXPECT_EQ(r.up_levels, 2);
    for (int l = 0; l < r.up_levels; ++l) {
      EXPECT_LT(r.up_ports[static_cast<std::size_t>(l)], kRadix);
    }
  }
}

TEST(Route, HopCountSymmetry) {
  for (int src = 0; src < 16; ++src) {
    for (int dst = 0; dst < 16; ++dst) {
      EXPECT_EQ(router_hops(src, dst, kTree16),
                router_hops(dst, src, kTree16));
    }
  }
}

TEST(Route, HopCountStructure16Nodes) {
  // Same-leaf pairs cross 1 stage; all others cross 3.
  for (int src = 0; src < 16; ++src) {
    for (int dst = 0; dst < 16; ++dst) {
      const int expected = (src / 4 == dst / 4) ? 1 : 3;
      EXPECT_EQ(router_hops(src, dst, kTree16), expected)
          << src << "->" << dst;
    }
  }
}

}  // namespace
}  // namespace hyades::arctic
