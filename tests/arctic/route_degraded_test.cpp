// Degraded-mode routing: route-around of dead links/routers, determinism,
// healthy bit-identity with compute_route, and -- the governing property
// -- kUnreachable exactly when the dead set disconnects src from dst,
// checked against an independent BFS over the up*/down* state graph.
#include "arctic/route.hpp"

#include <gtest/gtest.h>

#include <deque>
#include <vector>

#include "arctic/fault.hpp"

namespace hyades::arctic {
namespace {

int digit(int value, int pos) { return (value >> (2 * pos)) & 3; }

int with_digit(int value, int pos, int d) {
  const int mask = 3 << (2 * pos);
  return (value & ~mask) | (d << (2 * pos));
}

// Independent reachability reference: breadth-first search over states
// (phase, level, router), where phase 0 is climbing (any live up port)
// and phase 1 is descending (any live down port).  A route exists under
// up*/down* routing iff some descending state reaches dst's leaf router.
bool reachable_bfs(int src, int dst, int n_levels, const TopologyHealth& h) {
  const int src_leaf = src >> 2;
  const int dst_leaf = dst >> 2;
  if (h.router_dead(0, src_leaf) || h.router_dead(0, dst_leaf)) return false;
  if (src_leaf == dst_leaf) return true;

  int rpl = 1;
  for (int l = 0; l < n_levels - 1; ++l) rpl *= kRadix;
  std::vector<char> seen(static_cast<std::size_t>(2 * n_levels * rpl), 0);
  auto mark = [&](int phase, int level, int r) {
    char& s = seen[static_cast<std::size_t>((phase * n_levels + level) * rpl + r)];
    const bool fresh = (s == 0);
    s = 1;
    return fresh;
  };

  std::deque<std::array<int, 3>> queue;
  mark(0, 0, src_leaf);
  queue.push_back({0, 0, src_leaf});
  while (!queue.empty()) {
    const auto [phase, level, r] = queue.front();
    queue.pop_front();
    if (phase == 1 && level == 0) {
      if (r == dst_leaf) return true;
      continue;
    }
    if (phase == 0) {
      if (mark(1, level, r)) queue.push_back({1, level, r});  // turn apex
      if (level < n_levels - 1) {
        for (int u = 0; u < kRadix; ++u) {
          if (h.up_link_dead(level, r, u)) continue;
          const int above = with_digit(r, level, u);
          if (h.router_dead(level + 1, above)) continue;
          if (mark(0, level + 1, above)) queue.push_back({0, level + 1, above});
        }
      }
    } else {
      for (int q = 0; q < kRadix; ++q) {
        const int below = with_digit(r, level - 1, q);
        if (h.up_link_dead(level - 1, below, digit(r, level - 1))) continue;
        if (h.router_dead(level - 1, below)) continue;
        if (mark(1, level - 1, below)) queue.push_back({1, level - 1, below});
      }
    }
  }
  return false;
}

TEST(RouteDegraded, HealthyMatchesComputeRouteAllPairs) {
  const FatTreeShape shape{kRadix, 3};
  const TopologyHealth health(shape);
  for (int src = 0; src < 64; ++src) {
    for (int dst = 0; dst < 64; ++dst) {
      const Route plain = compute_route(src, dst, shape);
      const RoutedPath degraded =
          compute_route_degraded(src, dst, shape, health);
      ASSERT_EQ(degraded.status, RouteStatus::kOk) << src << "->" << dst;
      EXPECT_EQ(degraded.route.encode_uproute(), plain.encode_uproute())
          << src << "->" << dst;
      EXPECT_EQ(degraded.route.downroute, plain.downroute)
          << src << "->" << dst;
    }
  }
}

TEST(RouteDegraded, HealthyRandomModeConsumesSameStream) {
  const FatTreeShape shape{kRadix, 3};
  const TopologyHealth health(shape);
  SplitMix64 rng_a(42);
  SplitMix64 rng_b(42);
  for (int i = 0; i < 200; ++i) {
    const int src = static_cast<int>(rng_a.next_below(64));
    rng_b.next_below(64);  // keep the streams aligned
    const int dst = 63 - src;
    const Route plain = compute_route(src, dst, shape, &rng_a);
    const RoutedPath degraded =
        compute_route_degraded(src, dst, shape, health, &rng_b);
    ASSERT_EQ(degraded.status, RouteStatus::kOk);
    EXPECT_EQ(degraded.route.encode_uproute(), plain.encode_uproute());
    EXPECT_EQ(degraded.route.downroute, plain.downroute);
  }
  // Both searches must have drawn the same number of values.
  EXPECT_EQ(rng_a.next(), rng_b.next());
}

TEST(RouteDegraded, RoutesAroundDeadLink) {
  // 64-endpoint tree, 0 -> 4: the deterministic route climbs through
  // level-1 router 1 (pairwise-hash port).  Kill that first-hop cable;
  // the degraded search must pick the next port in fallback order.
  const FatTreeShape shape{kRadix, 3};
  const Route healthy = compute_route(0, 4, shape);
  ASSERT_EQ(healthy.up_levels, 1);
  const int healthy_port = healthy.up_ports[0];

  TopologyHealth health(shape);
  health.kill_up_link(0, 0, healthy_port);
  const RoutedPath degraded = compute_route_degraded(0, 4, shape, health);
  ASSERT_EQ(degraded.status, RouteStatus::kOk);
  EXPECT_EQ(degraded.route.up_ports[0], (healthy_port + 1) & 3);
  EXPECT_TRUE(route_survives(0, 4, degraded.route, health));
  EXPECT_FALSE(route_survives(0, 4, healthy, health));

  // Same dead set => same route, bit for bit.
  const RoutedPath again = compute_route_degraded(0, 4, shape, health);
  EXPECT_EQ(again.route.encode_uproute(), degraded.route.encode_uproute());
  EXPECT_EQ(again.route.downroute, degraded.route.downroute);
}

TEST(RouteDegraded, RoutesAroundDeadRouter) {
  const FatTreeShape shape{kRadix, 3};
  const Route healthy = compute_route(0, 4, shape);
  TopologyHealth health(shape);
  health.kill_router(1, healthy.up_ports[0]);
  const RoutedPath degraded = compute_route_degraded(0, 4, shape, health);
  ASSERT_EQ(degraded.status, RouteStatus::kOk);
  EXPECT_NE(degraded.route.up_ports[0], healthy.up_ports[0]);
  EXPECT_TRUE(route_survives(0, 4, degraded.route, health));
}

TEST(RouteDegraded, DeadLeafRouterPartitions) {
  const FatTreeShape shape{kRadix, 2};
  TopologyHealth health(shape);
  health.kill_router(0, 0);  // endpoints 0..3 lose their leaf router
  EXPECT_EQ(compute_route_degraded(0, 15, shape, health).status,
            RouteStatus::kUnreachable);
  EXPECT_EQ(compute_route_degraded(15, 2, shape, health).status,
            RouteStatus::kUnreachable);
  // Unrelated traffic still routes.
  EXPECT_EQ(compute_route_degraded(4, 15, shape, health).status,
            RouteStatus::kOk);
}

TEST(RouteDegraded, AllUpLinksDeadPartitions) {
  // Killing every up cable of leaf router 1 strands endpoints 4..7 from
  // the rest of the tree but leaves same-leaf traffic alive.
  const FatTreeShape shape{kRadix, 2};
  TopologyHealth health(shape);
  for (int u = 0; u < kRadix; ++u) health.kill_up_link(0, 1, u);
  EXPECT_EQ(compute_route_degraded(0, 4, shape, health).status,
            RouteStatus::kUnreachable);
  EXPECT_EQ(compute_route_degraded(4, 5, shape, health).status,
            RouteStatus::kOk);
}

TEST(RouteDegraded, PropertyMatchesReferenceBfs) {
  // Random dead sets over the 64-endpoint tree: the search must report
  // kOk with a surviving route exactly when the reference BFS finds the
  // pair connected, for every seed and both routing modes.
  const FatTreeShape shape{kRadix, 3};
  SplitMix64 rng(0xdeadfab);
  for (int trial = 0; trial < 60; ++trial) {
    TopologyHealth health(shape);
    const int link_kills = static_cast<int>(rng.next_below(9));
    for (int i = 0; i < link_kills; ++i) {
      health.kill_up_link(static_cast<int>(rng.next_below(2)),
                          static_cast<int>(rng.next_below(16)),
                          static_cast<int>(rng.next_below(4)));
    }
    const int router_kills = static_cast<int>(rng.next_below(3));
    for (int i = 0; i < router_kills; ++i) {
      health.kill_router(static_cast<int>(rng.next_below(3)),
                         static_cast<int>(rng.next_below(16)));
    }
    for (int pair = 0; pair < 200; ++pair) {
      const int src = static_cast<int>(rng.next_below(64));
      const int dst = static_cast<int>(rng.next_below(64));
      const bool connected = reachable_bfs(src, dst, shape.levels, health);
      SplitMix64 route_rng(static_cast<std::uint64_t>(trial * 1000 + pair));
      SplitMix64* mode = (pair % 2 == 0) ? nullptr : &route_rng;
      const RoutedPath routed =
          compute_route_degraded(src, dst, shape, health, mode);
      ASSERT_EQ(routed.status == RouteStatus::kOk, connected)
          << "trial " << trial << ": " << src << "->" << dst;
      if (routed.status == RouteStatus::kOk) {
        EXPECT_TRUE(route_survives(src, dst, routed.route, health))
            << "trial " << trial << ": " << src << "->" << dst;
      }
    }
  }
}

TEST(RouteDegraded, RouteSurvivesRejectsWrongDestination) {
  const FatTreeShape shape{kRadix, 2};
  const TopologyHealth health(shape);
  const Route r = compute_route(0, 15, shape);
  EXPECT_TRUE(route_survives(0, 15, r, health));
  EXPECT_FALSE(route_survives(0, 14, r, health));
}

TEST(RouteDegraded, SeededLinkKillsDeterministicAndCapped) {
  const auto a = seeded_link_kills(77, 6, 3, 16, 500.0);
  const auto b = seeded_link_kills(77, 6, 3, 16, 500.0);
  ASSERT_EQ(a.size(), 6u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].level, b[i].level);
    EXPECT_EQ(a[i].index, b[i].index);
    EXPECT_EQ(a[i].port, b[i].port);
    EXPECT_DOUBLE_EQ(a[i].at_us, b[i].at_us);
    EXPECT_EQ(a[i].kind, KillEvent::Kind::kLink);
    EXPECT_GE(a[i].level, 0);
    EXPECT_LT(a[i].level, 2);
    EXPECT_GE(a[i].at_us, 0.0);
    EXPECT_LT(a[i].at_us, 500.0);
  }
  // At most one kill per router slot: every schedule is survivable.
  for (std::size_t i = 0; i < a.size(); ++i) {
    for (std::size_t j = i + 1; j < a.size(); ++j) {
      EXPECT_FALSE(a[i].level == a[j].level && a[i].index == a[j].index);
    }
  }
  // A different seed gives a different schedule.
  const auto c = seeded_link_kills(78, 6, 3, 16, 500.0);
  bool any_differ = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    any_differ = any_differ || a[i].index != c[i].index ||
                 a[i].level != c[i].level || a[i].port != c[i].port;
  }
  EXPECT_TRUE(any_differ);
  EXPECT_THROW(seeded_link_kills(1, 999, 3, 16, 100.0),
               std::invalid_argument);
}

}  // namespace
}  // namespace hyades::arctic
