// Topology-generalization suite (tier2 / topology_tests): the fat-tree
// parameterization, route-word encodings and route-around at non-default
// shapes, the 3-D torus model, the scale-generic decomposition, and the
// non-power-of-two reductions.  Everything here runs shapes the paper's
// machine does NOT have -- the paper shape itself is golden-locked by the
// tier1 suites.
#include <gtest/gtest.h>

#include <cstdint>
#include <mutex>
#include <set>
#include <stdexcept>
#include <utility>
#include <vector>

#include "arctic/route.hpp"
#include "comm/comm.hpp"
#include "gcm/decomp.hpp"
#include "net/arctic_model.hpp"
#include "net/topology.hpp"
#include "net/torus.hpp"
#include "support/rng.hpp"

namespace hyades {
namespace {

using arctic::compute_route;
using arctic::compute_route_degraded;
using arctic::FatTreeShape;
using arctic::Route;
using arctic::RouteStatus;
using arctic::route_survives;
using arctic::TopologyHealth;
using hyades::SplitMix64;

// ---- shape validity -------------------------------------------------------

TEST(FatTreeShape, AcceptsSupportedRadixRange) {
  for (int radix = arctic::kMinShapeRadix; radix <= arctic::kMaxShapeRadix;
       ++radix) {
    const FatTreeShape s{radix, 2};
    EXPECT_NO_THROW(s.check()) << "radix " << radix;
    EXPECT_GE(s.max_endpoints(), radix * radix);
  }
}

TEST(FatTreeShape, RejectsOutOfRangeShapes) {
  EXPECT_THROW(FatTreeShape({1, 2}).check(), std::invalid_argument);
  EXPECT_THROW(FatTreeShape({9, 2}).check(), std::invalid_argument);
  EXPECT_THROW(FatTreeShape({4, 0}).check(), std::invalid_argument);
  EXPECT_THROW(FatTreeShape({4, arctic::kMaxShapeLevels + 1}).check(),
               std::invalid_argument);
}

TEST(FatTreeShape, WidthCheckBoundsRouteWords) {
  // radix 8 needs 3 bits per port: 10 levels would need 4 + 3*9 = 31
  // uproute bits -- over the 30-bit budget -- while 9 levels fit.
  EXPECT_NO_THROW(FatTreeShape({8, 9}).check());
  EXPECT_THROW(FatTreeShape({8, 10}).check(), std::invalid_argument);
  // radix 2 fits the full 16-level cap (4 + 15 = 19 bits).
  EXPECT_NO_THROW(FatTreeShape({2, arctic::kMaxShapeLevels}).check());
}

TEST(FatTreeShape, SupportsAtLeast4096EndpointsAtEveryRadix) {
  for (int radix = arctic::kMinShapeRadix; radix <= arctic::kMaxShapeRadix;
       ++radix) {
    const FatTreeShape s = arctic::shape_for(4096, radix);
    EXPECT_NO_THROW(s.check());
    EXPECT_GE(s.max_endpoints(), 4096) << "radix " << radix;
  }
}

TEST(FatTreeShape, DigitHelpersRoundTrip) {
  for (int radix : {2, 3, 4, 8}) {
    const FatTreeShape s{radix, 4};
    SplitMix64 rng(7);
    for (int trial = 0; trial < 64; ++trial) {
      const int e = static_cast<int>(
          rng.next_below(static_cast<std::uint64_t>(s.max_endpoints())));
      for (int l = 0; l < s.levels; ++l) {
        const int d = static_cast<int>(
            rng.next_below(static_cast<std::uint64_t>(radix)));
        const int m = s.with_digit(e, l, d);
        EXPECT_EQ(s.digit(m, l), d);
        for (int o = 0; o < s.levels; ++o) {
          if (o != l) {
            EXPECT_EQ(s.digit(m, o), s.digit(e, o));
          }
        }
      }
    }
  }
}

TEST(FatTreeShape, Radix4DigitMatchesPaperHelper) {
  // At radix 4 a digit is the paper's 2-bit address field.
  const FatTreeShape s{4, 5};
  for (int e : {0, 1, 5, 63, 255, 1023}) {
    for (int l = 0; l < 5; ++l) {
      EXPECT_EQ(s.digit(e, l), (e >> (2 * l)) & 3);
    }
  }
}

// ---- route-word encode/decode ---------------------------------------------

void expect_route_round_trips(const FatTreeShape& shape, int src, int dst) {
  const Route r = compute_route(src, dst, shape);
  const Route back = Route::decode(r.encode_uproute(), r.downroute, shape);
  ASSERT_EQ(back.up_levels, r.up_levels)
      << "shape r=" << shape.radix << " L=" << shape.levels << " " << src
      << "->" << dst;
  for (int l = 0; l < r.up_levels; ++l) {
    EXPECT_EQ(back.up_ports[static_cast<std::size_t>(l)],
              r.up_ports[static_cast<std::size_t>(l)]);
  }
  EXPECT_EQ(back.downroute, r.downroute);
  EXPECT_EQ(back.encode_uproute(), r.encode_uproute());
  for (int l = 0; l < shape.levels; ++l) {
    EXPECT_EQ(back.down_port(l), r.down_port(l));
  }
}

TEST(RouteEncoding, RoundTripsAcrossRadices64Endpoints) {
  for (const FatTreeShape shape : {FatTreeShape{2, 6}, FatTreeShape{4, 3},
                                   FatTreeShape{8, 2}}) {
    const int n = shape.max_endpoints();
    ASSERT_EQ(n, 64);
    for (int src = 0; src < n; ++src) {
      for (int dst = 0; dst < n; ++dst) {
        expect_route_round_trips(shape, src, dst);
      }
    }
  }
}

TEST(RouteEncoding, RoundTripsSampledAtScale) {
  // 1024- and 4096-endpoint builds at each radix, sampled.
  for (const FatTreeShape shape :
       {FatTreeShape{2, 10}, FatTreeShape{4, 5}, FatTreeShape{8, 4},
        FatTreeShape{2, 12}, FatTreeShape{4, 6}}) {
    const int n = shape.max_endpoints();
    ASSERT_GE(n, 1024);
    SplitMix64 rng(0x5eedu + static_cast<std::uint64_t>(shape.radix));
    for (int trial = 0; trial < 512; ++trial) {
      const int src =
          static_cast<int>(rng.next_below(static_cast<std::uint64_t>(n)));
      const int dst =
          static_cast<int>(rng.next_below(static_cast<std::uint64_t>(n)));
      expect_route_round_trips(shape, src, dst);
    }
  }
}

TEST(RouteEncoding, RandomUprouteStaysDecodable) {
  const FatTreeShape shape{8, 4};
  SplitMix64 rng(42);
  const int n = shape.max_endpoints();
  for (int trial = 0; trial < 256; ++trial) {
    const int src =
        static_cast<int>(rng.next_below(static_cast<std::uint64_t>(n)));
    const int dst =
        static_cast<int>(rng.next_below(static_cast<std::uint64_t>(n)));
    const Route r = compute_route(src, dst, shape, &rng);
    const Route back = Route::decode(r.encode_uproute(), r.downroute, shape);
    EXPECT_EQ(back.encode_uproute(), r.encode_uproute());
    for (int l = 0; l < r.up_levels; ++l) {
      EXPECT_LT(back.up_ports[static_cast<std::size_t>(l)], shape.radix);
    }
  }
}

// ---- connectivity ---------------------------------------------------------

void expect_connected(const FatTreeShape& shape, int src, int dst) {
  const TopologyHealth healthy(shape);
  const Route r = compute_route(src, dst, shape);
  EXPECT_TRUE(route_survives(src, dst, r, healthy))
      << "shape r=" << shape.radix << " L=" << shape.levels << " " << src
      << "->" << dst;
  EXPECT_EQ(arctic::router_hops(src, dst, shape), r.router_hops());
  EXPECT_EQ(arctic::router_hops(src, dst, shape),
            arctic::router_hops(dst, src, shape));
  if (shape.leaf_of(src) == shape.leaf_of(dst)) {
    EXPECT_EQ(r.up_levels, 0);
  } else {
    EXPECT_GT(r.up_levels, 0);
    EXPECT_LE(r.up_levels, shape.levels - 1);
  }
}

TEST(Connectivity, AllPairsAt64Endpoints) {
  for (const FatTreeShape shape : {FatTreeShape{2, 6}, FatTreeShape{4, 3},
                                   FatTreeShape{8, 2}}) {
    const int n = shape.max_endpoints();
    for (int src = 0; src < n; ++src) {
      for (int dst = 0; dst < n; ++dst) {
        expect_connected(shape, src, dst);
      }
    }
  }
}

TEST(Connectivity, SampledPairsAt1024And4096Endpoints) {
  for (const FatTreeShape shape :
       {FatTreeShape{4, 5}, FatTreeShape{2, 12}, FatTreeShape{8, 4}}) {
    const int n = shape.max_endpoints();
    ASSERT_GE(n, 1024);
    SplitMix64 rng(0xab1eu + static_cast<std::uint64_t>(n));
    for (int trial = 0; trial < 768; ++trial) {
      const int src =
          static_cast<int>(rng.next_below(static_cast<std::uint64_t>(n)));
      const int dst =
          static_cast<int>(rng.next_below(static_cast<std::uint64_t>(n)));
      expect_connected(shape, src, dst);
    }
  }
}

// ---- route-around at non-default shapes -----------------------------------

TEST(RouteAround, SurvivesUpLinkKillAcrossShapes) {
  for (const FatTreeShape shape : {FatTreeShape{2, 6}, FatTreeShape{8, 2},
                                   FatTreeShape{4, 3}}) {
    const int n = shape.max_endpoints();
    const int src = 0;
    const int dst = n - 1;
    TopologyHealth health(shape);
    const Route preferred = compute_route(src, dst, shape);
    ASSERT_GT(preferred.up_levels, 0);
    health.kill_up_link(0, shape.leaf_of(src),
                        preferred.up_ports[0]);
    const arctic::RoutedPath rp =
        compute_route_degraded(src, dst, shape, health);
    ASSERT_EQ(rp.status, RouteStatus::kOk)
        << "shape r=" << shape.radix << " L=" << shape.levels;
    EXPECT_TRUE(route_survives(src, dst, rp.route, health));
    EXPECT_NE(rp.route.up_ports[0], preferred.up_ports[0]);
  }
}

TEST(RouteAround, ReportsPartitionWhenAllUpLinksDie) {
  const FatTreeShape shape{2, 6};
  TopologyHealth health(shape);
  for (int port = 0; port < shape.radix; ++port) {
    health.kill_up_link(0, shape.leaf_of(0), port);
  }
  const arctic::RoutedPath rp =
      compute_route_degraded(0, shape.max_endpoints() - 1, shape, health);
  EXPECT_EQ(rp.status, RouteStatus::kUnreachable);
  // Same-leaf traffic never climbs, so it still works.
  const arctic::RoutedPath local = compute_route_degraded(0, 1, shape, health);
  EXPECT_EQ(local.status, RouteStatus::kOk);
}

TEST(RouteAround, HealthShapeMismatchIsAnError) {
  const FatTreeShape shape{2, 6};
  const TopologyHealth radix4_view(FatTreeShape{4, 3});
  EXPECT_THROW((void)compute_route_degraded(0, 63, shape, radix4_view),
               std::invalid_argument);
}

// ---- fat-tree topology views ----------------------------------------------

TEST(FatTreeTopology, StructuralMetrics) {
  const net::FatTreeTopology t(64, FatTreeShape{2, 6});
  EXPECT_EQ(t.endpoints(), 64);
  EXPECT_EQ(t.diameter_hops(), 2 * (6 - 1) + 1);
  EXPECT_GE(t.mean_hops(), 1.0);
  EXPECT_LE(t.mean_hops(), t.diameter_hops());
  EXPECT_GT(t.bisection_bandwidth_mbytes(), 0.0);
  // A fat tree keeps full bisection: 2 * N * link bandwidth.
  EXPECT_DOUBLE_EQ(t.bisection_bandwidth_mbytes(),
                   2.0 * 64 * t.link_bandwidth_mbytes());
}

TEST(FatTreeTopology, ArcticModelExposesItsShape) {
  const net::ArcticModel paper;
  ASSERT_NE(paper.topology(), nullptr);
  EXPECT_EQ(paper.topology()->endpoints(), net::kPaperEndpoints);
  EXPECT_EQ(paper.shape().radix, arctic::kRadix);
  EXPECT_EQ(paper.name(), "Arctic");

  const net::ArcticModel wide(512, {}, {}, 8);
  EXPECT_EQ(wide.shape().radix, 8);
  EXPECT_EQ(wide.shape().levels, 3);
  EXPECT_NE(wide.name(), "Arctic");
  EXPECT_EQ(wide.topology()->endpoints(), 512);
}

TEST(FatTreeTopology, GsumRoundClimbsMatchShape) {
  // Butterfly partners of round r differ in id bit r; the climb height
  // is the highest differing base-radix digit.
  const net::ArcticModel r2(64, {}, {}, 2);
  for (int round = 0; round < 6; ++round) {
    EXPECT_EQ(r2.up_levels_for_round(round), round);
  }
  const net::ArcticModel r4(64, {}, {}, 4);
  for (int round = 0; round < 6; ++round) {
    EXPECT_EQ(r4.up_levels_for_round(round), round / 2);
  }
  const net::ArcticModel r8(64, {}, {}, 8);
  for (int round = 0; round < 6; ++round) {
    EXPECT_EQ(r8.up_levels_for_round(round), round / 3);
  }
}

// ---- torus ----------------------------------------------------------------

TEST(Torus, NearCubicFactorization) {
  using net::near_cubic_torus;
  for (int nodes : {8, 16, 27, 32, 64, 100, 128, 256, 500, 512, 1024}) {
    const net::TorusShape s = near_cubic_torus(nodes);
    EXPECT_EQ(s.nodes(), nodes);
    EXPECT_GE(s.nx, s.ny);
    EXPECT_GE(s.ny, s.nz);
    EXPECT_NO_THROW(s.check());
  }
  EXPECT_EQ(near_cubic_torus(64).nx, 4);
  EXPECT_EQ(near_cubic_torus(64).ny, 4);
  EXPECT_EQ(near_cubic_torus(64).nz, 4);
}

TEST(Torus, RingDistanceWrapsBothWays) {
  using net::TorusShape;
  EXPECT_EQ(TorusShape::ring_distance(0, 3, 4), 1);  // wrap is shorter
  EXPECT_EQ(TorusShape::ring_distance(0, 2, 4), 2);
  EXPECT_EQ(TorusShape::ring_distance(5, 5, 8), 0);
  const TorusShape s{4, 4, 2};
  SplitMix64 rng(3);
  for (int trial = 0; trial < 128; ++trial) {
    const int a = static_cast<int>(
        rng.next_below(static_cast<std::uint64_t>(s.nodes())));
    const int b = static_cast<int>(
        rng.next_below(static_cast<std::uint64_t>(s.nodes())));
    EXPECT_EQ(s.distance(a, b), s.distance(b, a));
    EXPECT_LE(s.distance(a, b), s.nx / 2 + s.ny / 2 + s.nz / 2);
    EXPECT_EQ(s.distance(a, a), 0);
  }
}

TEST(Torus, TopologyMetrics) {
  const net::TorusTopology t(net::TorusShape{8, 8, 8},
                             net::kTorusHopLatencyUs, net::kTorusLinkMBs);
  EXPECT_EQ(t.endpoints(), 512);
  EXPECT_EQ(t.diameter_hops(), 12);
  EXPECT_GE(t.mean_hops(), 1.0);
  EXPECT_LE(t.mean_hops(), 12.0);
  // Bisection: cutting the longest dimension severs 2 directed links per
  // ring in each direction -> 4 * (nodes / longest) * link bandwidth.
  EXPECT_DOUBLE_EQ(t.bisection_bandwidth_mbytes(),
                   4.0 * (512 / 8) * net::kTorusLinkMBs);
}

TEST(Torus, ModelRoundCostsGrowWithHopCount) {
  const net::TorusModel m = net::TorusModel::for_nodes(64);
  EXPECT_GT(m.gsum_round_time(0), 0.0);
  // Later butterfly rounds span more of the machine; hop counts (and
  // with them round costs) never shrink as the partner distance grows
  // within one dimension.
  EXPECT_EQ(m.hops_for_round(0), 1);
  EXPECT_GE(m.hops_for_round(5), m.hops_for_round(0));
  EXPECT_GT(m.transfer_time(1 << 20), m.transfer_time(1 << 10));
  ASSERT_NE(m.topology(), nullptr);
  EXPECT_EQ(m.topology()->endpoints(), 64);
}

// ---- decomposition at scale -----------------------------------------------

TEST(DecompScale, LargeNonDivisibleGridPartitions) {
  // 1000 x 600 over 24 x 16 ranks: 1000 % 24 != 0, 600 % 16 != 0.
  gcm::ModelConfig cfg;
  cfg.nx = 1000;
  cfg.ny = 600;
  cfg.px = 24;
  cfg.py = 16;
  cfg.halo = 3;
  cfg.validate();
  std::set<std::pair<int, int>> covered;
  long long cells = 0;
  for (int r = 0; r < cfg.tiles(); ++r) {
    const gcm::Decomp d(cfg, r);
    cells += static_cast<long long>(d.snx) * d.sny;
    covered.insert({d.i0, d.j0});
    EXPECT_GE(d.snx, cfg.halo);
    EXPECT_GE(d.sny, cfg.halo);
  }
  EXPECT_EQ(cells, static_cast<long long>(cfg.nx) * cfg.ny);
  EXPECT_EQ(covered.size(), static_cast<std::size_t>(cfg.tiles()));
}

// ---- non-power-of-two reductions ------------------------------------------

cluster::MachineConfig machine(const net::Interconnect& net, int smps,
                               int ppp) {
  cluster::MachineConfig cfg;
  cfg.smp_count = smps;
  cfg.procs_per_smp = ppp;
  cfg.interconnect = &net;
  return cfg;
}

TEST(NonPow2Gsum, CorrectAcrossGroupSizes) {
  const net::ArcticModel net;
  for (auto [smps, ppp] : std::vector<std::pair<int, int>>{
           {3, 1}, {3, 2}, {5, 1}, {6, 2}, {7, 1}}) {
    cluster::Runtime rt(machine(net, smps, ppp));
    const int nranks = smps * ppp;
    const double expected = nranks * (nranks + 1) / 2.0;
    rt.run([&](cluster::RankContext& ctx) {
      comm::Comm comm(ctx);
      const double s = comm.global_sum(ctx.rank() + 1.0);
      EXPECT_DOUBLE_EQ(s, expected) << "shape " << smps << "x" << ppp;
      EXPECT_DOUBLE_EQ(comm.global_max(static_cast<double>(ctx.rank())),
                       nranks - 1.0);
    });
  }
}

TEST(NonPow2Gsum, BitwiseIdenticalEverywhere) {
  const net::ArcticModel net;
  cluster::Runtime rt(machine(net, 6, 2));
  std::mutex mu;
  std::vector<double> results;
  rt.run([&](cluster::RankContext& ctx) {
    comm::Comm comm(ctx);
    const double mine = 1.0 + 1e-15 * ctx.rank() * 3.7;
    const double s = comm.global_sum(mine);
    std::lock_guard<std::mutex> lock(mu);
    results.push_back(s);
  });
  ASSERT_EQ(results.size(), 12u);
  for (std::size_t i = 1; i < results.size(); ++i) {
    EXPECT_EQ(results[i], results[0]);
  }
}

TEST(NonPow2Gsum, TimingDeterministic) {
  const net::ArcticModel net;
  auto run_once = [&] {
    cluster::Runtime rt(machine(net, 5, 2));
    rt.run([&](cluster::RankContext& ctx) {
      comm::Comm comm(ctx);
      for (int i = 0; i < 4; ++i) (void)comm.global_sum(1.0);
      comm.barrier();
    });
    return rt.final_clocks();
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(NonPow2Barrier, CompletesOnOddGroups) {
  const net::ArcticModel net;
  for (int smps : {3, 5, 6}) {
    cluster::Runtime rt(machine(net, smps, 2));
    rt.run([&](cluster::RankContext& ctx) {
      comm::Comm comm(ctx);
      comm.barrier();
      EXPECT_EQ(comm.barriers_done(), 1u);
    });
    EXPECT_GT(rt.max_clock(), 0.0);
  }
}

TEST(NonPow2Gsum, PowerOfTwoCostsUnchangedByFoldPath) {
  // The fold is strictly additive: an 8-SMP group must cost exactly what
  // the tier1 paper-latency tests lock in, and a 5-SMP group must cost
  // at least as much as the 4-SMP core it contains.
  const net::ArcticModel net;
  auto gsum_cost = [&](int smps) {
    cluster::Runtime rt(machine(net, smps, 1));
    rt.run([&](cluster::RankContext& ctx) {
      comm::Comm comm(ctx);
      (void)comm.global_sum(1.0);
    });
    return rt.max_clock();
  };
  EXPECT_GT(gsum_cost(5), gsum_cost(4));
  EXPECT_GT(gsum_cost(6), gsum_cost(4));
  EXPECT_LT(gsum_cost(4), gsum_cost(8));
}

}  // namespace
}  // namespace hyades
