#include <gtest/gtest.h>

#include <array>

#include "comm/comm.hpp"
#include "net/arctic_model.hpp"
#include "net/ethernet.hpp"

namespace hyades::comm {
namespace {

using cluster::MachineConfig;
using cluster::RankContext;
using cluster::Runtime;

MachineConfig machine(const net::Interconnect& net, int smps, int ppp) {
  MachineConfig cfg;
  cfg.smp_count = smps;
  cfg.procs_per_smp = ppp;
  cfg.interconnect = &net;
  return cfg;
}

// 4x4 periodic tile grid over 16 ranks: rank = ty*4 + tx.
std::array<int, kDirections> grid_neighbors(int rank) {
  const int tx = rank % 4, ty = rank / 4;
  auto id = [](int x, int y) { return ((y + 4) % 4) * 4 + (x + 4) % 4; };
  return {id(tx + 1, ty), id(tx - 1, ty), id(tx, ty + 1), id(tx, ty - 1)};
}

// Each rank sends strips encoding (rank, direction); after the exchange,
// in[d] must hold what the d-direction neighbor sent toward us.
TEST(Exchange, FourNeighborGridConsistency) {
  const net::ArcticModel net;
  for (int ppp : {1, 2}) {
    Runtime rt(machine(net, 16 / ppp, ppp));
    rt.run([&](RankContext& ctx) {
      Comm comm(ctx);
      const auto nb = grid_neighbors(ctx.rank());
      Comm::Buffers buf;
      for (int d = 0; d < kDirections; ++d) {
        buf.out[static_cast<std::size_t>(d)].assign(
            8, ctx.rank() * 10.0 + d);
        buf.in[static_cast<std::size_t>(d)].assign(8, -1.0);
      }
      comm.exchange(nb, buf);
      for (int d = 0; d < kDirections; ++d) {
        // The neighbor in direction d sent its opposite(d)-direction
        // strip toward us.
        const double expected =
            nb[static_cast<std::size_t>(d)] * 10.0 + opposite(d);
        for (double v : buf.in[static_cast<std::size_t>(d)]) {
          ASSERT_DOUBLE_EQ(v, expected)
              << "rank " << ctx.rank() << " dir " << d << " ppp " << ppp;
        }
      }
    });
  }
}

TEST(Exchange, MissingNeighborsSkipped) {
  // 1-D strip decomposition, closed boundaries: east/west only.
  const net::ArcticModel net;
  Runtime rt(machine(net, 4, 1));
  rt.run([&](RankContext& ctx) {
    Comm comm(ctx);
    const int r = ctx.rank();
    std::array<int, kDirections> nb{r + 1 < 4 ? r + 1 : -1,
                                    r - 1 >= 0 ? r - 1 : -1, -1, -1};
    Comm::Buffers buf;
    if (nb[kEast] >= 0) buf.out[kEast].assign(4, r + 0.5);
    if (nb[kWest] >= 0) buf.out[kWest].assign(4, r - 0.5);
    if (nb[kEast] >= 0) buf.in[kEast].assign(4, 0.0);
    if (nb[kWest] >= 0) buf.in[kWest].assign(4, 0.0);
    comm.exchange(nb, buf);
    if (nb[kWest] >= 0) {
      EXPECT_DOUBLE_EQ(buf.in[kWest][0], (r - 1) + 0.5);
    }
    if (nb[kEast] >= 0) {
      EXPECT_DOUBLE_EQ(buf.in[kEast][0], (r + 1) - 0.5);
    }
  });
}

TEST(Exchange, SelfNeighborPeriodicWrap) {
  // One tile across x: the east and west neighbor are the rank itself.
  const net::ArcticModel net;
  Runtime rt(machine(net, 1, 1));
  rt.run([&](RankContext& ctx) {
    Comm comm(ctx);
    std::array<int, kDirections> nb{0, 0, -1, -1};
    Comm::Buffers buf;
    buf.out[kEast].assign(3, 1.0);
    buf.out[kWest].assign(3, 2.0);
    buf.in[kEast].assign(3, 0.0);
    buf.in[kWest].assign(3, 0.0);
    comm.exchange(nb, buf);
    EXPECT_DOUBLE_EQ(buf.in[kWest][0], 1.0);  // own east strip wraps west
    EXPECT_DOUBLE_EQ(buf.in[kEast][0], 2.0);
  });
}

TEST(Exchange, SizeMismatchThrows) {
  const net::ArcticModel net;
  Runtime rt(machine(net, 2, 1));
  EXPECT_THROW(
      rt.run([&](RankContext& ctx) {
        Comm comm(ctx);
        std::array<int, kDirections> nb{ctx.rank() ^ 1, ctx.rank() ^ 1, -1,
                                        -1};
        Comm::Buffers buf;
        buf.out[kEast].assign(4, 1.0);
        buf.out[kWest].assign(4, 1.0);
        buf.in[kEast].assign(4, 0.0);
        buf.in[kWest].assign(ctx.rank() == 0 ? 5 : 4, 0.0);  // wrong size
        comm.exchange(nb, buf);
      }),
      std::logic_error);
}

TEST(Exchange, RootCauseSurfacesBeforeCollateral) {
  // Rank 1 fails while rank 0 waits on it in a global sum.  Rank 1's
  // exit ends rank 0's wait at once (PeerExited), and the run surfaces
  // rank 1's own error, not the lower rank's collateral one.
  const net::ArcticModel net;
  Runtime rt(machine(net, 2, 1));
  try {
    rt.run([&](RankContext& ctx) {
      Comm comm(ctx);
      if (ctx.rank() == 1) throw std::logic_error("rank 1 root cause");
      (void)comm.global_sum(1.0);
    });
    FAIL() << "expected the root-cause logic_error";
  } catch (const std::logic_error& e) {
    EXPECT_STREQ(e.what(), "rank 1 root cause");
  }
}

TEST(Exchange, NeighborOutsideGroupThrows) {
  const net::ArcticModel net;
  Runtime rt(machine(net, 2, 1));
  EXPECT_THROW(rt.run([&](RankContext& ctx) {
                 Comm comm(ctx);
                 std::array<int, kDirections> nb{5, -1, -1, -1};
                 Comm::Buffers buf;
                 comm.exchange(nb, buf);
               }),
               std::out_of_range);
}

TEST(Exchange, RemoteCostsDominateLocal) {
  // Same traffic pattern, one exchanged intra-SMP and one across SMPs:
  // the remote variant must cost far more virtual time.
  auto run_pair = [](int smps, int ppp) {
    const net::ArcticModel net;
    Runtime rt(machine(net, smps, ppp));
    rt.run([&](RankContext& ctx) {
      Comm comm(ctx);
      const int partner = ctx.rank() ^ 1;
      std::array<int, kDirections> nb{partner, partner, -1, -1};
      Comm::Buffers buf;
      buf.out[kEast].assign(128, 1.0);
      buf.out[kWest].assign(128, 2.0);
      buf.in[kEast].assign(128, 0.0);
      buf.in[kWest].assign(128, 0.0);
      comm.exchange(nb, buf);
    });
    return rt.max_clock();
  };
  const double local = run_pair(1, 2);   // ranks 0,1 on one SMP
  const double remote = run_pair(2, 1);  // ranks 0,1 on separate SMPs
  EXPECT_GT(remote, 4.0 * local);
}

TEST(Exchange, TimingDeterministic) {
  const net::ArcticModel net;
  auto run_once = [&] {
    Runtime rt(machine(net, 8, 2));
    rt.run([&](RankContext& ctx) {
      Comm comm(ctx);
      const auto nb = grid_neighbors(ctx.rank());
      Comm::Buffers buf;
      for (int d = 0; d < kDirections; ++d) {
        buf.out[static_cast<std::size_t>(d)].assign(64, 1.0);
        buf.in[static_cast<std::size_t>(d)].assign(64, 0.0);
      }
      for (int i = 0; i < 3; ++i) comm.exchange(nb, buf);
    });
    return rt.final_clocks();
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Exchange, EthernetCostsOrdersOfMagnitudeMore) {
  auto run_with = [](const net::Interconnect& net) {
    Runtime rt(machine(net, 8, 2));
    rt.run([&](RankContext& ctx) {
      Comm comm(ctx);
      const auto nb = grid_neighbors(ctx.rank());
      Comm::Buffers buf;
      for (int d = 0; d < kDirections; ++d) {
        buf.out[static_cast<std::size_t>(d)].assign(32, 1.0);
        buf.in[static_cast<std::size_t>(d)].assign(32, 0.0);
      }
      comm.exchange(nb, buf);
    });
    return rt.max_clock();
  };
  const net::ArcticModel arctic;
  const auto fe = net::fast_ethernet();
  const auto ge = net::gigabit_ethernet();
  const double t_arctic = run_with(arctic);
  const double t_ge = run_with(ge);
  const double t_fe = run_with(fe);
  EXPECT_GT(t_ge, 5.0 * t_arctic);
  EXPECT_GT(t_fe, 3.0 * t_ge);
}

TEST(Exchange, SequenceCountersAdvance) {
  const net::ArcticModel net;
  Runtime rt(machine(net, 2, 1));
  rt.run([&](RankContext& ctx) {
    Comm comm(ctx);
    EXPECT_EQ(comm.exchanges_done(), 0u);
    std::array<int, kDirections> nb{ctx.rank() ^ 1, ctx.rank() ^ 1, -1, -1};
    Comm::Buffers buf;
    buf.out[kEast].assign(2, 0.0);
    buf.out[kWest].assign(2, 0.0);
    buf.in[kEast].assign(2, 0.0);
    buf.in[kWest].assign(2, 0.0);
    comm.exchange(nb, buf);
    (void)comm.global_sum(1.0);
    EXPECT_EQ(comm.exchanges_done(), 1u);
    EXPECT_EQ(comm.gsums_done(), 1u);
  });
}

}  // namespace
}  // namespace hyades::comm
