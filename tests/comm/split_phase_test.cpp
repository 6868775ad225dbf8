// Split-phase (start/finish) semantics of the comm core: the
// pipelined exchange must deliver bitwise-identical data to the blocking
// exchange, keep in-flight exchanges apart when they finish in start
// order on the exchange's fixed tags, and credit hidden communication to
// the Accounting::overlap_us bucket instead of charging it twice.
// Global sums are blocking only and share one tag set; back-to-back sums
// must still stay apart.
#include <gtest/gtest.h>

#include <array>
#include <chrono>
#include <cstdint>
#include <thread>
#include <utility>
#include <vector>

#include "cluster/fault.hpp"
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

Comm::Buffers make_buffers(int rank, double tag, int len = 8) {
  Comm::Buffers buf;
  for (int d = 0; d < kDirections; ++d) {
    const auto n = static_cast<std::size_t>(len);
    buf.out[static_cast<std::size_t>(d)].assign(n, rank * 100.0 + tag + d);
    buf.in[static_cast<std::size_t>(d)].assign(n, -1.0);
  }
  return buf;
}

void expect_exchanged(const std::array<int, kDirections>& nb,
                      const Comm::Buffers& buf, double tag, int rank) {
  for (int d = 0; d < kDirections; ++d) {
    const double expected =
        nb[static_cast<std::size_t>(d)] * 100.0 + tag + opposite(d);
    for (double v : buf.in[static_cast<std::size_t>(d)]) {
      ASSERT_DOUBLE_EQ(v, expected) << "rank " << rank << " dir " << d;
    }
  }
}

// The pipelined start/finish path must deliver exactly the data the
// blocking exchange delivers, on the same neighbor grid.
TEST(SplitPhase, ExchangeMatchesBlockingData) {
  const net::ArcticModel net;
  for (int ppp : {1, 2}) {
    Runtime rt(machine(net, 16 / ppp, ppp));
    rt.run([&](RankContext& ctx) {
      Comm comm(ctx);
      const auto nb = grid_neighbors(ctx.rank());
      Comm::Buffers blocking = make_buffers(ctx.rank(), 7.0);
      comm.exchange(nb, blocking);

      Comm::Buffers split = make_buffers(ctx.rank(), 7.0);
      ExchangeHandle h = comm.exchange_start(nb, split);
      EXPECT_TRUE(h.valid());
      comm.exchange_finish(h);
      for (int d = 0; d < kDirections; ++d) {
        ASSERT_EQ(split.in[static_cast<std::size_t>(d)],
                  blocking.in[static_cast<std::size_t>(d)])
            << "rank " << ctx.rank() << " dir " << d;
      }
      EXPECT_EQ(comm.exchanges_done(), 2u);
    });
  }
}

// Two exchanges in flight at once, finished in start order, for several
// rounds.  Ranks compute a different virtual time and sleep a different
// host time before each round, so whether a fast rank's strips for the
// next round queue behind the current round's on the same (source, tag)
// stream is up to host scheduling.  Once more with packet faults: then
// CRC-flagged ghosts of those strips queue there too, each ahead of its
// good attempt.
TEST(SplitPhase, TwoInFlightFinishInStartOrder) {
  const net::ArcticModel net;
  cluster::FaultPlan faults;
  faults.seed = 30;
  faults.corrupt_prob = 0.2;
  faults.drop_prob = 0.1;
  for (const auto& [ppp, plan] :
       std::vector<std::pair<int, const cluster::FaultPlan*>>{
           {1, nullptr}, {2, nullptr}, {2, &faults}}) {
    MachineConfig mc = machine(net, 16 / ppp, ppp);
    mc.faults = plan;
    Runtime rt(mc);
    rt.run([&](RankContext& ctx) {
      Comm comm(ctx);
      const int r = ctx.rank();
      const auto nb = grid_neighbors(r);
      for (int round = 0; round < 4; ++round) {
        const int skew = (r * 7 + round * 3) % 5;
        ctx.compute(10.0 * skew * 50.0, 50.0);
        std::this_thread::sleep_for(std::chrono::microseconds(200 * skew));
        Comm::Buffers a = make_buffers(r, 11.0 + round);
        Comm::Buffers b = make_buffers(r, 23.0 + round, 16);
        ExchangeHandle ha = comm.exchange_start(nb, a);
        ExchangeHandle hb = comm.exchange_start(nb, b);
        comm.exchange_finish(ha);
        comm.exchange_finish(hb);
        expect_exchanged(nb, a, 11.0 + round, r);
        expect_exchanged(nb, b, 23.0 + round, r);
      }
      EXPECT_EQ(comm.exchanges_done(), 8u);
    });
    if (plan != nullptr) {
      std::int64_t ghosts = 0, drops = 0;
      for (const cluster::Accounting& acct : rt.accounting()) {
        ghosts += acct.crc_rejects;
        drops += acct.drops_detected;
      }
      EXPECT_GT(ghosts, 0);
      EXPECT_GT(drops, 0);
    }
  }
}

// Back-to-back vector sums on the one global-sum tag set, each issued
// while an overlapped exchange with the ring neighbours (some of them
// butterfly partners) is in flight.  Ranks compute a different virtual
// time and sleep a different host time before each sum, so they reach
// it in a different order every round; whether a rank's messages for
// sum k+1 queue behind sum k's at a partner is up to thread scheduling.
// A butterfly pair meets in one round only, so the bus's per-(source,
// tag) order keeps back-to-back sums apart even with one tag for every
// round; what the tags must keep apart is a sum from the strips of an
// exchange still in flight.  Covers 1 and 2 processors per SMP, on a
// power-of-two SMP count and on one whose extra SMP folds into the
// butterfly.
TEST(SplitPhase, VectorGsumSequence) {
  const net::ArcticModel net;
  for (const auto& [smps, ppp] : std::vector<std::pair<int, int>>{
           {4, 1}, {4, 2}, {3, 1}, {3, 2}}) {
    Runtime rt(machine(net, smps, ppp));
    const int n = smps * ppp;
    rt.run([&](RankContext& ctx) {
      Comm comm(ctx);
      const int r = ctx.rank();
      // East/west around a ring; north/south wrap onto the rank itself.
      const std::array<int, kDirections> nb{(r + 1) % n, (r + n - 1) % n, r,
                                            r};
      for (int round = 0; round < 8; ++round) {
        const int skew = (r * 7 + round * 3) % 5;
        ctx.compute(10.0 * skew * 50.0, 50.0);
        std::this_thread::sleep_for(std::chrono::microseconds(200 * skew));
        Comm::Buffers buf = make_buffers(r, round);
        ExchangeHandle h = comm.exchange_start(nb, buf);
        std::vector<double> xs = {1.0 * r + round, 0.5, -2.0 * round};
        comm.global_sum(xs);
        comm.exchange_finish(h);
        const std::vector<double> expected = {n * (n - 1) / 2.0 + n * round,
                                              0.5 * n, -2.0 * round * n};
        ASSERT_EQ(xs, expected)
            << "shape " << smps << "x" << ppp << " round " << round;
        expect_exchanged(nb, buf, round, r);
      }
      EXPECT_EQ(comm.gsums_done(), 8u);
      EXPECT_EQ(comm.exchanges_done(), 8u);
    });
  }
}

// Compute issued between start and finish hides communication: the
// total virtual time is less than the serial (blocking) arrangement,
// and the hidden time is credited to Accounting::overlap_us.
TEST(SplitPhase, ComputeHidesExchangeTime) {
  const net::EthernetModel fe = net::fast_ethernet();
  const double work_us = 2.0e4;
  auto run = [&](bool split) {
    Runtime rt(machine(fe, 4, 1));
    double overlap = 0.0;
    rt.run([&](RankContext& ctx) {
      Comm comm(ctx);
      const int tx = ctx.rank() % 2, ty = ctx.rank() / 2;
      auto id = [](int x, int y) { return ((y + 2) % 2) * 2 + (x + 2) % 2; };
      const std::array<int, kDirections> nb{id(tx + 1, ty), id(tx - 1, ty),
                                            id(tx, ty + 1), id(tx, ty - 1)};
      Comm::Buffers buf = make_buffers(ctx.rank(), 5.0, 4096);
      if (split) {
        ExchangeHandle h = comm.exchange_start(nb, buf);
        ctx.compute(work_us * 50.0, 50.0);  // 50 MFlop/s => work_us
        comm.exchange_finish(h);
      } else {
        comm.exchange(nb, buf);
        ctx.compute(work_us * 50.0, 50.0);
      }
      if (ctx.rank() == 0) overlap = ctx.accounting().overlap_us;
      expect_exchanged(nb, buf, 5.0, ctx.rank());
    });
    return std::make_pair(rt.max_clock(), overlap);
  };
  const auto [t_blocking, ovl_blocking] = run(false);
  const auto [t_split, ovl_split] = run(true);
  EXPECT_EQ(ovl_blocking, 0.0);  // blocking path never credits overlap
  EXPECT_GT(ovl_split, 0.0);
  EXPECT_LT(t_split, t_blocking);
  // The saving shows up as overlap credit; it cannot exceed the compute
  // window that covered it.
  EXPECT_LE(ovl_split, work_us + 1e-9);
}

// Barriers use their own tag space and counter: they must not pollute
// gsums_done() statistics, and sums and maxes interleave cleanly around
// them.
TEST(SplitPhase, BarrierCountersIndependent) {
  const net::ArcticModel net;
  Runtime rt(machine(net, 4, 2));
  rt.run([&](RankContext& ctx) {
    Comm comm(ctx);
    comm.barrier();
    EXPECT_EQ(comm.barriers_done(), 1u);
    EXPECT_EQ(comm.gsums_done(), 0u);
    const double s = comm.global_sum(1.0);
    comm.barrier();
    EXPECT_DOUBLE_EQ(s, 8.0);
    EXPECT_DOUBLE_EQ(comm.global_max(static_cast<double>(ctx.rank())), 7.0);
    EXPECT_EQ(comm.barriers_done(), 2u);
    EXPECT_EQ(comm.gsums_done(), 2u);
    EXPECT_EQ(comm.exchanges_done(), 0u);
  });
}

// The deterministic-timing guarantee extends to the split-phase path.
TEST(SplitPhase, TimingDeterministic) {
  const net::ArcticModel net;
  auto run_once = [&] {
    Runtime rt(machine(net, 8, 2));
    rt.run([&](RankContext& ctx) {
      Comm comm(ctx);
      const auto nb = grid_neighbors(ctx.rank());
      Comm::Buffers a = make_buffers(ctx.rank(), 1.0, 64);
      Comm::Buffers b = make_buffers(ctx.rank(), 2.0, 64);
      for (int i = 0; i < 3; ++i) {
        ExchangeHandle ha = comm.exchange_start(nb, a);
        ExchangeHandle hb = comm.exchange_start(nb, b);
        ctx.compute(100.0, 1.0);
        comm.exchange_finish(ha);
        comm.exchange_finish(hb);
        (void)comm.global_sum(1.0 * i);
      }
    });
    return rt.final_clocks();
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace hyades::comm
