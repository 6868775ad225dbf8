// The fiber path of Runtime::run: a caller that may run on one CPU only
// runs every rank as a fiber on its own thread, and a wait cycle among
// the ranks is a typed Deadlock.  Each test confines its own thread
// (support::CpuConfinement), which gives the mask back when it ends.
#include <gtest/gtest.h>

#include <array>
#include <chrono>
#include <exception>
#include <future>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "cluster/runtime.hpp"
#include "net/arctic_model.hpp"
#include "support/host_pool.hpp"

namespace hyades::cluster {
namespace {

using namespace std::chrono_literals;

MachineConfig machine(const net::Interconnect& net, int smps, int ppp) {
  MachineConfig cfg;
  cfg.smp_count = smps;
  cfg.procs_per_smp = ppp;
  cfg.interconnect = &net;
  return cfg;
}

std::vector<int> first_cpu() { return {support::allowed_cpus().front()}; }

// A ring shift, SMP syncs and rank-dependent compute, for 4 steps.
void ring_body(RankContext& ctx) {
  const int n = ctx.nranks();
  for (int step = 0; step < 4; ++step) {
    ctx.compute(1000.0 * (ctx.rank() % 3 + 1), 50.0);
    ctx.send_raw((ctx.rank() + 1) % n, step, {static_cast<double>(ctx.rank())},
                 ctx.clock().now() + 3.0);
    const Message m = ctx.recv_raw((ctx.rank() + n - 1) % n, step);
    ctx.clock().advance_to(m.stamp_us);
    ctx.smp_sync();
  }
}

TEST(FiberRun, OneCpuRunsEveryRankOnTheCallingThreadWithTheSameClocks) {
  const net::ArcticModel net;
  Runtime threaded(machine(net, 4, 2));
  threaded.run(ring_body);

  const support::CpuConfinement one(first_cpu());
  Runtime fibers(machine(net, 4, 2));
  std::vector<std::thread::id> ran(8);
  fibers.run([&](RankContext& ctx) {
    ran[static_cast<std::size_t>(ctx.rank())] = std::this_thread::get_id();
    ring_body(ctx);
  });
  for (const std::thread::id id : ran) {
    EXPECT_EQ(id, std::this_thread::get_id());
  }
  EXPECT_EQ(fibers.helpers_per_rank(), 0);
  EXPECT_EQ(fibers.final_clocks(), threaded.final_clocks());
}

// Two ranks that each receive from the other: the run throws a
// Deadlock naming both waits at once, not the bus's 30 s backstop.
TEST(FiberRun, MutualReceiveIsADeadlockNamingBothWaits) {
  auto outcome = std::async(std::launch::async, [] {
    const support::CpuConfinement one(first_cpu());
    const net::ArcticModel net;
    Runtime rt(machine(net, 2, 1));
    rt.set_epoch(2);
    try {
      rt.run([](RankContext& ctx) { (void)ctx.recv_raw(1 - ctx.rank(), 7); });
    } catch (const Deadlock& d) {
      return d;
    }
    throw std::logic_error("the run ended without a Deadlock");
  });
  ASSERT_EQ(outcome.wait_for(1s), std::future_status::ready);
  const Deadlock d = outcome.get();
  EXPECT_EQ(d.epoch, 2);
  ASSERT_EQ(d.edges.size(), 2u);
  for (int r = 0; r < 2; ++r) {
    const WaitEdge& e = d.edges[static_cast<std::size_t>(r)];
    EXPECT_EQ(e.rank, r);
    EXPECT_EQ(e.peer, 1 - r);
    EXPECT_EQ(e.tag, 7);
    EXPECT_EQ(e.smp, -1);
  }
  EXPECT_STREQ(d.what(),
               "deadlock in epoch 2: rank 0 waits on rank 1 tag 7; rank 1 "
               "waits on rank 0 tag 7");
}

// A rank parked at its SMP barrier is an edge too; ranks that already
// returned are none.
TEST(FiberRun, BarrierWaitIsAnEdgeAndAnExitedRankIsNone) {
  const support::CpuConfinement one(first_cpu());
  const net::ArcticModel net;
  Runtime rt(machine(net, 2, 2));
  try {
    rt.run([](RankContext& ctx) {
      if (ctx.rank() == 0) (void)ctx.recv_raw(1, 5);
      if (ctx.rank() == 1) (void)ctx.smp_sync();
    });
    FAIL() << "the run ended without a Deadlock";
  } catch (const Deadlock& d) {
    ASSERT_EQ(d.edges.size(), 2u);
    EXPECT_EQ(d.edges[0].rank, 0);
    EXPECT_EQ(d.edges[0].peer, 1);
    EXPECT_EQ(d.edges[0].tag, 5);
    EXPECT_EQ(d.edges[1].rank, 1);
    EXPECT_EQ(d.edges[1].peer, -1);
    EXPECT_EQ(d.edges[1].smp, 0);
    EXPECT_STREQ(d.what(),
                 "deadlock in epoch 0: rank 0 waits on rank 1 tag 5; rank 1 "
                 "waits at SMP 0's barrier");
  }
}

// Rank 0 parks inside its catch handler while rank 1 enters its own and
// parks there in turn: each must still see its own exception.  The
// caught-exception stack is per thread, so a switch that did not carry
// it would show rank 0 rank 1's exception.
TEST(FiberRun, EachRankKeepsItsOwnCaughtExceptionAcrossSwitches) {
  const support::CpuConfinement one(first_cpu());
  const net::ArcticModel net;
  Runtime rt(machine(net, 2, 1));
  std::array<std::string, 2> seen;
  rt.run([&](RankContext& ctx) {
    const int me = ctx.rank();
    try {
      throw std::runtime_error("rank " + std::to_string(me));
    } catch (const std::runtime_error&) {
      if (me == 0) {
        (void)ctx.recv_raw(1, 1);
        ctx.send_raw(1, 2, {}, 0.0);
      } else {
        ctx.send_raw(0, 1, {}, 0.0);
        (void)ctx.recv_raw(0, 2);
      }
      try {
        std::rethrow_exception(std::current_exception());
      } catch (const std::runtime_error& e) {
        seen[static_cast<std::size_t>(me)] = e.what();
      }
    }
  });
  EXPECT_EQ(seen[0], "rank 0");
  EXPECT_EQ(seen[1], "rank 1");
}

}  // namespace
}  // namespace hyades::cluster
