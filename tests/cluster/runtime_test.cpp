#include "cluster/runtime.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "net/arctic_model.hpp"

namespace hyades::cluster {
namespace {

MachineConfig machine(const net::Interconnect& net, int smps = 8,
                      int ppp = 2) {
  MachineConfig cfg;
  cfg.smp_count = smps;
  cfg.procs_per_smp = ppp;
  cfg.interconnect = &net;
  return cfg;
}

TEST(VirtualClockTest, AdvanceAndSync) {
  VirtualClock c;
  EXPECT_DOUBLE_EQ(c.now(), 0.0);
  c.advance(2.5);
  c.advance_to(1.0);  // no-op: already past
  EXPECT_DOUBLE_EQ(c.now(), 2.5);
  c.advance_to(10.0);
  EXPECT_DOUBLE_EQ(c.now(), 10.0);
  c.reset();
  EXPECT_DOUBLE_EQ(c.now(), 0.0);
}

TEST(Runtime, RequiresInterconnect) {
  MachineConfig cfg;
  cfg.interconnect = nullptr;
  EXPECT_THROW(Runtime rt(cfg), std::invalid_argument);
}

TEST(Runtime, AcceptsNonPowerOfTwoSmps) {
  // The comm layer folds odd group sizes onto a butterfly core, so the
  // runtime no longer restricts smp_count to powers of two.
  const net::ArcticModel net;
  Runtime rt(machine(net, 3));
  std::atomic<int> seen{0};
  rt.run([&](RankContext&) { seen.fetch_add(1); });
  EXPECT_EQ(seen.load(), 6);
  EXPECT_THROW(Runtime bad(machine(net, 0)), std::invalid_argument);
}

TEST(Runtime, RanksSeeTheirIdentity) {
  const net::ArcticModel net;
  Runtime rt(machine(net, 4, 2));
  std::atomic<int> masters{0};
  rt.run([&](RankContext& ctx) {
    EXPECT_EQ(ctx.nranks(), 8);
    EXPECT_EQ(ctx.smp(), ctx.rank() / 2);
    EXPECT_EQ(ctx.local_rank(), ctx.rank() % 2);
    if (ctx.is_master()) ++masters;
  });
  EXPECT_EQ(masters.load(), 4);
}

TEST(Runtime, ComputeAdvancesClockAndAccounting) {
  const net::ArcticModel net;
  Runtime rt(machine(net, 1, 1));
  rt.run([](RankContext& ctx) {
    ctx.compute(5.0e6, 50.0);  // 5 MFlop at 50 MFlop/s -> 0.1 s
  });
  EXPECT_NEAR(rt.final_clocks()[0], 1.0e5, 1e-6);
  EXPECT_NEAR(rt.accounting()[0].compute_us, 1.0e5, 1e-6);
  EXPECT_DOUBLE_EQ(rt.accounting()[0].flops, 5.0e6);
  EXPECT_NEAR(rt.accounting()[0].sustained_mflops(), 50.0, 1e-9);
}

TEST(Runtime, ComputeRejectsBadArgs) {
  const net::ArcticModel net;
  Runtime rt(machine(net, 1, 1));
  EXPECT_THROW(rt.run([](RankContext& ctx) { ctx.compute(-1.0, 50.0); }),
               std::invalid_argument);
  EXPECT_THROW(rt.run([](RankContext& ctx) { ctx.compute(1.0, 0.0); }),
               std::invalid_argument);
}

TEST(Runtime, SmpSyncEqualizesClocks) {
  const net::ArcticModel net;
  Runtime rt(machine(net, 1, 2));
  rt.run([](RankContext& ctx) {
    // Rank 1 is far ahead; after the sync both clocks agree.
    ctx.compute(ctx.rank() == 1 ? 1.0e6 : 1.0e3, 50.0);
    ctx.smp_sync();
    EXPECT_NEAR(ctx.clock().now(), 1.0e6 / 50.0 + 0.25, 1e-9);
  });
}

TEST(Runtime, SmpPublishPeek) {
  const net::ArcticModel net;
  Runtime rt(machine(net, 1, 2));
  rt.run([](RankContext& ctx) {
    ctx.smp_publish_bytes(100 + ctx.local_rank(), 200 + ctx.local_rank());
    ctx.smp_sync();
    std::int64_t bsum = 0;
    for (int lr = 0; lr < ctx.procs_per_smp(); ++lr) {
      const auto [a, b] = ctx.smp_peek_bytes(lr);
      bsum += a + b;
    }
    ctx.smp_sync();
    EXPECT_EQ(bsum, 100 + 101 + 200 + 201);
  });
}

TEST(Runtime, MessagingBetweenRanks) {
  const net::ArcticModel net;
  Runtime rt(machine(net, 2, 2));
  rt.run([](RankContext& ctx) {
    if (ctx.rank() == 0) {
      ctx.send_raw(3, 11, {3.14}, 42.0);
    } else if (ctx.rank() == 3) {
      const Message m = ctx.recv_raw(0, 11);
      EXPECT_DOUBLE_EQ(m.data[0], 3.14);
      ctx.clock().advance_to(m.stamp_us);
      EXPECT_DOUBLE_EQ(ctx.clock().now(), 42.0);
    }
  });
}

TEST(Runtime, ExceptionPropagates) {
  const net::ArcticModel net;
  Runtime rt(machine(net, 2, 2));
  EXPECT_THROW(rt.run([](RankContext& ctx) {
                 if (ctx.rank() == 2) throw std::runtime_error("boom");
               }),
               std::runtime_error);
}

TEST(Runtime, ExceptionDoesNotDeadlockSibling) {
  const net::ArcticModel net;
  Runtime rt(machine(net, 1, 2));
  // Rank 0 throws before its barrier; rank 1 would hang in smp_sync
  // without the arrive_and_drop release.
  EXPECT_THROW(rt.run([](RankContext& ctx) {
                 if (ctx.rank() == 0) throw std::runtime_error("early");
                 ctx.smp_sync();
               }),
               std::runtime_error);
}

TEST(Runtime, ReturnedRankWakesItsReceiver) {
  // Rank 0 returns without sending: its exit ends rank 1's receive at
  // once with the typed PeerExited, not the bus's real-time backstop.
  const net::ArcticModel net;
  Runtime rt(machine(net, 2, 1));
  EXPECT_THROW(rt.run([](RankContext& ctx) {
                 if (ctx.rank() == 1) (void)ctx.recv_raw(0, 5);
               }),
               PeerExited);
}

TEST(Runtime, ExitMarksResetBetweenRuns) {
  // Every rank exits in the first run; the second run's receive must
  // wait for the (live again) sender instead of seeing a stale mark.
  const net::ArcticModel net;
  Runtime rt(machine(net, 2, 1));
  rt.run([](RankContext&) {});
  rt.run([](RankContext& ctx) {
    if (ctx.rank() == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      ctx.send_raw(1, 6, {8.0}, 1.0);
    } else {
      EXPECT_DOUBLE_EQ(ctx.recv_raw(0, 6).data[0], 8.0);
    }
  });
}

TEST(Runtime, VirtualTimeDeterministicAcrossRuns) {
  const net::ArcticModel net;
  auto run_once = [&] {
    Runtime rt(machine(net, 4, 2));
    rt.run([](RankContext& ctx) {
      for (int step = 0; step < 10; ++step) {
        ctx.compute(1000.0 * (ctx.rank() + 1), 50.0);
        ctx.smp_sync();
      }
    });
    return rt.final_clocks();
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a, b);
}

TEST(Runtime, MaxClock) {
  const net::ArcticModel net;
  Runtime rt(machine(net, 2, 1));
  rt.run([](RankContext& ctx) {
    ctx.compute(ctx.rank() == 1 ? 2000.0 : 1000.0, 50.0);
  });
  EXPECT_NEAR(rt.max_clock(), 40.0, 1e-9);
}

}  // namespace
}  // namespace hyades::cluster
