#include "cluster/runtime.hpp"

#include <gtest/gtest.h>

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <latch>
#include <limits>
#include <string>
#include <system_error>
#include <thread>
#include <vector>

#include "net/arctic_model.hpp"

namespace hyades::cluster {
namespace {

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitizerReservesAddressSpace = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr bool kSanitizerReservesAddressSpace = true;
#else
constexpr bool kSanitizerReservesAddressSpace = false;
#endif
#else
constexpr bool kSanitizerReservesAddressSpace = false;
#endif

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

// Back-to-back byte sums with rank- and iteration-dependent compute in
// between, on three ranks so a fast sibling keeps lapping a slow one by
// a crossing: the slow one must still read its own crossing's sums and
// equalized clock, exact.  Also a TSan target.
TEST(Runtime, SmpByteSumsSurviveSiblingsLapping) {
  constexpr int kProcs = 3;
  constexpr int kIters = 10000;
  constexpr double kMflops = 50.0;
  const auto flops = [](int rank, int it) {
    return 10.0 * ((rank * 7 + it * 13) % 17 + 1);
  };
  const auto bytes_a = [](int rank, int it) -> std::int64_t {
    return rank * 1000 + it;
  };
  const auto bytes_b = [](int rank, int it) -> std::int64_t {
    return 3 * it - rank;
  };
  const net::ArcticModel net;
  Runtime rt(machine(net, 1, kProcs));
  std::array<int, kProcs> first_bad{-1, -1, -1};
  rt.run([&](RankContext& ctx) {
    const int me = ctx.rank();
    Microseconds expect_clock = 0;
    for (int it = 0; it < kIters; ++it) {
      ctx.compute(flops(me, it), kMflops);
      if ((it + me) % 5 == 0) std::this_thread::yield();
      const auto [a, b] = ctx.smp_sync(bytes_a(me, it), bytes_b(me, it));
      std::int64_t expect_a = 0, expect_b = 0;
      Microseconds mx = 0;
      for (int r = 0; r < kProcs; ++r) {
        expect_a += bytes_a(r, it);
        expect_b += bytes_b(r, it);
        Microseconds t = expect_clock;
        t += flops(r, it) / kMflops;
        mx = std::max(mx, t);
      }
      expect_clock = mx;
      expect_clock += kSmpBarrierUs;
      if (first_bad[static_cast<std::size_t>(me)] < 0 &&
          (a != expect_a || b != expect_b ||
           ctx.clock().now() != expect_clock)) {
        first_bad[static_cast<std::size_t>(me)] = it;
      }
    }
  });
  for (int r = 0; r < kProcs; ++r) {
    EXPECT_EQ(first_bad[static_cast<std::size_t>(r)], -1)
        << "rank " << r << " saw a wrong sum or clock first at that iteration";
  }
}

// Address space of this process, from /proc/self/status (VmSize).
std::uint64_t vm_bytes() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmSize:") {
      std::uint64_t kb = 0;
      status >> kb;
      return kb * 1024;
    }
    status.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
  }
  return 0;
}

// The host refuses a rank thread mid-spawn: the started ranks must be
// joined (a joinable std::thread destroyed in the unwind would call
// std::terminate) after the unstarted ones count as exited, so every
// started rank unwinds, and the spawn error surfaces as the root cause.
// The child caps its address space a few default thread stacks above
// its current size, so a 16-rank run cannot start every thread.
TEST(RuntimeDeathTest, FailedSpawnJoinsStartedRanksAndRethrows) {
  if (kSanitizerReservesAddressSpace) {
    GTEST_SKIP() << "ASan/TSan reserve address ranges an RLIMIT_AS cap "
                    "cannot accommodate";
  }
  EXPECT_EXIT(
      {
        rlimit lim{};
        getrlimit(RLIMIT_AS, &lim);
        lim.rlim_cur = std::min<rlim_t>(vm_bytes() + (48u << 20), lim.rlim_max);
        setrlimit(RLIMIT_AS, &lim);
        const net::ArcticModel net;
        Runtime rt(machine(net, 8, 2));
        try {
          rt.run([](RankContext& ctx) {
            ctx.smp_sync();
            const int last = ctx.nranks() - 1;
            if (ctx.rank() != last) (void)ctx.recv_raw(last, 9);
          });
        } catch (const std::system_error&) {
          std::_Exit(0);
        } catch (const std::exception& e) {
          std::fprintf(stderr, "run threw %s\n", e.what());
          std::_Exit(2);
        }
        std::fprintf(stderr, "every rank thread started\n");
        std::_Exit(3);
      },
      ::testing::ExitedWithCode(0), "");
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
  // without the abort rank 0's exit sends its SMP sync.
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

// Runs `check` under the calling thread's mask, then again confined to
// its first two allowed CPUs (when it has two): the threads `check`
// starts inherit the mask.
template <typename Check>
void under_own_and_two_cpu_masks(const Check& check) {
  check();
  const std::vector<int> cpus = support::allowed_cpus();
  if (cpus.size() < 2) return;
  const support::CpuConfinement two({cpus[0], cpus[1]});
  check();
}

// Each rank's host pool gets the CPUs its run's ranks leave idle:
// allowed CPUs / ranks - 1 helpers.
TEST(Runtime, HostHelpersFillTheIdleCores) {
  const net::ArcticModel net;
  under_own_and_two_cpu_masks([&] {
    const int cores = static_cast<int>(support::allowed_cpus().size());
    for (const auto& [smps, ppp] : {std::pair{1, 1}, std::pair{2, 1},
                                    std::pair{2, 2}, std::pair{8, 2}}) {
      Runtime rt(machine(net, smps, ppp));
      const int n = smps * ppp;
      std::vector<int> threads(static_cast<std::size_t>(n), -1);
      rt.run([&](RankContext& ctx) {
        threads[static_cast<std::size_t>(ctx.rank())] =
            ctx.host_pool().threads();
      });
      const int want = std::max(0, cores / n - 1);
      std::printf("[ host pool ] %d core(s), %d rank(s): %d helper(s) a rank\n",
                  cores, n, want);
      EXPECT_EQ(rt.helpers_per_rank(), want);
      for (int r = 0; r < n; ++r) {
        EXPECT_EQ(threads[static_cast<std::size_t>(r)], want + 1)
            << "rank " << r;
      }
    }
  });
}

// Runs at the same time on separate CPU masks (a farm drain's lanes)
// each size their helpers from their own mask, not from the other's
// ranks: lane k gets the allowed CPUs j = k (mod 2), as a 2-lane drain.
TEST(Runtime, RunsOnSeparateMasksSizeTheirOwnHelpers) {
  const net::ArcticModel net;
  const std::vector<int> cpus = support::allowed_cpus();
  if (cpus.size() < 2) GTEST_SKIP() << "needs two allowed CPUs";
  std::array<std::vector<int>, 2> lanes;
  for (std::size_t j = 0; j < cpus.size(); ++j) lanes[j % 2].push_back(cpus[j]);
  std::array<Runtime, 2> rts{Runtime(machine(net, 1, 1)),
                             Runtime(machine(net, 1, 1))};
  std::array<int, 2> threads{-1, -1};
  std::latch both_running(2);
  const auto lane = [&](std::size_t k) {
    const support::CpuConfinement confined(lanes[k]);
    rts[k].run([&](RankContext& ctx) {
      both_running.arrive_and_wait();
      threads[k] = ctx.host_pool().threads();
    });
  };
  std::thread other(lane, 1);
  lane(0);
  other.join();
  for (std::size_t k = 0; k < 2; ++k) {
    const int want = static_cast<int>(lanes[k].size()) - 1;
    std::printf("[ host pool ] lane %zu: %zu core(s), 1 rank: %d helper(s)\n",
                k, lanes[k].size(), want);
    EXPECT_EQ(rts[k].helpers_per_rank(), want) << "lane " << k;
    EXPECT_EQ(threads[k], want + 1) << "lane " << k;
  }
}

}  // namespace
}  // namespace hyades::cluster
