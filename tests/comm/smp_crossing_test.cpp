// Host barrier crossings per SMP for each primitive that coordinates the
// ranks of a two-way SMP.  Virtual time prices the *modeled* crossings,
// so no functional test sees how often the host really crosses; this one
// pins the counts, so a change that quietly adds a crossing back fails.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "comm/comm.hpp"
#include "net/arctic_model.hpp"

namespace hyades::comm {
namespace {

using cluster::MachineConfig;
using cluster::RankContext;
using cluster::Runtime;

constexpr int kSmps = 2;

// 2x2 periodic tile grid over the 2x2 machine: rank = ty*2 + tx, so the
// east/west partner shares the SMP and the north/south one does not.
std::array<int, kDirections> grid_neighbors(int rank) {
  const int tx = rank % 2, ty = rank / 2;
  auto id = [](int x, int y) { return ((y + 2) % 2) * 2 + (x + 2) % 2; };
  return {id(tx + 1, ty), id(tx - 1, ty), id(tx, ty + 1), id(tx, ty - 1)};
}

Comm::Buffers strips(int rank) {
  Comm::Buffers buf;
  for (int d = 0; d < kDirections; ++d) {
    buf.out[static_cast<std::size_t>(d)].assign(8, rank * 10.0 + d);
    buf.in[static_cast<std::size_t>(d)].assign(8, 0.0);
  }
  return buf;
}

TEST(SmpCrossings, OnePerSyncPhaseAndLocalCombine) {
  const net::ArcticModel net;
  MachineConfig cfg;
  cfg.smp_count = kSmps;
  cfg.procs_per_smp = 2;
  cfg.interconnect = &net;
  Runtime rt(cfg);
  // Crossings of each SMP's sync during one run of `body`.  The sync
  // lives as long as the run, so each SMP's master reads its count when
  // its body is done: its siblings made every crossing with it.
  const auto crossings = [&](const std::function<void(Comm&)>& body) {
    std::vector<std::uint64_t> made(kSmps);
    rt.run([&](RankContext& ctx) {
      Comm comm(ctx);
      body(comm);
      if (ctx.is_master()) {
        made[static_cast<std::size_t>(ctx.smp())] = ctx.smp_crossings();
      }
    });
    return made;
  };
  using Counts = std::vector<std::uint64_t>;

  EXPECT_EQ(crossings([](Comm& c) { c.ctx().smp_sync(); }),
            (Counts{1, 1}));
  EXPECT_EQ(crossings([](Comm& c) {
              Comm::Buffers buf = strips(c.group_rank());
              c.exchange(grid_neighbors(c.group_rank()), buf);
            }),
            (Counts{4, 4}));
  EXPECT_EQ(crossings([](Comm& c) {
              Comm::Buffers buf = strips(c.group_rank());
              ExchangeHandle h =
                  c.exchange_start(grid_neighbors(c.group_rank()), buf);
              c.exchange_finish(h);
            }),
            (Counts{4, 4}));
  EXPECT_EQ(crossings([](Comm& c) { (void)c.global_sum(1.0); }),
            (Counts{2, 2}));
  EXPECT_EQ(crossings([](Comm& c) { c.barrier(); }), (Counts{2, 2}));
}

}  // namespace
}  // namespace hyades::comm
