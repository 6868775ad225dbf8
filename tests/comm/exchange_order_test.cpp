// The exchange order rule: every exchange sends direction d on one fixed
// tag, so split-phase exchanges finish in the order they started, and a
// handle that breaks the order fails at once instead of taking another
// exchange's strips.  Single-rank machine throughout: collectives
// complete locally, so handles can be parked without deadlocking
// siblings, and a periodic wrap onto the rank itself moves real strips.
#include <gtest/gtest.h>

#include <array>
#include <functional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "comm/comm.hpp"
#include "net/arctic_model.hpp"

namespace hyades::comm {
namespace {

using cluster::MachineConfig;
using cluster::RankContext;
using cluster::Runtime;

void run_single_rank(const std::function<void(Comm&)>& body) {
  static const net::ArcticModel net;
  MachineConfig mc;
  mc.smp_count = 1;
  mc.procs_per_smp = 1;
  mc.interconnect = &net;
  Runtime rt(mc);
  rt.run([&](RankContext& ctx) {
    Comm comm(ctx);
    body(comm);
  });
}

const std::array<int, kDirections> kNoNeighbors{{-1, -1, -1, -1}};
const std::array<int, kDirections> kSelf{{0, 0, 0, 0}};

// Strips of `len` copies of value + d, and inbound strips of -1.
Buffers self_buffers(double value, std::size_t len = 4) {
  Buffers buf;
  for (int d = 0; d < kDirections; ++d) {
    buf.out[static_cast<std::size_t>(d)].assign(len, value + d);
    buf.in[static_cast<std::size_t>(d)].assign(len, -1.0);
  }
  return buf;
}

// The strip arriving from direction d left through direction opposite(d).
void expect_own_strips(const Buffers& buf, double value) {
  for (int d = 0; d < kDirections; ++d) {
    for (double v : buf.in[static_cast<std::size_t>(d)]) {
      EXPECT_EQ(v, value + opposite(d)) << "dir " << d;
    }
  }
}

TEST(ExchangeOrder, FinishOutOfStartOrderThrows) {
  run_single_rank([](Comm& comm) {
    Buffers a = self_buffers(10.0);
    Buffers b = self_buffers(20.0, 8);
    ExchangeHandle ha = comm.exchange_start(kSelf, a);
    ExchangeHandle hb = comm.exchange_start(kSelf, b);
    EXPECT_THROW(comm.exchange_finish(hb), std::logic_error);
    // The refused finish took nothing: both finish in start order.
    EXPECT_TRUE(hb.valid());
    EXPECT_EQ(comm.exchanges_done(), 0u);
    comm.exchange_finish(ha);
    comm.exchange_finish(hb);
    expect_own_strips(a, 10.0);
    expect_own_strips(b, 20.0);
    EXPECT_EQ(comm.exchanges_done(), 2u);
  });
}

TEST(ExchangeOrder, DroppedHandleStopsTheNextExchange) {
  run_single_rank([](Comm& comm) {
    Buffers dropped = self_buffers(10.0);
    // Dropped unfinished: its strips stay queued.
    (void)comm.exchange_start(kSelf, dropped);
    Buffers buf = self_buffers(20.0);
    EXPECT_THROW(comm.exchange(kSelf, buf), std::logic_error);
    ExchangeHandle next = comm.exchange_start(kSelf, buf);
    EXPECT_THROW(comm.exchange_finish(next), std::logic_error);
    // Neither took the dropped exchange's strips as its own.
    for (const std::vector<double>& in : buf.in) {
      for (double v : in) EXPECT_EQ(v, -1.0);
    }
    EXPECT_EQ(comm.exchanges_done(), 0u);
  });
}

TEST(ExchangeOrder, MovedHandleFinishesOnce) {
  run_single_rank([](Comm& comm) {
    Buffers buf = self_buffers(10.0);
    ExchangeHandle a = comm.exchange_start(kSelf, buf);
    ExchangeHandle b = std::move(a);
    comm.exchange_finish(b);
    expect_own_strips(buf, 10.0);
    EXPECT_FALSE(b.valid());
    EXPECT_THROW(comm.exchange_finish(b), std::logic_error);
    // The moved-from source names the exchange that already finished.
    EXPECT_THROW(comm.exchange_finish(a), std::logic_error);
    EXPECT_EQ(comm.exchanges_done(), 1u);
    // Nothing is left in flight: the next exchange runs.
    Buffers next = self_buffers(30.0);
    comm.exchange(kSelf, next);
    expect_own_strips(next, 30.0);
  });
}

TEST(NeighborValidation, MinusOneAcceptedOtherNegativesRejected) {
  run_single_rank([](Comm& comm) {
    Buffers buf;
    // Exactly -1 means "no neighbor" and is fine.
    comm.exchange(kNoNeighbors, buf);
    // Any other negative is a decomposition bug, not a missing neighbor.
    EXPECT_THROW(comm.exchange({{-2, -1, -1, -1}}, buf), std::out_of_range);
    EXPECT_THROW(comm.exchange({{-1, -1, kDirections, -1}}, buf),
                 std::out_of_range);
    // A rejected exchange started nothing: the next one finishes.
    ExchangeHandle h = comm.exchange_start(kNoNeighbors, buf);
    comm.exchange_finish(h);
    EXPECT_EQ(comm.exchanges_done(), 2u);
  });
}

}  // namespace
}  // namespace hyades::comm
