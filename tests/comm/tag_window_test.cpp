// Tag-window lifetime bugs (fixed in this layer): the rotating exchange
// tag window used to wrap silently, so the 65th in-flight exchange would
// consume an older handle's messages as its own.  Starting onto an
// undrained slot now throws, and destroying a never-finished handle is
// detected and counted.  Single-rank machine throughout: collectives
// complete locally, so handles can be parked without deadlocking
// siblings.
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

TEST(TagWindow, ExchangeWrapOntoUnfinishedHandleThrows) {
  run_single_rank([](Comm& comm) {
    Buffers buf;  // neighborless: no strips move, but slots are consumed
    std::vector<ExchangeHandle> inflight;
    for (int i = 0; i < 64; ++i) {
      inflight.push_back(comm.exchange_start(kNoNeighbors, buf));
    }
    // The 65th start would reuse slot 0, still held by inflight[0].
    EXPECT_THROW((void)comm.exchange_start(kNoNeighbors, buf),
                 std::runtime_error);
    for (ExchangeHandle& h : inflight) comm.exchange_finish(h);
    // Draining the window frees the slots again.
    ExchangeHandle h = comm.exchange_start(kNoNeighbors, buf);
    comm.exchange_finish(h);
  });
}

TEST(TagWindow, AbandonedHandlesAreDetectedAndCounted) {
  reset_abandoned_handles();
  run_single_rank([](Comm& comm) {
    Buffers buf;
    {
      ExchangeHandle x = comm.exchange_start(kNoNeighbors, buf);
      EXPECT_TRUE(x.valid());
      // Goes out of scope still active: one abandonment.
    }
    EXPECT_EQ(abandoned_handles(), 1u);
    // The abandoned slot stays poisoned: wrapping onto it fails fast, in
    // both exchange forms, instead of silently adopting the abandoned
    // handle's messages.
    for (int i = 0; i < 63; ++i) comm.exchange(kNoNeighbors, buf);
    EXPECT_THROW(comm.exchange(kNoNeighbors, buf), std::runtime_error);
    EXPECT_THROW((void)comm.exchange_start(kNoNeighbors, buf),
                 std::runtime_error);
  });
  reset_abandoned_handles();
  EXPECT_EQ(abandoned_handles(), 0u);
}

TEST(TagWindow, MovedFromHandlesDoNotCountAsAbandoned) {
  reset_abandoned_handles();
  run_single_rank([](Comm& comm) {
    Buffers buf;
    ExchangeHandle a = comm.exchange_start(kNoNeighbors, buf);
    ExchangeHandle b = std::move(a);
    EXPECT_FALSE(a.valid());  // ownership transferred, not duplicated
    EXPECT_TRUE(b.valid());
    comm.exchange_finish(b);
  });
  EXPECT_EQ(abandoned_handles(), 0u);
}

// ---- satellite (c): neighbor validation ---------------------------------

TEST(NeighborValidation, MinusOneAcceptedOtherNegativesRejected) {
  run_single_rank([](Comm& comm) {
    Buffers buf;
    // Exactly -1 means "no neighbor" and is fine.
    comm.exchange(kNoNeighbors, buf);
    // Any other negative is a decomposition bug, not a missing neighbor.
    EXPECT_THROW(comm.exchange({{-2, -1, -1, -1}}, buf), std::out_of_range);
    EXPECT_THROW(comm.exchange({{-1, -1, kDirections, -1}}, buf),
                 std::out_of_range);
    // A rejected exchange consumed no tag slot: the window still drains.
    ExchangeHandle h = comm.exchange_start(kNoNeighbors, buf);
    comm.exchange_finish(h);
  });
}

}  // namespace
}  // namespace hyades::comm
