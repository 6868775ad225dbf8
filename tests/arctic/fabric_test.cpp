#include "arctic/fabric.hpp"

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "net/arctic_model.hpp"
#include "sim/scheduler.hpp"

namespace hyades::arctic {
namespace {

Packet small_packet(std::uint16_t tag = 0, Priority pri = Priority::kLow) {
  Packet p;
  p.priority = pri;
  p.usr_tag = tag;
  p.payload = {0x11111111u, 0x22222222u};
  return p;
}

struct Delivery {
  int node;
  Packet packet;
  sim::SimTime at;
};

struct Rig {
  sim::Scheduler sched;
  Fabric fabric;
  std::vector<Delivery> deliveries;

  explicit Rig(int endpoints, FabricConfig cfg = {})
      : fabric(sched, endpoints, cfg) {
    fabric.set_delivery_handler([this](int node, Packet&& p) {
      deliveries.push_back({node, std::move(p), sched.now()});
    });
  }
};

TEST(Fabric, AllPairsDeliver) {
  Rig rig(16);
  int sent = 0;
  for (int s = 0; s < 16; ++s) {
    for (int d = 0; d < 16; ++d) {
      if (s == d) continue;
      rig.fabric.inject(s, d, small_packet(static_cast<std::uint16_t>(s)));
      ++sent;
    }
  }
  rig.sched.run();
  ASSERT_EQ(static_cast<int>(rig.deliveries.size()), sent);
  // Each delivery arrives at the addressed node with intact payload.
  for (const auto& del : rig.deliveries) {
    EXPECT_EQ(del.node, del.packet.dst);
    EXPECT_EQ(del.packet.usr_tag, del.packet.src);
    EXPECT_FALSE(del.packet.crc_error);
  }
}

TEST(Fabric, AllPairsDeliver64Nodes) {
  Rig rig(64);
  int sent = 0;
  for (int s = 0; s < 64; s += 7) {
    for (int d = 0; d < 64; ++d) {
      if (s == d) continue;
      rig.fabric.inject(s, d, small_packet());
      ++sent;
    }
  }
  rig.sched.run();
  EXPECT_EQ(static_cast<int>(rig.deliveries.size()), sent);
  EXPECT_EQ(rig.fabric.stats().crc_flagged, 0u);
}

TEST(Fabric, SameLeafFasterThanCrossTree) {
  Rig near_rig(16);
  near_rig.fabric.inject(0, 1, small_packet());
  near_rig.sched.run();
  const sim::SimTime near_t = near_rig.deliveries.at(0).at;

  Rig far_rig(16);
  far_rig.fabric.inject(0, 15, small_packet());
  far_rig.sched.run();
  const sim::SimTime far_t = far_rig.deliveries.at(0).at;

  EXPECT_LT(near_t, far_t);
  // Two extra links + two extra stages: expect roughly 0.15*2 + hdr*2 more.
  EXPECT_GT(far_t - near_t, sim::from_us(0.3));
}

TEST(Fabric, FifoOrderingSamePath) {
  Rig rig(16);
  constexpr int kCount = 50;
  for (int i = 0; i < kCount; ++i) {
    rig.fabric.inject(2, 14, small_packet(static_cast<std::uint16_t>(i)));
  }
  rig.sched.run();
  ASSERT_EQ(static_cast<int>(rig.deliveries.size()), kCount);
  for (int i = 0; i < kCount; ++i) {
    EXPECT_EQ(rig.deliveries[static_cast<std::size_t>(i)].packet.usr_tag, i)
        << "FIFO ordering violated at " << i;
  }
}

TEST(Fabric, HighPriorityOvertakesQueuedLow) {
  Rig rig(16);
  // Saturate the path 0->15 with low-priority packets, then inject one
  // high-priority packet; it must not be blocked behind the queued lows.
  rig.sched.schedule_at(0, [&] {
    for (int i = 0; i < 30; ++i) {
      Packet p;
      p.priority = Priority::kLow;
      p.usr_tag = 1;
      p.payload.assign(22, 0u);  // max-size packets queue up
      rig.fabric.inject(0, 15, std::move(p));
    }
    rig.fabric.inject(0, 15, small_packet(2, Priority::kHigh));
  });
  rig.sched.run();
  ASSERT_EQ(rig.deliveries.size(), 31u);
  // The high packet should arrive well before the last low packet.
  std::size_t high_pos = 99;
  for (std::size_t i = 0; i < rig.deliveries.size(); ++i) {
    if (rig.deliveries[i].packet.usr_tag == 2) high_pos = i;
  }
  ASSERT_NE(high_pos, 99u);
  EXPECT_LT(high_pos, 5u);  // overtook nearly the whole low queue
}

TEST(Fabric, CrcCorruptionFlaggedNotDropped) {
  Rig rig(16);
  rig.fabric.corrupt_next_injection();
  rig.fabric.inject(0, 15, small_packet());
  rig.fabric.inject(0, 15, small_packet());
  rig.sched.run();
  ASSERT_EQ(rig.deliveries.size(), 2u);
  EXPECT_TRUE(rig.deliveries[0].packet.crc_error);
  EXPECT_FALSE(rig.deliveries[1].packet.crc_error);
  EXPECT_EQ(rig.fabric.stats().crc_flagged, 1u);
}

TEST(Fabric, CorruptHeaderWordsFlaggedAndStillDelivered) {
  // compute_crc covers the header words too: garbling either one must be
  // flagged just like a payload flip, and the chosen bits (priority,
  // usr-tag LSB) leave the routing fields intact so the packet still
  // reaches its destination.
  for (int word = 0; word < 4; ++word) {
    Rig rig(16);
    rig.fabric.corrupt_next_injection(word);
    rig.fabric.inject(0, 15, small_packet(/*tag=*/4));
    rig.sched.run();
    ASSERT_EQ(rig.deliveries.size(), 1u) << "word " << word;
    EXPECT_EQ(rig.deliveries[0].node, 15) << "word " << word;
    EXPECT_TRUE(rig.deliveries[0].packet.crc_error) << "word " << word;
  }
}

TEST(Fabric, FaultPlanCorruptionDeterministic) {
  auto flagged_serials = [] {
    FabricConfig cfg;
    cfg.faults.corrupt_prob = 0.05;
    Rig rig(16, cfg);
    for (int i = 0; i < 400; ++i) rig.fabric.inject(0, 15, small_packet());
    rig.sched.run();
    std::vector<std::uint64_t> flagged;
    for (const auto& del : rig.deliveries) {
      if (del.packet.crc_error) flagged.push_back(del.packet.serial);
    }
    EXPECT_EQ(rig.fabric.stats().corrupted, flagged.size());
    return flagged;
  };
  const auto first = flagged_serials();
  EXPECT_GT(first.size(), 5u);   // ~20 expected at p=0.05
  EXPECT_LT(first.size(), 60u);
  // Same seed, same injection sequence: bit-identical fault pattern.
  EXPECT_EQ(first, flagged_serials());
}

TEST(Fabric, FaultPlanDropsLosePackets) {
  FabricConfig cfg;
  cfg.faults.drop_prob = 0.02;
  Rig rig(16, cfg);
  for (int i = 0; i < 500; ++i) rig.fabric.inject(0, 15, small_packet());
  rig.sched.run();
  const FabricStats& st = rig.fabric.stats();
  EXPECT_GT(st.dropped, 0u);
  EXPECT_EQ(st.delivered + st.dropped, st.injected);
  EXPECT_EQ(rig.deliveries.size(), st.delivered);
}

TEST(Fabric, FaultPlanStallDelaysButDelivers) {
  auto last_arrival = [](double stall_prob) {
    FabricConfig cfg;
    cfg.faults.stall_prob = stall_prob;
    cfg.faults.stall_us = 2.0;
    Rig rig(16, cfg);
    for (int i = 0; i < 20; ++i) rig.fabric.inject(0, 15, small_packet());
    rig.sched.run();
    EXPECT_EQ(rig.deliveries.size(), 20u);
    return rig.sched.now();
  };
  const sim::SimTime clean = last_arrival(0.0);
  const sim::SimTime stalled = last_arrival(1.0);
  // Every stage held each packet 2 us extra; the tail packet must land
  // at least one full stall later.
  EXPECT_GE(stalled - clean, sim::from_us(2.0));
}

TEST(Fabric, FaultStreamLeavesAdaptiveRoutingUntouched) {
  // The independent-streams requirement: fault decisions are pure hashes
  // of the packet serial and never consume the routing RNG, so the
  // adaptive up-route choices are bit-identical with faults on or off.
  auto uproutes = [](double corrupt_prob) {
    FabricConfig cfg;
    cfg.random_uproute = true;
    cfg.seed = 99;
    cfg.faults.corrupt_prob = corrupt_prob;
    Rig rig(16, cfg);
    for (int i = 0; i < 100; ++i) rig.fabric.inject(0, 15, small_packet());
    rig.sched.run();
    std::map<std::uint64_t, std::uint32_t> by_serial;
    for (const auto& del : rig.deliveries) {
      by_serial[del.packet.serial] = del.packet.uproute;
    }
    return by_serial;
  };
  const auto clean = uproutes(0.0);
  const auto faulty = uproutes(0.3);
  ASSERT_EQ(clean.size(), 100u);
  ASSERT_EQ(faulty.size(), 100u);
  EXPECT_EQ(clean, faulty);
}

TEST(Fabric, RandomUprouteStillDelivers) {
  FabricConfig cfg;
  cfg.random_uproute = true;
  cfg.seed = 99;
  Rig rig(16, cfg);
  for (int i = 0; i < 100; ++i) {
    rig.fabric.inject(0, 15, small_packet(static_cast<std::uint16_t>(i % 16)));
  }
  rig.sched.run();
  EXPECT_EQ(rig.deliveries.size(), 100u);
  for (const auto& del : rig.deliveries) EXPECT_EQ(del.node, 15);
}

TEST(Fabric, BisectionBandwidthFormula) {
  // Paper Section 2.2: 2 * N * 150 MByte/sec.
  const net::ArcticModel arctic(16);
  ASSERT_NE(arctic.topology(), nullptr);
  EXPECT_DOUBLE_EQ(arctic.topology()->bisection_bandwidth_mbytes(),
                   2.0 * 16 * 150.0);
}

TEST(Fabric, DisjointPairsDoNotContend) {
  // "Arctic's fat-tree interconnect can handle multiple simultaneous
  // transfers with undiminished pair-wise bandwidth" (Section 4.1).
  auto run_pairs = [](std::vector<std::pair<int, int>> pairs) {
    Rig rig(16);
    for (int i = 0; i < 20; ++i) {
      for (auto [s, d] : pairs) {
        Packet p;
        p.payload.assign(22, 0u);
        rig.fabric.inject(s, d, std::move(p));
      }
    }
    rig.sched.run();
    return rig.sched.now();
  };
  // 8 disjoint same-leaf pairs take no longer than a single pair.
  const sim::SimTime single = run_pairs({{0, 1}});
  const sim::SimTime many =
      run_pairs({{0, 1}, {2, 3}, {4, 5}, {6, 7}, {8, 9}, {10, 11}, {12, 13},
                 {14, 15}});
  EXPECT_EQ(single, many);
}

TEST(Fabric, StatsCountStages) {
  Rig rig(16);
  rig.fabric.inject(0, 1, small_packet());   // 1 stage
  rig.fabric.inject(0, 15, small_packet());  // 3 stages
  rig.sched.run();
  EXPECT_EQ(rig.fabric.stats().injected, 2u);
  EXPECT_EQ(rig.fabric.stats().delivered, 2u);
  EXPECT_EQ(rig.fabric.stats().router_stages, 4u);
}

TEST(Fabric, RejectsBadEndpointsAndFormat) {
  Rig rig(16);
  EXPECT_THROW(rig.fabric.inject(-1, 3, small_packet()), std::out_of_range);
  EXPECT_THROW(rig.fabric.inject(0, 16, small_packet()), std::out_of_range);
  Packet bad;
  bad.payload = {1u};  // below the 2-word minimum
  EXPECT_THROW(rig.fabric.inject(0, 3, std::move(bad)), std::invalid_argument);
}

TEST(Fabric, RoutesAroundScheduledLinkKill) {
  // A fault-plan link kill fires through the virtual clock; traffic
  // injected afterwards routes around the dead cable and still lands.
  FabricConfig cfg;
  const Route healthy = compute_route(0, 15, FatTreeShape{kRadix, 2});
  KillEvent kill;
  kill.kind = KillEvent::Kind::kLink;
  kill.level = 0;
  kill.index = 0;
  kill.port = healthy.up_ports[0];
  kill.at_us = 5.0;
  cfg.faults.kills = {kill};
  Rig rig(16, cfg);
  rig.sched.schedule_at(sim::from_us(10.0), [&] {
    for (int i = 0; i < 8; ++i) rig.fabric.inject(0, 15, small_packet());
  });
  rig.sched.run();
  EXPECT_EQ(rig.deliveries.size(), 8u);
  for (const auto& del : rig.deliveries) {
    EXPECT_EQ(del.node, 15);
    EXPECT_FALSE(del.packet.crc_error);
  }
  const FabricStats& st = rig.fabric.stats();
  EXPECT_EQ(st.links_killed, 1u);
  EXPECT_EQ(st.degraded_routes, 8u);
  EXPECT_EQ(st.unreachable_routes, 0u);
}

TEST(Fabric, InFlightPacketLostAtKilledRouter) {
  // A packet routed before the kill is lost when it reaches the dead
  // hardware -- only the end-to-end protocol above can recover it.
  Rig rig(16);
  rig.fabric.inject(0, 15, small_packet());
  KillEvent kill;
  kill.kind = KillEvent::Kind::kRouter;
  kill.level = 1;
  kill.index = compute_route(0, 15, FatTreeShape{kRadix, 2}).up_ports[0];
  rig.fabric.apply_kill(kill);
  rig.sched.run();
  EXPECT_EQ(rig.deliveries.size(), 0u);
  EXPECT_EQ(rig.fabric.stats().dead_component_drops, 1u);
  EXPECT_EQ(rig.fabric.stats().routers_killed, 1u);
}

TEST(Fabric, UnreachableInjectionThrows) {
  // Killing all four up cables of leaf router 0 strands endpoints 0..3.
  Rig rig(16);
  for (int u = 0; u < kRadix; ++u) {
    KillEvent kill;
    kill.kind = KillEvent::Kind::kLink;
    kill.level = 0;
    kill.index = 0;
    kill.port = u;
    rig.fabric.apply_kill(kill);
  }
  try {
    rig.fabric.inject(0, 15, small_packet());
    FAIL() << "expected UnreachableError";
  } catch (const UnreachableError& e) {
    EXPECT_EQ(e.src, 0);
    EXPECT_EQ(e.dst, 15);
  }
  EXPECT_EQ(rig.fabric.stats().unreachable_routes, 1u);
  // Same-leaf traffic below the dead cables still flows.
  rig.fabric.inject(0, 1, small_packet());
  rig.sched.run();
  EXPECT_EQ(rig.deliveries.size(), 1u);
}

TEST(Fabric, TwoEndpointDegenerateTree) {
  Rig rig(2);
  rig.fabric.inject(0, 1, small_packet());
  rig.fabric.inject(1, 0, small_packet());
  rig.sched.run();
  EXPECT_EQ(rig.deliveries.size(), 2u);
}

}  // namespace
}  // namespace hyades::arctic
