// Membership edge cases: NodeDown verdicts are independent of the
// detecting rank, and kills inside one detection window coalesce.
#include "cluster/membership.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "cluster/fault.hpp"
#include "cluster/runtime.hpp"
#include "net/arctic_model.hpp"

namespace hyades::cluster {
namespace {

MachineConfig machine(const net::Interconnect& net, const FaultPlan* plan,
                      int smps = 4, int ppp = 1) {
  MachineConfig cfg;
  cfg.smp_count = smps;
  cfg.procs_per_smp = ppp;
  cfg.interconnect = &net;
  cfg.faults = plan;
  return cfg;
}

FaultPlan kill_plan(int rank = 3, Microseconds at_us = 50.0, int epoch = 0) {
  FaultPlan plan;
  plan.node_kills.push_back({rank, at_us, epoch});
  return plan;
}

// The verdict is a pure function of the fault plan, never of the racing
// detector's clock: whichever survivor escalates first -- and however
// much virtual time it had already burned -- the published verdict is
// bit-identical.  Permute the detecting rank (and skew its clock) and
// compare.
TEST(Membership, VerdictIdenticalAcrossDetectionOrder) {
  const net::ArcticModel net;
  const FaultPlan plan = kill_plan(/*rank=*/3, /*at_us=*/50.0, /*epoch=*/0);
  std::vector<NodeDownVerdict> verdicts;
  const std::vector<std::pair<int, Microseconds>> detectors = {
      {0, 0.0}, {1, 12.5}, {2, 0.75}, {1, 0.0}, {0, 200.0}};
  for (const auto& [detector, skew_us] : detectors) {
    Runtime rt(machine(net, &plan));
    NodeDownVerdict got;
    rt.run([&](RankContext& ctx) {
      if (ctx.rank() != detector) return;
      if (skew_us > 0) ctx.clock().advance(skew_us);
      const NodeKill* kill = plan.node_kill(3, ctx.epoch());
      ASSERT_NE(kill, nullptr);
      Membership* ms = ctx.membership();
      ASSERT_NE(ms, nullptr);
      try {
        ms->escalate();
        FAIL() << "escalate must throw NodeDownError";
      } catch (const NodeDownError& e) {
        got = e.verdict;
      }
    });
    verdicts.push_back(got);
  }
  for (const NodeDownVerdict& v : verdicts) {
    EXPECT_EQ(v.rank, verdicts.front().rank);
    EXPECT_EQ(v.epoch, verdicts.front().epoch);
    EXPECT_DOUBLE_EQ(v.detected_us, verdicts.front().detected_us);
  }
  EXPECT_EQ(verdicts.front().rank, 3);
  EXPECT_DOUBLE_EQ(verdicts.front().detected_us,
                   50.0 + plan.heartbeat_deadline_us);
}

// Concurrent loss: every kill of the epoch whose deadline has expired
// by the coalesced detection time lands in ONE verdict, so recovery
// plans over the whole dead set instead of discovering casualties one
// aborted epoch at a time.
TEST(Membership, ConcurrentKillsCoalesceIntoOneVerdict) {
  const net::ArcticModel net;
  FaultPlan plan;
  plan.node_kills.push_back({1, 50.0, 0});
  plan.node_kills.push_back({3, 60.0, 0});
  Runtime rt(machine(net, &plan));
  rt.run([&](RankContext& ctx) {
    if (ctx.rank() != 0) return;
    Membership ms(ctx, plan);
    const NodeDownVerdict v = ms.coalesced_verdict();
    ASSERT_EQ(v.ranks.size(), 2u);
    EXPECT_EQ(v.ranks[0], 1);
    EXPECT_EQ(v.ranks[1], 3);
    EXPECT_EQ(v.rank, 1);  // canonical primary: lowest kill-named rank
    // Fixpoint: detection waits for the latest coalesced deadline.
    EXPECT_DOUBLE_EQ(v.detected_us, 60.0 + plan.heartbeat_deadline_us);
  });
}

// A kill during recovery detection chains in: its deadline lands inside
// the window the earlier deadlines opened, growing the dead set until
// the fixpoint is stable.
TEST(Membership, CascadingKillsChainThroughTheFixpoint) {
  const net::ArcticModel net;
  const Microseconds dl = FaultPlan{}.heartbeat_deadline_us;  // 2000
  FaultPlan plan;
  plan.node_kills.push_back({0, 0.0, 0});
  plan.node_kills.push_back({2, dl - 500.0, 0});       // inside first window
  plan.node_kills.push_back({3, 2.0 * dl - 600.0, 0});  // inside second
  Runtime rt(machine(net, &plan));
  rt.run([&](RankContext& ctx) {
    if (ctx.rank() != 1) return;
    Membership ms(ctx, plan);
    const NodeDownVerdict v = ms.coalesced_verdict();
    EXPECT_EQ(v.ranks, (std::vector<int>{0, 2, 3}));
    EXPECT_EQ(v.rank, 0);
    EXPECT_DOUBLE_EQ(v.detected_us, 3.0 * dl - 600.0);
  });
}

// A kill scheduled beyond the coalescing fixpoint stays out: the world
// recovers from the first verdict (bumping the epoch) before that kill
// could ever be detected.
TEST(Membership, KillBeyondTheFixpointStaysASeparateEvent) {
  const net::ArcticModel net;
  const Microseconds dl = FaultPlan{}.heartbeat_deadline_us;
  FaultPlan plan;
  plan.node_kills.push_back({1, 100.0, 0});
  plan.node_kills.push_back({3, 100.0 + dl + 1.0, 0});  // past the window
  Runtime rt(machine(net, &plan));
  rt.run([&](RankContext& ctx) {
    if (ctx.rank() != 0) return;
    Membership ms(ctx, plan);
    const NodeDownVerdict v = ms.coalesced_verdict();
    EXPECT_EQ(v.ranks, (std::vector<int>{1}));
    EXPECT_DOUBLE_EQ(v.detected_us, 100.0 + dl);
  });
}

// Plan purity holds for multi-rank verdicts too: whichever survivor
// escalates, whatever its clock skew, the published dead set and
// detection time are bit-identical.
TEST(Membership, CoalescedVerdictIdenticalAcrossDetectionOrder) {
  const net::ArcticModel net;
  FaultPlan plan;
  plan.node_kills.push_back({2, 40.0, 0});
  plan.node_kills.push_back({3, 55.0, 0});
  std::vector<NodeDownVerdict> verdicts;
  const std::vector<std::pair<int, Microseconds>> detectors = {
      {0, 0.0}, {1, 12.5}, {0, 321.0}, {1, 0.25}};
  for (const auto& [detector, skew_us] : detectors) {
    Runtime rt(machine(net, &plan));
    NodeDownVerdict got;
    rt.run([&](RankContext& ctx) {
      if (ctx.rank() != detector) return;
      if (skew_us > 0) ctx.clock().advance(skew_us);
      const NodeKill* kill = plan.node_kill(2, ctx.epoch());
      ASSERT_NE(kill, nullptr);
      Membership* ms = ctx.membership();
      ASSERT_NE(ms, nullptr);
      try {
        ms->escalate();
        FAIL() << "escalate must throw NodeDownError";
      } catch (const NodeDownError& e) {
        got = e.verdict;
      }
    });
    verdicts.push_back(got);
  }
  for (const NodeDownVerdict& v : verdicts) {
    EXPECT_EQ(v.ranks, verdicts.front().ranks);
    EXPECT_EQ(v.rank, verdicts.front().rank);
    EXPECT_DOUBLE_EQ(v.detected_us, verdicts.front().detected_us);
  }
  EXPECT_EQ(verdicts.front().ranks, (std::vector<int>{2, 3}));
  EXPECT_EQ(verdicts.front().rank, 2);
}

// Every verdict comes from the coalescing fixpoint, so a lone kill's
// verdict names its dead set too, and an epoch without kills has none.
TEST(Membership, LoneKillVerdictNamesItsDeadSet) {
  const FaultPlan plan = kill_plan(/*rank=*/5, /*at_us=*/10.0, /*epoch=*/1);
  const NodeDownVerdict v = coalesce_expired_kills(plan, 1);
  EXPECT_EQ(v.ranks, (std::vector<int>{5}));
  EXPECT_EQ(v.rank, 5);
  EXPECT_EQ(v.epoch, 1);
  const NodeDownVerdict none = coalesce_expired_kills(plan, 0);
  EXPECT_TRUE(none.ranks.empty());
  EXPECT_EQ(none.rank, -1);
}

}  // namespace
}  // namespace hyades::cluster
