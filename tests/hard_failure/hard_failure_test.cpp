// Hard-failure suite (tier2 + aggregate label `hard_failure_tests`):
// permanent link kills with route-around, heartbeat-detected node
// fail-stop, epoch-tagged restart from durable checkpoints, and the
// typed give-up past the restart budget.  The governing invariant: any
// survivable kill schedule finishes with final prognostic state
// bit-identical to the failure-free run -- hard failures cost virtual
// time and accounting, never bits.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <map>
#include <mutex>
#include <vector>

#include "cluster/fault.hpp"
#include "cluster/membership.hpp"
#include "cluster/runtime.hpp"
#include "cluster/trace.hpp"
#include "comm/comm.hpp"
#include "comm/reliable.hpp"
#include "gcm/model.hpp"
#include "gcm/resilient.hpp"
#include "gcm/tile_ckpt.hpp"
#include "tests/gcm/gcm_test_util.hpp"

namespace hyades {
namespace {

bool bits_equal(const double* a, const double* b, std::size_t n) {
  return std::memcmp(a, b, n * sizeof(double)) == 0;
}

void expect_state_bits_equal(const gcm::State& a, const gcm::State& b,
                             const char* what) {
  EXPECT_TRUE(bits_equal(a.u.data(), b.u.data(), a.u.size())) << what << " u";
  EXPECT_TRUE(bits_equal(a.v.data(), b.v.data(), a.v.size())) << what << " v";
  EXPECT_TRUE(bits_equal(a.w.data(), b.w.data(), a.w.size())) << what << " w";
  EXPECT_TRUE(bits_equal(a.theta.data(), b.theta.data(), a.theta.size()))
      << what << " theta";
  EXPECT_TRUE(bits_equal(a.salt.data(), b.salt.data(), a.salt.size()))
      << what << " salt";
  EXPECT_TRUE(bits_equal(a.ps.data(), b.ps.data(), a.ps.size()))
      << what << " ps";
  EXPECT_TRUE(bits_equal(a.gu_nm1.data(), b.gu_nm1.data(), a.gu_nm1.size()))
      << what << " gu_nm1";
  EXPECT_EQ(a.step, b.step) << what;
}

// The pid keeps concurrent processes of this binary apart: ctest -j
// runs the suite aggregate beside the discovered copies of its tests.
std::string ckpt_prefix_for(const char* name) {
  return (std::filesystem::temp_directory_path() /
          (std::string(name) + "." + std::to_string(getpid())))
      .string();
}

void cleanup_slots(const std::string& prefix, int ranks) {
  gcm::tile_ckpt::remove_slots(prefix, ranks);
}

// One resilient gyre run: 4 tiles (2x2), kBasin topography, collecting
// every rank's final state plus the runtime's summed fault accounting.
struct ResilientRun {
  gcm::ResilientStats stats;
  std::map<int, gcm::State> state;  // by rank
  std::int64_t degraded_sends = 0;
  std::int64_t restarts = 0;
  Microseconds reroute_us = 0;
  Microseconds restart_us = 0;
};

ResilientRun run_resilient_gyre(int steps, const cluster::FaultPlan* plan,
                                const char* ckpt_name, int smp_count,
                                int procs_per_smp,
                                std::vector<cluster::Tracer>* tracers = nullptr,
                                int max_restarts = 3) {
  gcm::ModelConfig cfg = gcm::testing::small_ocean(2, 2);
  cfg.topography = gcm::ModelConfig::Topography::kBasin;

  cluster::MachineConfig mc;
  mc.smp_count = smp_count;
  mc.procs_per_smp = procs_per_smp;
  mc.interconnect = &gcm::testing::test_net();
  mc.faults = plan;
  cluster::Runtime rt(mc);

  gcm::ResilientConfig rcfg;
  rcfg.ckpt_prefix = ckpt_prefix_for(ckpt_name);
  rcfg.ckpt_every = 3;
  rcfg.max_restarts = max_restarts;
  rcfg.tracers = tracers;

  ResilientRun out;
  std::mutex mu;
  rcfg.on_complete = [&](cluster::RankContext& ctx, gcm::Model& m) {
    std::lock_guard<std::mutex> lock(mu);
    out.state.emplace(ctx.rank(), m.state());
  };
  out.stats = gcm::run_resilient(rt, cfg, steps, rcfg);
  for (const cluster::Accounting& a : rt.accounting()) {
    out.degraded_sends += a.degraded_sends;
    out.restarts += a.restarts;
    out.reroute_us += a.reroute_us;
    out.restart_us += a.restart_us;
  }
  cleanup_slots(rcfg.ckpt_prefix, mc.nranks());
  return out;
}

TEST(HardFailure, ResilientNoKillsMatchesPlainRun) {
  // With no kills scheduled the resilient driver is pure plumbing: one
  // epoch, zero restarts, and (checkpoint barriers are state-neutral)
  // final state bit-identical to a plain uninterrupted run.
  gcm::ModelConfig cfg = gcm::testing::small_ocean(2, 2);
  cfg.topography = gcm::ModelConfig::Topography::kBasin;
  std::map<int, gcm::State> plain;
  std::mutex mu;
  gcm::testing::run_ranks(4, [&](cluster::RankContext& ctx, comm::Comm& comm) {
    gcm::Model m(cfg, comm);
    m.initialize();
    m.run(10);
    std::lock_guard<std::mutex> lock(mu);
    plain.emplace(ctx.rank(), m.state());
  });

  const ResilientRun r =
      run_resilient_gyre(10, nullptr, "hyades_hf_nokill", 4, 1);
  EXPECT_TRUE(r.stats.ladder.empty());
  EXPECT_EQ(r.restarts, 0);
  EXPECT_EQ(r.restart_us, 0.0);
  ASSERT_EQ(r.state.size(), 4u);
  for (int rank = 0; rank < 4; ++rank) {
    EXPECT_EQ(r.state.at(rank).step, 10);
    expect_state_bits_equal(plain.at(rank), r.state.at(rank),
                            "resilient-vs-plain");
  }
}

TEST(HardFailure, LinkKillsRerouteWithoutChangingState) {
  // Two non-critical inter-SMP link kills from t=0: every transfer
  // between those SMP pairs rides the route-around and pays the
  // penalty (visible in degraded_sends / reroute_us), but payloads are
  // untouched, so the run completes bit-identically to the clean one.
  const cluster::FaultPlan clean;
  cluster::FaultPlan faulty;
  faulty.link_kills.push_back({0, 1, 0.0});
  faulty.link_kills.push_back({2, 3, 0.0});
  ASSERT_TRUE(faulty.enabled());
  ASSERT_FALSE(faulty.has_fates());  // kill-only: raw fast path otherwise

  const ResilientRun a =
      run_resilient_gyre(10, &clean, "hyades_hf_linkclean", 4, 1);
  const ResilientRun b =
      run_resilient_gyre(10, &faulty, "hyades_hf_linkkill", 4, 1);
  EXPECT_EQ(a.degraded_sends, 0);
  EXPECT_EQ(a.reroute_us, 0.0);
  EXPECT_GT(b.degraded_sends, 0);
  EXPECT_GT(b.reroute_us, 0.0);
  EXPECT_TRUE(b.stats.ladder.empty());  // degraded, not down
  ASSERT_EQ(b.state.size(), 4u);
  for (int rank = 0; rank < 4; ++rank) {
    expect_state_bits_equal(a.state.at(rank), b.state.at(rank),
                            "linkkill-vs-clean");
  }
}

TEST(HardFailure, NodeKillRestartsFromCheckpointBitIdentically) {
  // Rank 3's node dies early in epoch 0.  Survivors detect the silence
  // through the membership service, publish the plan-pure verdict,
  // abort the epoch, and epoch 1 restarts everyone from the durable
  // step-0 checkpoint -- finishing bit-identical to the kill-free run,
  // with the recovery visible in accounting and the trace.
  cluster::FaultPlan plan;
  plan.node_kills.push_back({/*rank=*/3, /*at_us=*/50.0, /*epoch=*/0});

  const ResilientRun a =
      run_resilient_gyre(10, nullptr, "hyades_hf_nodeclean", 4, 1);
  std::vector<cluster::Tracer> tracers(4);
  const ResilientRun b = run_resilient_gyre(10, &plan, "hyades_hf_nodekill",
                                            4, 1, &tracers);
  ASSERT_EQ(b.stats.ladder.size(), 1u);
  const cluster::NodeDownVerdict& v = b.stats.ladder[0].verdict;
  EXPECT_EQ(v.rank, 3);
  EXPECT_EQ(v.epoch, 0);
  EXPECT_DOUBLE_EQ(v.detected_us, 50.0 + plan.heartbeat_deadline_us);
  // Died before the first rotation.
  EXPECT_EQ(b.stats.ladder[0].attempts.back().step, 0);
  EXPECT_GT(b.restarts, 0);
  EXPECT_GT(b.restart_us, 0.0);
  Microseconds node_down_span = 0;
  for (const cluster::Tracer& t : tracers) {
    node_down_span += t.total_cat(cluster::SpanCat::kNodeDown);
  }
  EXPECT_GT(node_down_span, 0.0);
  ASSERT_EQ(b.state.size(), 4u);
  for (int rank = 0; rank < 4; ++rank) {
    expect_state_bits_equal(a.state.at(rank), b.state.at(rank),
                            "nodekill-vs-clean");
  }
}

TEST(HardFailure, NodeKillTakesWholeSmpWithIt) {
  // Kills are node-granular: killing rank 2 on a two-way SMP takes its
  // sibling rank 3 down too (no half-dead SMP deadlocks the shared
  // barrier).  Survivors on SMP 0 declare one of the dead ranks down
  // and the restart still converges bit-identically.
  cluster::FaultPlan plan;
  plan.node_kills.push_back({/*rank=*/2, /*at_us=*/50.0, /*epoch=*/0});

  const ResilientRun a =
      run_resilient_gyre(10, nullptr, "hyades_hf_smpclean", 2, 2);
  const ResilientRun b =
      run_resilient_gyre(10, &plan, "hyades_hf_smpkill", 2, 2);
  ASSERT_EQ(b.stats.ladder.size(), 1u);
  // The verdict names whichever dead-SMP rank a survivor talked to.
  const int vr = b.stats.ladder[0].verdict.rank;
  EXPECT_TRUE(vr == 2 || vr == 3) << "verdict rank " << vr;
  ASSERT_EQ(b.state.size(), 4u);
  for (int rank = 0; rank < 4; ++rank) {
    expect_state_bits_equal(a.state.at(rank), b.state.at(rank),
                            "smpkill-vs-clean");
  }
}

TEST(HardFailure, RestartBudgetExhaustionIsTypedNeverAHang) {
  // A node that dies in every epoch is not survivable by restarting:
  // after max_restarts aborted epochs the driver throws the typed
  // RestartExhausted (with the last verdict attached) instead of
  // looping or hanging.
  cluster::FaultPlan plan;
  for (int epoch = 0; epoch < 4; ++epoch) {
    plan.node_kills.push_back({/*rank=*/1, /*at_us=*/50.0, epoch});
  }
  try {
    (void)run_resilient_gyre(10, &plan, "hyades_hf_exhaust", 4, 1,
                             /*tracers=*/nullptr, /*max_restarts=*/2);
    FAIL() << "expected RestartExhausted";
  } catch (const gcm::RestartExhausted& e) {
    EXPECT_EQ(e.restarts, 3);  // one past the budget of 2
    EXPECT_EQ(e.last_verdict.rank, 1);
    EXPECT_EQ(e.last_verdict.epoch, 2);
  }
  cleanup_slots(ckpt_prefix_for("hyades_hf_exhaust"), 4);
}

TEST(HardFailure, StaleMailNeverReachesALaterRun) {
  // A message posted in one run but never received must be invisible to
  // a later run's receives on the same tag: each run builds its own
  // mailboxes, so pre-failure mail ages out with its run instead of
  // corrupting the restarted one.  A restart bumps the epoch between the
  // runs; every other reuse of a Runtime keeps it.
  cluster::MachineConfig mc;
  mc.smp_count = 2;
  mc.procs_per_smp = 1;
  mc.interconnect = &gcm::testing::test_net();
  cluster::Runtime rt(mc);

  for (const int later_epoch : {1, 0}) {
    rt.set_epoch(0);
    rt.run([&](cluster::RankContext& ctx) {
      if (ctx.rank() == 0) ctx.send_raw(1, 7, {1.0}, 10.0);
    });

    rt.set_epoch(later_epoch);
    rt.run([&](cluster::RankContext& ctx) {
      if (ctx.rank() == 1) {
        ctx.send_raw(0, 8, {0.0}, 5.0);  // release rank 0's send
        const cluster::Message m = ctx.recv_raw(0, 7);
        ASSERT_EQ(m.data.size(), 1u);
        // The later run's payload, not the stale 1.0.
        EXPECT_EQ(m.data[0], 2.0) << "later run at epoch " << later_epoch;
      } else {
        (void)ctx.recv_raw(1, 8);
        ctx.send_raw(1, 7, {2.0}, 20.0);
      }
    });
  }
}

TEST(HardFailure, FailStoppedPeerExitEscalatesCoalescedVerdict) {
  // Ranks 1 and 2 sit on boards that die inside one heartbeat window.
  // Each goes silent at its first communication point past its kill
  // time; the survivors blocked on them wake on the exit event (no
  // real-time grace), and whichever escalates first publishes the
  // plan-pure verdict coalesce_expired_kills predicts.
  cluster::FaultPlan plan;
  plan.node_kills.push_back({/*rank=*/1, /*at_us=*/50.0, /*epoch=*/0});
  plan.node_kills.push_back({/*rank=*/2, /*at_us=*/60.0, /*epoch=*/0});
  const cluster::NodeDownVerdict expected =
      cluster::coalesce_expired_kills(plan, 0);
  ASSERT_EQ(expected.ranks, (std::vector<int>{1, 2}));

  cluster::MachineConfig mc;
  mc.smp_count = 4;
  mc.procs_per_smp = 1;
  mc.interconnect = &gcm::testing::test_net();
  mc.faults = &plan;
  cluster::Runtime rt(mc);
  constexpr int kTag = 21;
  try {
    rt.run([&](cluster::RankContext& ctx) {
      comm::Reliable rel(ctx);
      if (ctx.rank() == 1 || ctx.rank() == 2) {
        ctx.clock().advance_to(100.0);
        try {
          rel.send(ctx.rank() - 1, kTag, {1.0}, ctx.clock().now());
          ADD_FAILURE() << "rank " << ctx.rank() << " outlived its kill";
        } catch (const cluster::RankFailStop&) {
          return;  // fail-stop: go silent
        }
      }
      (void)rel.recv(ctx.rank() == 0 ? 1 : 2, kTag);
      ADD_FAILURE() << "rank " << ctx.rank() << " heard from a dead peer";
    });
    FAIL() << "expected NodeDownError";
  } catch (const cluster::NodeDownError& e) {
    EXPECT_EQ(e.verdict.ranks, expected.ranks);
    EXPECT_EQ(e.verdict.rank, expected.rank);
    EXPECT_EQ(e.verdict.epoch, expected.epoch);
    EXPECT_DOUBLE_EQ(e.verdict.detected_us, expected.detected_us);
  }
  // The escalating survivor advanced to the detection time; nobody
  // else got further.
  EXPECT_DOUBLE_EQ(rt.max_clock(), expected.detected_us);
}

TEST(HardFailure, QueuedMailReachesItsReceiverAfterAVerdict) {
  // A verdict is no bus-wide abort: mail queued before it still reaches
  // its receiver.  Rank 0 sends rank 1 a message, then fail-stops; rank 2
  // escalates the exit to the verdict, and only then does rank 1 receive.
  // How far a rank gets before an epoch aborts then depends on what its
  // peers sent, never on whether it ran before or after the escalation.
  // The runtime stages the order: rank 1 first waits on rank 2 on a tag
  // rank 2 never sends, a wait only rank 2's exit after its escalation
  // ends, so the test runs on rank threads and on one CPU's fibers alike.
  cluster::FaultPlan plan;
  plan.node_kills.push_back({/*rank=*/0, /*at_us=*/100.0, /*epoch=*/0});
  cluster::MachineConfig mc;
  mc.smp_count = 3;
  mc.procs_per_smp = 1;
  mc.interconnect = &gcm::testing::test_net();
  mc.faults = &plan;
  cluster::Runtime rt(mc);
  bool escalated = false;  // read by rank 1 after rank 2's exit
  std::vector<double> got;
  try {
    rt.run([&](cluster::RankContext& ctx) {
      comm::Reliable rel(ctx);
      switch (ctx.rank()) {
        case 0:
          rel.send(1, 7, {42.0}, ctx.clock().now());
          ctx.clock().advance_to(200.0);
          try {
            (void)rel.recv(1, 8);
            ADD_FAILURE() << "rank 0 outlived its kill";
          } catch (const cluster::RankFailStop&) {
            // fail-stop: go silent
          }
          return;
        case 1:
          try {
            (void)ctx.recv_raw(2, 9);
            ADD_FAILURE() << "rank 2 sent on a tag it never uses";
          } catch (const cluster::PeerExited&) {
            // rank 2 exited
          }
          ASSERT_TRUE(escalated) << "rank 2 never escalated";
          got = rel.recv(0, 7).data;
          return;
        default:
          try {
            (void)rel.recv(0, 8);
          } catch (const cluster::NodeDownError&) {
            escalated = true;
            throw;
          }
          ADD_FAILURE() << "rank 2 heard from a dead peer";
      }
    });
    FAIL() << "expected NodeDownError";
  } catch (const cluster::NodeDownError& e) {
    EXPECT_EQ(e.verdict.ranks, (std::vector<int>{0}));
  }
  EXPECT_EQ(got, (std::vector<double>{42.0}));
}

}  // namespace
}  // namespace hyades
