// Tier-2 robustness suite: the end-to-end reliability protocol, the
// regression-locked fault-tolerance invariant (recoverable faults change
// only virtual timing, never the model state), the solver's NaN guard,
// and faults and recoveries leaving stderr silent.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cmath>
#include <cstring>
#include <filesystem>
#include <limits>
#include <map>
#include <mutex>
#include <vector>

#include "cluster/fault.hpp"
#include "cluster/runtime.hpp"
#include "comm/comm.hpp"
#include "comm/reliable.hpp"
#include "gcm/cg.hpp"
#include "gcm/model.hpp"
#include "gcm/resilient.hpp"
#include "gcm/tile_ckpt.hpp"
#include "net/arctic_model.hpp"
#include "support/logging.hpp"
#include "tests/gcm/gcm_test_util.hpp"

namespace hyades {
namespace {

// gcm::testing::run_ranks with a FaultPlan attached to the machine.
template <typename Fn>
void run_faulty(int nranks, const cluster::FaultPlan& plan, Fn&& body) {
  cluster::MachineConfig mc;
  mc.smp_count = nranks;
  mc.procs_per_smp = 1;
  mc.interconnect = &gcm::testing::test_net();
  mc.faults = &plan;
  cluster::Runtime rt(mc);
  rt.run([&](cluster::RankContext& ctx) {
    comm::Comm comm(ctx);
    body(ctx, comm);
  });
}

bool bits_equal(const double* a, const double* b, std::size_t n) {
  return std::memcmp(a, b, n * sizeof(double)) == 0;
}

// Bitwise comparison of the prognostic state (the fields a checkpoint
// carries and the invariant protects).
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
  EXPECT_TRUE(
      bits_equal(a.gu_nm1.data(), b.gu_nm1.data(), a.gu_nm1.size()))
      << what << " gu_nm1";
  EXPECT_EQ(a.step, b.step) << what;
}

// Run `steps` of a small closed-basin (gyre) ocean under `plan`,
// collecting every rank's final state and summed fault accounting.
struct GyreRun {
  std::map<int, gcm::State> state;  // by rank
  std::int64_t retransmits = 0;     // summed over ranks (sender side)
  std::int64_t crc_rejects = 0;     // summed (receiver side)
  std::int64_t drops_detected = 0;
  Microseconds retrans_us = 0;
};

GyreRun run_gyre(int steps, const cluster::FaultPlan& plan) {
  gcm::ModelConfig cfg = gcm::testing::small_ocean(2, 2);
  cfg.topography = gcm::ModelConfig::Topography::kBasin;
  GyreRun out;
  std::mutex mu;
  run_faulty(4, plan, [&](cluster::RankContext& ctx, comm::Comm& comm) {
    gcm::Model m(cfg, comm);
    m.initialize();
    m.run(steps);
    const cluster::Accounting& a = ctx.accounting();
    std::lock_guard<std::mutex> lock(mu);
    out.state.emplace(ctx.rank(), m.state());
    out.retransmits += a.retransmits;
    out.crc_rejects += a.crc_rejects;
    out.drops_detected += a.drops_detected;
    out.retrans_us += a.retrans_us;
  });
  return out;
}

TEST(FaultPlan, FateIsAPureFunction) {
  cluster::FaultPlan plan;
  plan.seed = 42;
  plan.corrupt_prob = 0.2;
  plan.drop_prob = 0.1;
  int corrupt = 0, drop = 0;
  for (std::uint64_t serial = 0; serial < 2000; ++serial) {
    const auto f = plan.fate(0, 1, serial, 0);
    EXPECT_EQ(f, plan.fate(0, 1, serial, 0));  // repeatable
    if (f == cluster::FaultPlan::Fate::kCorrupt) ++corrupt;
    if (f == cluster::FaultPlan::Fate::kDrop) ++drop;
  }
  // Rates in the right ballpark (loose 3-sigma-ish bounds).
  EXPECT_GT(corrupt, 300);
  EXPECT_LT(corrupt, 520);
  EXPECT_GT(drop, 120);
  EXPECT_LT(drop, 290);
  // Different keys give a different stream.
  int agree = 0;
  for (std::uint64_t serial = 0; serial < 2000; ++serial) {
    if (plan.fate(0, 1, serial, 0) == plan.fate(1, 0, serial, 0)) ++agree;
  }
  EXPECT_LT(agree, 2000);
}

TEST(FaultPlan, BackoffIsCappedExponential) {
  cluster::FaultPlan plan;
  plan.backoff_us = 25.0;
  plan.backoff_max_us = 800.0;
  EXPECT_DOUBLE_EQ(plan.backoff(0), 0.0);
  EXPECT_DOUBLE_EQ(plan.backoff(1), 25.0);
  EXPECT_DOUBLE_EQ(plan.backoff(2), 50.0);
  EXPECT_DOUBLE_EQ(plan.backoff(3), 100.0);
  EXPECT_DOUBLE_EQ(plan.backoff(6), 800.0);   // 25 * 2^5 = 800: at cap
  EXPECT_DOUBLE_EQ(plan.backoff(7), 800.0);   // capped
  EXPECT_DOUBLE_EQ(plan.backoff(60), 800.0);  // no overflow at the cap
}

TEST(Reliable, TimeoutAndBackoffScheduling) {
  // The receiver's arrival stamp must equal the fault-free stamp plus
  // the per-attempt NAK / timeout / backoff / retransfer costs -- walked
  // here independently from the same pure fate function.
  cluster::FaultPlan plan;
  plan.seed = 7;
  plan.corrupt_prob = 0.25;
  plan.drop_prob = 0.25;
  constexpr int kMessages = 40;
  constexpr int kWords = 64;
  constexpr Microseconds kStamp = 1000.0;

  const net::Interconnect& net = gcm::testing::test_net();
  const Microseconds nak_us = net.small_message(8).half_rtt();
  const Microseconds resend_us =
      net.transfer_time(kWords * static_cast<std::int64_t>(sizeof(double)));

  run_faulty(2, plan, [&](cluster::RankContext& ctx, comm::Comm&) {
    comm::Reliable rel(ctx);
    if (ctx.rank() == 0) {
      for (int i = 0; i < kMessages; ++i) {
        rel.send(1, /*tag=*/5, std::vector<double>(kWords, i), kStamp);
      }
      return;
    }
    std::uint64_t ghosts_seen = 0, drops_seen = 0;
    for (int i = 0; i < kMessages; ++i) {
      const cluster::Message m = rel.recv(0, /*tag=*/5);
      // Payload intact despite the recovery episode.
      ASSERT_EQ(m.data.size(), static_cast<std::size_t>(kWords));
      EXPECT_EQ(m.data[0], static_cast<double>(i));
      EXPECT_FALSE(m.crc_error);
      // Walk the expected schedule from the same pure fates.
      Microseconds expect = kStamp;
      int attempt = 0;
      for (;; ++attempt) {
        const auto f = plan.fate(0, 1, static_cast<std::uint64_t>(i), attempt);
        if (f == cluster::FaultPlan::Fate::kOk) break;
        if (f == cluster::FaultPlan::Fate::kCorrupt) {
          ++ghosts_seen;
          expect += nak_us + plan.backoff(attempt + 1) + resend_us;
        } else {
          ++drops_seen;
          expect += plan.timeout_us + nak_us + plan.backoff(attempt + 1) +
                    resend_us;
        }
      }
      EXPECT_EQ(m.attempt, attempt);
      EXPECT_NEAR(m.stamp_us, expect, 1e-9) << "message " << i;
      EXPECT_NEAR(m.recovery_us, expect - kStamp, 1e-9);
      EXPECT_NEAR(m.clean_stamp(), kStamp, 1e-9);
    }
    EXPECT_GT(ghosts_seen + drops_seen, 10u);  // the storm actually stormed
    EXPECT_EQ(ctx.accounting().crc_rejects,
              static_cast<std::int64_t>(ghosts_seen));
    EXPECT_EQ(ctx.accounting().drops_detected,
              static_cast<std::int64_t>(drops_seen));
    EXPECT_GT(ctx.accounting().retrans_us, 0.0);
  });
}

TEST(Reliable, DeliveryFailureCarriesItsFields) {
  // The diagnostic fields must round-trip through construction exactly
  // (regression for the ctor parameter/member disambiguation).
  const comm::DeliveryFailure e(3, 7, 42u, 64);
  EXPECT_EQ(e.rank, 3);
  EXPECT_EQ(e.peer, 7);
  EXPECT_EQ(e.serial, 42u);
  EXPECT_EQ(e.attempts, 64);
  const std::string what = e.what();
  EXPECT_NE(what.find("rank 3"), std::string::npos);
  EXPECT_NE(what.find("serial 42"), std::string::npos);
}

TEST(Solver, SolverDivergenceCarriesItsFields) {
  const gcm::SolverDivergence e("cg2d", 17, 1.5);
  EXPECT_EQ(e.iteration, 17);
  EXPECT_DOUBLE_EQ(e.residual_sq, 1.5);
  EXPECT_NE(std::string(e.what()).find("iteration 17"), std::string::npos);
}

TEST(Reliable, DeadLinkExhaustsAttemptsAndThrows) {
  cluster::FaultPlan plan;
  plan.corrupt_prob = 1.0;  // every attempt faulted: the link is dead
  plan.max_attempts = 8;
  EXPECT_THROW(
      run_faulty(2, plan,
                 [&](cluster::RankContext& ctx, comm::Comm&) {
                   if (ctx.rank() != 0) return;
                   comm::Reliable rel(ctx);
                   rel.send(1, 5, std::vector<double>(8, 1.0), 100.0);
                 }),
      comm::DeliveryFailure);
}

TEST(Robustness, FaultSweepDeterminism) {
  cluster::FaultPlan plan;
  plan.seed = 11;
  plan.corrupt_prob = 2e-3;
  plan.drop_prob = 5e-4;
  const GyreRun a = run_gyre(20, plan);
  const GyreRun b = run_gyre(20, plan);
  EXPECT_GT(a.retransmits, 0);
  // Same seed -> same retransmit count, same recovery cost, same state.
  EXPECT_EQ(a.retransmits, b.retransmits);
  EXPECT_EQ(a.crc_rejects, b.crc_rejects);
  EXPECT_EQ(a.drops_detected, b.drops_detected);
  EXPECT_DOUBLE_EQ(a.retrans_us, b.retrans_us);
  for (int r = 0; r < 4; ++r) {
    expect_state_bits_equal(a.state.at(r), b.state.at(r), "rerun");
  }
}

TEST(Robustness, BitIdenticalStateUnderRecoverableFaults) {
  // The governing invariant: a 200-step gyre run at 1e-3 corruption per
  // packet (plus drops) ends in a final prognostic state bit-identical
  // to the fault-free run -- recoverable faults cost only virtual time,
  // and every injected fault shows up in the accounting.
  const cluster::FaultPlan clean;  // disabled
  cluster::FaultPlan faulty;
  faulty.seed = 1234;
  faulty.corrupt_prob = 1e-3;
  faulty.drop_prob = 2e-4;
  const GyreRun a = run_gyre(200, clean);
  const GyreRun b = run_gyre(200, faulty);
  EXPECT_EQ(a.retransmits, 0);
  EXPECT_EQ(a.retrans_us, 0.0);
  EXPECT_GT(b.retransmits, 0);
  EXPECT_GT(b.retrans_us, 0.0);
  // Every injected fault is accounted: retransmits = rejects + drops.
  EXPECT_EQ(b.retransmits, b.crc_rejects + b.drops_detected);
  for (int r = 0; r < 4; ++r) {
    expect_state_bits_equal(a.state.at(r), b.state.at(r), "faulty-vs-clean");
  }
}

TEST(Robustness, HardFailureKnobsDisabledAreBitIdentical) {
  // The hard-failure machinery (membership heartbeats, reroute
  // penalties, restart costing) must be pure plumbing while no kill is
  // scheduled: a plan that cranks every hard-failure knob but schedules
  // no kills runs the 200-step gyre bit-identically to the fully
  // disabled plan -- same state, zero retransmits, zero degraded sends.
  const cluster::FaultPlan clean;  // all disabled
  cluster::FaultPlan knobs;
  knobs.seed = 99;
  knobs.heartbeat_deadline_us = 50.0;
  knobs.dead_peer_probes = 9;
  knobs.restart_cost_us = 123456.0;
  knobs.reroute_penalty_us = 42.0;
  ASSERT_FALSE(knobs.enabled());  // no fates, no kills scheduled
  const GyreRun a = run_gyre(200, clean);
  const GyreRun b = run_gyre(200, knobs);
  EXPECT_EQ(b.retransmits, 0);
  EXPECT_EQ(b.retrans_us, 0.0);
  for (int r = 0; r < 4; ++r) {
    expect_state_bits_equal(a.state.at(r), b.state.at(r), "knobs-vs-clean");
  }
}

TEST(Robustness, SolverGuardAbortsOnNaN) {
  // A NaN escaping into the prognostic state must abort the CG solve
  // with a diagnostic, not silently iterate to max_iter on garbage.
  gcm::ModelConfig cfg = gcm::testing::small_ocean(1, 1);
  gcm::testing::run_ranks(1, [&](cluster::RankContext&, comm::Comm& comm) {
    gcm::Model m(cfg, comm);
    m.initialize();
    (void)m.step();
    // Poison an interior velocity cell (halo cells would be refreshed by
    // the next exchange on a single-rank periodic tile).
    const auto h = static_cast<std::size_t>(m.decomp().halo);
    m.state().u(h + 2, h + 2, 1) = std::numeric_limits<double>::quiet_NaN();
    EXPECT_THROW((void)m.step(), gcm::SolverDivergence);
  });
}

TEST(Robustness, FaultsAndRecoveryLeaveStderrSilent) {
  // Faults and recoveries are records -- Accounting counters, trace
  // spans, the recovery ladder -- never log lines.  At the default log
  // level, a packet-fault storm and a node kill recovered both ways
  // leave stderr empty.
  ASSERT_EQ(log_level(), LogLevel::kWarn);
  cluster::FaultPlan storm;
  storm.seed = 5;
  storm.corrupt_prob = 0.02;
  storm.drop_prob = 0.005;
  cluster::FaultPlan kill;
  kill.node_kills.push_back({/*rank=*/1, /*at_us=*/50.0, /*epoch=*/0});

  gcm::ModelConfig cfg = gcm::testing::small_ocean(2, 2);
  cfg.topography = gcm::ModelConfig::Topography::kBasin;
  cluster::MachineConfig mc;
  mc.smp_count = 4;
  mc.procs_per_smp = 1;
  mc.interconnect = &gcm::testing::test_net();
  mc.faults = &kill;
  gcm::ResilientConfig rcfg;
  // The pid keeps concurrent processes of this binary apart (ctest -j).
  rcfg.ckpt_prefix = (std::filesystem::temp_directory_path() /
                      ("hyades_rb_silent." + std::to_string(getpid())))
                         .string();
  rcfg.ckpt_every = 3;

  ::testing::internal::CaptureStderr();
  const GyreRun faulty = run_gyre(6, storm);
  std::vector<gcm::ResilientStats> recovered;
  for (gcm::RecoveryMode mode :
       {gcm::RecoveryMode::kMigrate, gcm::RecoveryMode::kEpochRestart}) {
    cluster::Runtime rt(mc);
    rcfg.recovery = mode;
    recovered.push_back(gcm::run_resilient(rt, cfg, 10, rcfg));
    gcm::tile_ckpt::remove_slots(rcfg.ckpt_prefix, mc.nranks());
  }
  EXPECT_EQ(::testing::internal::GetCapturedStderr(), "");

  EXPECT_GT(faulty.crc_rejects, 0);
  ASSERT_EQ(recovered[0].ladder.size(), 1u);
  EXPECT_EQ(recovered[0].ladder[0].landed(), gcm::RecoveryRung::kMigrate);
  ASSERT_EQ(recovered[1].ladder.size(), 1u);
  EXPECT_EQ(recovered[1].ladder[0].landed(),
            gcm::RecoveryRung::kEpochRestart);
}

}  // namespace
}  // namespace hyades
