// Cascading-failure suite (tier2 + aggregate label `chaos_tests`):
// concurrent node loss coalesced into one verdict, faults injected
// *during* recovery, adversarial damage to durable checkpoints, and the
// graceful-degradation ladder that turns every formerly-fatal recovery
// precondition into one rung down instead of an abort.  The governing
// invariant is unchanged from the elastic suite: every survivable
// schedule finishes bit-identical to the failure-free run, and every
// non-survivable one ends in a typed error -- never a hang, never a
// bare throw.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "cluster/fault.hpp"
#include "cluster/membership.hpp"
#include "cluster/runtime.hpp"
#include "gcm/decomp.hpp"
#include "gcm/model.hpp"
#include "gcm/resilient.hpp"
#include "gcm/state.hpp"
#include "gcm/tile_ckpt.hpp"
#include "net/arctic_model.hpp"
#include "tests/gcm/gcm_test_util.hpp"

namespace hyades {
namespace {

namespace fs = std::filesystem;

bool bits_equal(const double* a, const double* b, std::size_t n) {
  return std::memcmp(a, b, n * sizeof(double)) == 0;
}

void expect_state_bits_equal(const gcm::State& a, const gcm::State& b,
                             const char* what) {
  EXPECT_TRUE(bits_equal(a.u.data(), b.u.data(), a.u.size())) << what << " u";
  EXPECT_TRUE(bits_equal(a.v.data(), b.v.data(), a.v.size())) << what << " v";
  EXPECT_TRUE(bits_equal(a.theta.data(), b.theta.data(), a.theta.size()))
      << what << " theta";
  EXPECT_TRUE(bits_equal(a.salt.data(), b.salt.data(), a.salt.size()))
      << what << " salt";
  EXPECT_EQ(a.step, b.step) << what;
}

// The pid keeps concurrent processes of this binary apart: ctest -j
// runs the suite aggregate beside the discovered copies of its tests.
std::string ckpt_prefix_for(const char* name) {
  return (fs::temp_directory_path() /
          (std::string(name) + "." + std::to_string(getpid())))
      .string();
}

// Flip one payload byte of a committed checkpoint file in place:
// post-commit bit rot.  The header (magic, config words, step) stays
// intact, so peek_step/scan_slot still accept the file -- only the
// deep CRC verification can tell.
void rot_payload(const std::string& path) {
  ASSERT_TRUE(fs::exists(path)) << path;
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  ASSERT_TRUE(f.good());
  f.seekg(0, std::ios::end);
  const std::streamoff size = f.tellg();
  ASSERT_GT(size, 0);
  f.seekg(size - 1);
  char byte = 0;
  f.read(&byte, 1);
  byte = static_cast<char>(byte ^ 0x5a);
  f.seekp(size - 1);
  f.write(&byte, 1);
}

// Flip bit 63 of the header's payload byte count (header word 9, after
// the magic, seven config words and the step).  No CRC covers the
// header: only a reader that checks the count against the bytes the
// file holds refuses it before allocating.
void rot_byte_count(const std::string& path) {
  ASSERT_TRUE(fs::exists(path)) << path;
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  ASSERT_TRUE(f.good());
  const std::streamoff top_byte = 9 * 8 + 7;  // little-endian word 9
  f.seekg(top_byte);
  char byte = 0;
  f.read(&byte, 1);
  byte = static_cast<char>(byte ^ 0x80);
  f.seekp(top_byte);
  f.write(&byte, 1);
}

// One resilient gyre run under a chaos configuration, collecting every
// rank's final state and the runtime's final-epoch accounting.
struct ChaosSetup {
  int steps = 12;
  int smp_count = 4;
  int procs_per_smp = 1;
  int ckpt_every = 3;
  int max_restarts = 3;
  int ring_depth = 2;
  int halo = 2;
  std::uint64_t init_seed = gcm::ResilientConfig{}.init_seed;
  double wind_tau0 = gcm::ModelConfig{}.wind_tau0;
  const net::Interconnect* net = &gcm::testing::test_net();
  const cluster::FaultPlan* plan = nullptr;
  std::function<void(int, const cluster::NodeDownVerdict&)> pre_recovery;
};

struct ChaosRun {
  gcm::ResilientStats stats;
  std::map<int, gcm::State> state;  // by rank
  std::int64_t acct_restarts = 0;
  std::int64_t acct_migrations = 0;
  std::int64_t acct_downgrades = 0;
  Microseconds busy_us = 0;
  std::vector<Microseconds> clocks;  // final virtual clock per rank
};

ChaosRun run_chaos_gyre(const ChaosSetup& setup, const char* ckpt_name,
                        gcm::RecoveryMode mode) {
  gcm::ModelConfig cfg = gcm::testing::small_ocean(2, 2, setup.halo);
  cfg.topography = gcm::ModelConfig::Topography::kBasin;
  cfg.wind_tau0 = setup.wind_tau0;

  cluster::MachineConfig mc;
  mc.smp_count = setup.smp_count;
  mc.procs_per_smp = setup.procs_per_smp;
  mc.interconnect = setup.net;
  mc.faults = setup.plan;
  cluster::Runtime rt(mc);

  gcm::ResilientConfig rcfg;
  rcfg.ckpt_prefix = ckpt_prefix_for(ckpt_name);
  rcfg.ckpt_every = setup.ckpt_every;
  rcfg.max_restarts = setup.max_restarts;
  rcfg.ring_depth = setup.ring_depth;
  rcfg.init_seed = setup.init_seed;
  rcfg.recovery = mode;
  rcfg.pre_recovery = setup.pre_recovery;

  ChaosRun out;
  std::mutex mu;
  rcfg.on_complete = [&](cluster::RankContext& ctx, gcm::Model& m) {
    std::lock_guard<std::mutex> lock(mu);
    out.state.emplace(ctx.rank(), m.state());
    out.busy_us = std::max(out.busy_us, ctx.clock().now());
  };
  try {
    out.stats = gcm::run_resilient(rt, cfg, setup.steps, rcfg);
    // lint:allow(catch-all): driver-thread slot cleanup; rethrows intact
  } catch (...) {
    gcm::tile_ckpt::remove_slots(rcfg.ckpt_prefix, mc.nranks());
    throw;
  }
  out.clocks = rt.final_clocks();
  for (const cluster::Accounting& a : rt.accounting()) {
    out.acct_restarts += a.restarts;
    out.acct_migrations += a.migrations;
    out.acct_downgrades += a.downgrades;
  }
  gcm::tile_ckpt::remove_slots(rcfg.ckpt_prefix, mc.nranks());
  return out;
}

void expect_all_ranks_bit_identical(const ChaosRun& a, const ChaosRun& b,
                                    int nranks, const char* what) {
  ASSERT_EQ(a.state.size(), static_cast<std::size_t>(nranks)) << what;
  ASSERT_EQ(b.state.size(), static_cast<std::size_t>(nranks)) << what;
  for (int r = 0; r < nranks; ++r) {
    expect_state_bits_equal(a.state.at(r), b.state.at(r), what);
  }
}

// ---------------------------------------------------------------------------
// Concurrent node loss: one coalesced verdict, one recovery.

TEST(Chaos, TwoBoardsDownInOneWindowIsOneCoalescedRecovery) {
  ChaosSetup clean_setup;
  const ChaosRun clean = run_chaos_gyre(clean_setup, "hyades_ch_two_clean",
                                        gcm::RecoveryMode::kMigrate);

  cluster::FaultPlan plan;
  plan.node_kills.push_back({/*rank=*/1, clean.busy_us * 0.6, /*epoch=*/0});
  plan.node_kills.push_back(
      {/*rank=*/3, clean.busy_us * 0.6 + 100.0, /*epoch=*/0});
  ChaosSetup setup;
  setup.plan = &plan;
  const ChaosRun b =
      run_chaos_gyre(setup, "hyades_ch_two_kill", gcm::RecoveryMode::kMigrate);

  // ONE recovery event covering the whole dead set -- not two epochs
  // discovering one casualty each.
  ASSERT_EQ(b.stats.ladder.size(), 1u);
  EXPECT_EQ(b.stats.ladder[0].verdict.ranks, (std::vector<int>{1, 3}));
  EXPECT_EQ(b.stats.ladder[0].landed(), gcm::RecoveryRung::kMigrate);
  EXPECT_EQ(b.stats.ladder[0].downgrades(), 0);
  EXPECT_EQ(b.stats.migrations, 2);  // both dead tiles adopted in one plan
  EXPECT_EQ(b.acct_downgrades, 0);
  expect_all_ranks_bit_identical(clean, b, 4, "two-boards-coalesced");
}

TEST(Chaos, TwoBoardKillRecoversFromOneCutWhateverTheHostTiming) {
  // The `kill-two-boards` member of perfbench's campaign at seed 561
  // (its basin, machine and seed): rank 3's board dies, then rank 2's
  // 100 us later, inside one heartbeat window.  Which cut each rank
  // commits before the epoch aborts must depend only on what its peers
  // sent: a rank that lags in host time still finishes the step-4 cut
  // whose messages already sit in its mailbox.  So every repeat
  // migrates from that cut with the same clocks.
  const net::ArcticModel arctic(4);
  ChaosSetup clean_setup;
  clean_setup.steps = 8;
  clean_setup.ckpt_every = 2;
  clean_setup.halo = gcm::ModelConfig{}.halo;
  clean_setup.init_seed = 524903;
  clean_setup.wind_tau0 = 0.15;
  clean_setup.net = &arctic;
  const ChaosRun clean = run_chaos_gyre(clean_setup, "hyades_ch_561_clean",
                                        gcm::RecoveryMode::kMigrate);
  cluster::FaultPlan plan;
  plan.node_kills.push_back({/*rank=*/3, 0x1.2046eb6fe2558p+14, /*epoch=*/0});
  plan.node_kills.push_back({/*rank=*/2, 0x1.21d6eb6fe2558p+14, /*epoch=*/0});
  ChaosSetup setup = clean_setup;
  setup.plan = &plan;

  std::vector<Microseconds> first_clocks;
  for (int run = 0; run < 20; ++run) {
    const ChaosRun b = run_chaos_gyre(setup, "hyades_ch_561_kill",
                                      gcm::RecoveryMode::kMigrate);
    ASSERT_EQ(b.stats.ladder.size(), 1u) << "run " << run;
    const std::vector<gcm::RungAttempt>& tried = b.stats.ladder[0].attempts;
    ASSERT_EQ(tried.size(), 1u) << "run " << run;
    EXPECT_EQ(tried[0].rung, gcm::RecoveryRung::kMigrate) << "run " << run;
    EXPECT_EQ(tried[0].step, 4) << "run " << run;
    EXPECT_EQ(b.stats.migrations, 2) << "run " << run;
    if (run == 0) first_clocks = b.clocks;
    EXPECT_EQ(b.clocks, first_clocks) << "run " << run;
    expect_all_ranks_bit_identical(clean, b, 4, "seed-561 two-board kill");
  }
}

TEST(Chaos, KillDuringRecoveryIsASecondLadderEvent) {
  // Epoch 0 loses rank 3; while the recovered epoch is replaying, rank
  // 1's board dies too (an epoch-1 kill fires during recovery).  Two
  // verdicts, two ladder events, still bit-identical.
  ChaosSetup clean_setup;
  const ChaosRun clean = run_chaos_gyre(clean_setup, "hyades_ch_dur_clean",
                                        gcm::RecoveryMode::kMigrate);
  cluster::FaultPlan plan;
  plan.node_kills.push_back({/*rank=*/3, clean.busy_us * 0.5, /*epoch=*/0});
  plan.node_kills.push_back({/*rank=*/1, clean.busy_us * 0.7, /*epoch=*/1});
  ChaosSetup setup;
  setup.plan = &plan;
  const ChaosRun b =
      run_chaos_gyre(setup, "hyades_ch_dur_kill", gcm::RecoveryMode::kMigrate);

  ASSERT_EQ(b.stats.ladder.size(), 2u);
  EXPECT_EQ(b.stats.ladder[0].verdict.ranks, (std::vector<int>{3}));
  EXPECT_EQ(b.stats.ladder[1].verdict.ranks, (std::vector<int>{1}));
  EXPECT_EQ(b.stats.ladder[0].landed(), gcm::RecoveryRung::kMigrate);
  EXPECT_EQ(b.stats.ladder[1].landed(), gcm::RecoveryRung::kMigrate);
  // The second kill fires after every rank stepped again, so the first
  // recovery took exactly as long as it does with no second kill.
  cluster::FaultPlan first_only;
  first_only.node_kills.push_back(plan.node_kills.front());
  ChaosSetup first_setup;
  first_setup.plan = &first_only;
  const ChaosRun a = run_chaos_gyre(first_setup, "hyades_ch_dur_first",
                                    gcm::RecoveryMode::kMigrate);
  ASSERT_EQ(a.stats.ladder.size(), 1u);
  EXPECT_EQ(b.stats.ladder[0].recovery_us, a.stats.ladder[0].recovery_us);
  expect_all_ranks_bit_identical(clean, b, 4, "kill-during-recovery");
}

TEST(Chaos, KillInTheFirstRecoveredStepEndsThatRecoveryAtItsVerdict) {
  // Rank 1's board dies just after the migrated epoch resumes, before
  // it finishes a step.  The first recovery never completed: it ends at
  // the second verdict's plan-pure instant, whatever the other ranks'
  // first steps reached.
  ChaosSetup clean_setup;
  const ChaosRun clean = run_chaos_gyre(clean_setup, "hyades_ch_early_clean",
                                        gcm::RecoveryMode::kMigrate);
  cluster::FaultPlan first_only;
  first_only.node_kills.push_back(
      {/*rank=*/3, clean.busy_us * 0.5, /*epoch=*/0});
  ChaosSetup first_setup;
  first_setup.plan = &first_only;
  const ChaosRun a = run_chaos_gyre(first_setup, "hyades_ch_early_first",
                                    gcm::RecoveryMode::kMigrate);
  ASSERT_EQ(a.stats.ladder.size(), 1u);
  const Microseconds d1 = a.stats.ladder[0].verdict.detected_us;

  cluster::FaultPlan plan = first_only;
  plan.node_kills.push_back({/*rank=*/1, d1 + 1.0, /*epoch=*/1});
  ChaosSetup setup;
  setup.plan = &plan;
  const ChaosRun b = run_chaos_gyre(setup, "hyades_ch_early_kill",
                                    gcm::RecoveryMode::kMigrate);
  ASSERT_EQ(b.stats.ladder.size(), 2u);
  EXPECT_EQ(b.stats.ladder[0].verdict.detected_us, d1);
  const Microseconds d2 = b.stats.ladder[1].verdict.detected_us;
  EXPECT_GT(d2, d1);
  EXPECT_EQ(b.stats.ladder[0].recovery_us, d2 - d1);
  expect_all_ranks_bit_identical(clean, b, 4, "kill-in-first-recovered-step");
}

// ---------------------------------------------------------------------------
// The degradation ladder.

TEST(Chaos, CorruptAdoptedTileFallsOneRungToTheOlderCut) {
  // Post-commit bit rot on the dead rank's newest durable tile: rung 1
  // fails deep verification, rung 2 recovers from one cut further back.
  // The ladder history says exactly that, and the run still finishes
  // bit-identical.
  ChaosSetup clean_setup;
  const ChaosRun clean = run_chaos_gyre(clean_setup, "hyades_ch_rot_clean",
                                        gcm::RecoveryMode::kMigrate);
  cluster::FaultPlan plan;
  plan.node_kills.push_back({/*rank=*/1, clean.busy_us * 0.75, /*epoch=*/0});
  ChaosSetup setup;
  setup.plan = &plan;
  const std::string prefix = ckpt_prefix_for("hyades_ch_rot_kill");
  setup.pre_recovery = [&](int epoch, const cluster::NodeDownVerdict& v) {
    if (epoch != 0) return;
    ASSERT_EQ(v.ranks, (std::vector<int>{1}));
    const gcm::tile_ckpt::TileHit newest =
        gcm::tile_ckpt::newest_rank_ckpt(prefix, 1, 1000000);
    ASSERT_GE(newest.step, 0);
    rot_payload(newest.path);
  };
  const ChaosRun b =
      run_chaos_gyre(setup, "hyades_ch_rot_kill", gcm::RecoveryMode::kMigrate);

  ASSERT_EQ(b.stats.ladder.size(), 1u);
  const gcm::RecoveryEvent& ev = b.stats.ladder[0];
  ASSERT_EQ(ev.attempts.size(), 2u);
  EXPECT_EQ(ev.attempts[0].rung, gcm::RecoveryRung::kMigrate);
  EXPECT_FALSE(ev.attempts[0].ok);
  EXPECT_NE(ev.attempts[0].reason.find("deep verification"),
            std::string::npos)
      << ev.attempts[0].reason;
  EXPECT_EQ(ev.attempts[1].rung, gcm::RecoveryRung::kMigrateOlderCut);
  EXPECT_TRUE(ev.attempts[1].ok);
  EXPECT_EQ(ev.landed(), gcm::RecoveryRung::kMigrateOlderCut);
  EXPECT_EQ(ev.downgrades(), 1);
  // The older cut is strictly older than what rung 1 aimed at.
  EXPECT_LT(ev.attempts[1].step, ev.attempts[0].step);
  // The downgrade is ledgered in the per-rank accounting.
  EXPECT_GT(b.acct_downgrades, 0);
  expect_all_ranks_bit_identical(clean, b, 4, "corrupt-newest-older-cut");
}

TEST(Chaos, CorruptByteCountOfAdoptedTileFallsOneRungToTheOlderCut) {
  // The same schedule as above, with the damage in the header instead of
  // the payload: the dead rank's newest durable tile claims 2^63 more
  // payload bytes than it holds.  Rung 1 must fail its deep
  // verification, not escape as std::length_error, and rung 2 recovers
  // from one cut further back, bit-identically.
  ChaosSetup clean_setup;
  const ChaosRun clean = run_chaos_gyre(clean_setup, "hyades_ch_cnt_clean",
                                        gcm::RecoveryMode::kMigrate);
  cluster::FaultPlan plan;
  plan.node_kills.push_back({/*rank=*/1, clean.busy_us * 0.75, /*epoch=*/0});
  ChaosSetup setup;
  setup.plan = &plan;
  const std::string prefix = ckpt_prefix_for("hyades_ch_cnt_kill");
  setup.pre_recovery = [&](int epoch, const cluster::NodeDownVerdict& v) {
    if (epoch != 0) return;
    ASSERT_EQ(v.ranks, (std::vector<int>{1}));
    const gcm::tile_ckpt::TileHit newest =
        gcm::tile_ckpt::newest_rank_ckpt(prefix, 1, 1000000);
    ASSERT_GE(newest.step, 0);
    rot_byte_count(newest.path);
  };
  const ChaosRun b =
      run_chaos_gyre(setup, "hyades_ch_cnt_kill", gcm::RecoveryMode::kMigrate);

  ASSERT_EQ(b.stats.ladder.size(), 1u);
  const gcm::RecoveryEvent& ev = b.stats.ladder[0];
  ASSERT_EQ(ev.attempts.size(), 2u);
  EXPECT_FALSE(ev.attempts[0].ok);
  EXPECT_NE(ev.attempts[0].reason.find("failed deep verification (corrupt)"),
            std::string::npos)
      << ev.attempts[0].reason;
  EXPECT_TRUE(ev.attempts[1].ok);
  EXPECT_EQ(ev.landed(), gcm::RecoveryRung::kMigrateOlderCut);
  EXPECT_LT(ev.attempts[1].step, ev.attempts[0].step);
  expect_all_ranks_bit_identical(clean, b, 4, "corrupt-byte-count-older-cut");
}

TEST(Chaos, EveryBoardDownDegradesToEpochRestart) {
  // Both boards of a 2x2 machine host a kill-named rank inside one
  // heartbeat window: the whole machine fail-stops, no survivor can
  // escalate, migration is unplannable.  The driver synthesizes the
  // coalesced verdict, rungs 1-2 fail ("every board down"), and rung 3
  // restarts the epoch from the newest verified slot -- bit-identical,
  // with the full ladder history on record.
  ChaosSetup clean_setup;
  clean_setup.smp_count = 2;
  clean_setup.procs_per_smp = 2;
  const ChaosRun clean = run_chaos_gyre(clean_setup, "hyades_ch_all_clean",
                                        gcm::RecoveryMode::kMigrate);
  cluster::FaultPlan plan;
  plan.node_kills.push_back({/*rank=*/0, clean.busy_us * 0.6, /*epoch=*/0});
  plan.node_kills.push_back(
      {/*rank=*/2, clean.busy_us * 0.6 + 50.0, /*epoch=*/0});
  ChaosSetup setup;
  setup.smp_count = 2;
  setup.procs_per_smp = 2;
  setup.plan = &plan;
  const ChaosRun b =
      run_chaos_gyre(setup, "hyades_ch_all_kill", gcm::RecoveryMode::kMigrate);

  ASSERT_EQ(b.stats.ladder.size(), 1u);
  const gcm::RecoveryEvent& ev = b.stats.ladder[0];
  ASSERT_GE(ev.attempts.size(), 3u);
  EXPECT_FALSE(ev.attempts[0].ok);
  EXPECT_NE(ev.attempts[0].reason.find("every board"), std::string::npos)
      << ev.attempts[0].reason;
  EXPECT_EQ(ev.landed(), gcm::RecoveryRung::kEpochRestart);
  EXPECT_EQ(ev.downgrades(), static_cast<int>(ev.attempts.size()) - 1);
  EXPECT_GT(b.acct_restarts, 0);   // restart-the-world was charged
  EXPECT_GT(b.acct_downgrades, 0);
  EXPECT_GT(ev.attempts.back().step, 0);  // restarted from a durable cut
  expect_all_ranks_bit_identical(clean, b, 4, "all-boards-epoch-restart");
}

TEST(Chaos, BothSlotsCorruptIsTypedRecoveryExhausted) {
  // Rot the dead rank's durable tile in BOTH slots: rung 1 fails
  // (corrupt at the newest cut), rung 2 fails (corrupt at the older
  // cut), rung 3 fails (no slot passes deep verification).  The run
  // must end in a typed RecoveryExhausted carrying the whole ladder
  // history -- never a hang, never a bare runtime_error.
  ChaosSetup probe_setup;
  const ChaosRun probe = run_chaos_gyre(probe_setup, "hyades_ch_exh_probe",
                                        gcm::RecoveryMode::kMigrate);
  cluster::FaultPlan plan;
  plan.node_kills.push_back({/*rank=*/1, probe.busy_us * 0.75, /*epoch=*/0});
  ChaosSetup setup;
  setup.plan = &plan;
  const std::string prefix = ckpt_prefix_for("hyades_ch_exh_kill");
  setup.pre_recovery = [&](int epoch, const cluster::NodeDownVerdict&) {
    if (epoch != 0) return;
    for (int slot = 0; slot < 2; ++slot) {
      const std::string path = gcm::tile_ckpt::rank_path(
          gcm::tile_ckpt::slot_prefix(prefix, slot), 1);
      if (fs::exists(path)) rot_payload(path);
    }
  };
  try {
    run_chaos_gyre(setup, "hyades_ch_exh_kill", gcm::RecoveryMode::kMigrate);
    FAIL() << "expected RecoveryExhausted";
  } catch (const gcm::RecoveryExhausted& e) {
    EXPECT_EQ(e.verdict.ranks, (std::vector<int>{1}));
    // Full ladder walked: migrate, older-cut, and at least one
    // epoch-restart attempt, all failed.
    ASSERT_GE(e.history.size(), 3u);
    for (const gcm::RungAttempt& a : e.history) {
      EXPECT_FALSE(a.ok) << gcm::to_string(a.rung) << ": " << a.reason;
      EXPECT_FALSE(a.reason.empty());
    }
    EXPECT_EQ(e.history.back().rung, gcm::RecoveryRung::kEpochRestart);
    EXPECT_EQ(e.rank, 1);
    // The base-class message is self-contained for farm triage.
    EXPECT_NE(std::string(e.what()).find("recovery exhausted"),
              std::string::npos);
  }
}

TEST(Chaos, RestartModeCorruptNewestSlotDegradesToOlder) {
  // The ladder exists under kEpochRestart too: when the newest
  // consistent slot fails deep verification, recovery degrades to the
  // older slot (one downgrade) instead of loading rotten bits.
  ChaosSetup clean_setup;
  const ChaosRun clean = run_chaos_gyre(clean_setup, "hyades_ch_rsl_clean",
                                        gcm::RecoveryMode::kEpochRestart);
  cluster::FaultPlan plan;
  plan.node_kills.push_back({/*rank=*/2, clean.busy_us * 0.75, /*epoch=*/0});
  ChaosSetup setup;
  setup.plan = &plan;
  const std::string prefix = ckpt_prefix_for("hyades_ch_rsl_kill");
  setup.pre_recovery = [&](int epoch, const cluster::NodeDownVerdict&) {
    if (epoch != 0) return;
    // Rot one rank file of the newest consistent slot.
    const gcm::tile_ckpt::SlotScan s0 =
        gcm::tile_ckpt::scan_slot(prefix, 0, 4);
    const gcm::tile_ckpt::SlotScan s1 =
        gcm::tile_ckpt::scan_slot(prefix, 1, 4);
    const int newest = (s0.consistent && (!s1.consistent || s0.step >= s1.step))
                           ? 0
                           : 1;
    rot_payload(gcm::tile_ckpt::rank_path(
        gcm::tile_ckpt::slot_prefix(prefix, newest), 3));
  };
  const ChaosRun b = run_chaos_gyre(setup, "hyades_ch_rsl_kill",
                                    gcm::RecoveryMode::kEpochRestart);
  ASSERT_EQ(b.stats.ladder.size(), 1u);
  const gcm::RecoveryEvent& ev = b.stats.ladder[0];
  ASSERT_EQ(ev.attempts.size(), 2u);
  EXPECT_FALSE(ev.attempts[0].ok);
  EXPECT_TRUE(ev.attempts[1].ok);
  EXPECT_EQ(ev.landed(), gcm::RecoveryRung::kEpochRestart);
  EXPECT_EQ(ev.downgrades(), 1);
  EXPECT_LT(ev.attempts[1].step, ev.attempts[0].step);
  expect_all_ranks_bit_identical(clean, b, 4, "restart-mode-older-slot");
}

// ---------------------------------------------------------------------------
// The in-memory ring: depth is a knob, bits are not.

TEST(Chaos, RingDepthThreeIsBitIdenticalToDepthTwo) {
  ChaosSetup clean_setup;
  const ChaosRun clean = run_chaos_gyre(clean_setup, "hyades_ch_rd_clean",
                                        gcm::RecoveryMode::kMigrate);
  cluster::FaultPlan plan;
  plan.node_kills.push_back({/*rank=*/3, clean.busy_us * 0.6, /*epoch=*/0});

  ChaosSetup d2;
  d2.plan = &plan;
  d2.ring_depth = 2;
  const ChaosRun r2 =
      run_chaos_gyre(d2, "hyades_ch_rd2", gcm::RecoveryMode::kMigrate);
  ChaosSetup d3;
  d3.plan = &plan;
  d3.ring_depth = 3;
  const ChaosRun r3 =
      run_chaos_gyre(d3, "hyades_ch_rd3", gcm::RecoveryMode::kMigrate);

  EXPECT_EQ(r2.stats.ladder.size(), 1u);
  EXPECT_EQ(r3.stats.ladder.size(), 1u);
  expect_all_ranks_bit_identical(clean, r2, 4, "ring-depth-2");
  expect_all_ranks_bit_identical(clean, r3, 4, "ring-depth-3");
}

TEST(Chaos, RingDepthBelowTwoIsRejected) {
  gcm::ModelConfig cfg = gcm::testing::small_ocean(2, 2);
  cluster::MachineConfig mc;
  mc.smp_count = 4;
  mc.procs_per_smp = 1;
  mc.interconnect = &gcm::testing::test_net();
  cluster::Runtime rt(mc);
  gcm::ResilientConfig rcfg;
  rcfg.ckpt_prefix = ckpt_prefix_for("hyades_ch_depth1");
  rcfg.recovery = gcm::RecoveryMode::kMigrate;
  rcfg.ring_depth = 1;
  EXPECT_THROW(gcm::run_resilient(rt, cfg, 4, rcfg), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Adversarial damage to the tile store itself.

TEST(TileDamage, CorruptPayloadPassesPeekButFailsVerify) {
  const gcm::ModelConfig cfg = gcm::testing::small_ocean(1, 1);
  const std::string path =
      gcm::tile_ckpt::rank_path(ckpt_prefix_for("hyades_ch_dmg_rot"), 0);
  gcm::State s;
  {
    const gcm::Decomp dec(cfg, 0);
    s.allocate(dec, cfg.nz);
    for (std::size_t i = 0; i < s.u.size(); ++i) {
      s.u.data()[i] = static_cast<double>(i) * 0.25;
    }
    s.step = 9;
  }
  gcm::tile_ckpt::save(path, cfg, s);
  ASSERT_TRUE(gcm::tile_ckpt::verify(path, cfg));

  rot_payload(path);
  // The header is intact: the shallow probes still accept the file...
  EXPECT_EQ(gcm::tile_ckpt::peek_step(path), 9);
  // ...but deep verification and a real load both refuse it.
  EXPECT_FALSE(gcm::tile_ckpt::verify(path, cfg));
  gcm::State loaded;
  {
    const gcm::Decomp dec(cfg, 0);
    loaded.allocate(dec, cfg.nz);
  }
  EXPECT_THROW(gcm::tile_ckpt::load(path, cfg, &loaded), std::runtime_error);
  fs::remove(path);
}

TEST(TileDamage, CorruptByteCountFailsVerifyAndLoadWithoutAllocating) {
  // A header claiming 2^63 more payload bytes than the file holds: the
  // step still peeks, but verify() refuses it and load() throws a
  // runtime_error -- neither tries to allocate the claimed size.
  const gcm::ModelConfig cfg = gcm::testing::small_ocean(1, 1);
  const std::string path =
      gcm::tile_ckpt::rank_path(ckpt_prefix_for("hyades_ch_dmg_cnt"), 0);
  gcm::State s;
  {
    const gcm::Decomp dec(cfg, 0);
    s.allocate(dec, cfg.nz);
    s.step = 9;
  }
  gcm::tile_ckpt::save(path, cfg, s);
  ASSERT_TRUE(gcm::tile_ckpt::verify(path, cfg));

  rot_byte_count(path);
  EXPECT_EQ(gcm::tile_ckpt::peek_step(path), 9);
  EXPECT_FALSE(gcm::tile_ckpt::verify(path, cfg));
  EXPECT_THROW(gcm::tile_ckpt::load(path, cfg, &s), std::runtime_error);
  fs::remove(path);
}

TEST(TileDamage, TruncatedFileFailsScanCleanly) {
  const gcm::ModelConfig cfg = gcm::testing::small_ocean(1, 1);
  const std::string prefix = ckpt_prefix_for("hyades_ch_dmg_trunc");
  const std::string slot0 = gcm::tile_ckpt::slot_prefix(prefix, 0);
  for (int r = 0; r < 2; ++r) {
    gcm::State s;
    const gcm::Decomp dec(cfg, 0);
    s.allocate(dec, cfg.nz);
    s.step = 6;
    gcm::tile_ckpt::save(gcm::tile_ckpt::rank_path(slot0, r), cfg, s);
  }
  ASSERT_TRUE(gcm::tile_ckpt::scan_slot(prefix, 0, 2).consistent);

  // Truncate rank 1's file mid-header: the slot must scan as
  // inconsistent (no exception escapes), and deep verify refuses it.
  const std::string victim = gcm::tile_ckpt::rank_path(slot0, 1);
  fs::resize_file(victim, 24);
  const gcm::tile_ckpt::SlotScan scan =
      gcm::tile_ckpt::scan_slot(prefix, 0, 2);
  EXPECT_FALSE(scan.consistent);
  EXPECT_FALSE(gcm::tile_ckpt::verify(victim, cfg));
  gcm::tile_ckpt::remove_slots(prefix, 2);
}

TEST(TileDamage, TmpOrphanIsNeverACommittedCheckpoint) {
  // A crash between write and rename strands "<path>.tmp".  The store
  // must never mistake it for a committed checkpoint: the slot scans
  // as unwritten and per-tile search finds nothing.
  const gcm::ModelConfig cfg = gcm::testing::small_ocean(1, 1);
  const std::string prefix = ckpt_prefix_for("hyades_ch_dmg_tmp");
  const std::string path =
      gcm::tile_ckpt::rank_path(gcm::tile_ckpt::slot_prefix(prefix, 0), 0);
  {
    std::ofstream orphan(path + ".tmp", std::ios::binary);
    orphan << "half-written garbage";
  }
  EXPECT_FALSE(gcm::tile_ckpt::scan_slot(prefix, 0, 1).consistent);
  EXPECT_EQ(gcm::tile_ckpt::newest_rank_ckpt(prefix, 0, 1000).step, -1);
  EXPECT_FALSE(gcm::tile_ckpt::verify(path, cfg));
  fs::remove(path + ".tmp");
}

}  // namespace
}  // namespace hyades
