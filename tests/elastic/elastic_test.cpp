// Elastic-membership suite (tier2 + aggregate label `elastic_tests`):
// per-tile durable checkpoints as independently loadable units, live
// tile migration onto surviving boards after a NodeDown verdict, and
// hot node join handing migrated tiles back mid-campaign.  The
// governing invariant is the same as the hard-failure suite's, with a
// sharper clock: recovery by migration costs strictly less virtual time
// than restarting the world, and neither recovery nor rebalance ever
// costs bits.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "cluster/fault.hpp"
#include "cluster/runtime.hpp"
#include "cluster/trace.hpp"
#include "gcm/decomp.hpp"
#include "gcm/model.hpp"
#include "gcm/resilient.hpp"
#include "gcm/state.hpp"
#include "gcm/tile_ckpt.hpp"
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
  return (fs::temp_directory_path() /
          (std::string(name) + "." + std::to_string(getpid())))
      .string();
}

// One resilient gyre run parameterized by recovery mode, collecting
// every rank's final state plus the runtime's summed elastic
// accounting.
struct ElasticRun {
  gcm::ResilientStats stats;
  std::map<int, gcm::State> state;  // by rank
  std::int64_t restarts = 0;        // accounting: restart charges
  std::int64_t migrations = 0;      // accounting: tiles adopted
  std::int64_t rebalances = 0;      // accounting: tiles handed back
  Microseconds restart_us = 0;
  Microseconds migrate_us = 0;
  Microseconds busy_us = 0;  // slowest rank's final virtual clock
};

ElasticRun run_elastic_gyre(int steps, const cluster::FaultPlan* plan,
                            const char* ckpt_name, int smp_count,
                            int procs_per_smp, gcm::RecoveryMode mode,
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
  rcfg.recovery = mode;
  rcfg.tracers = tracers;

  ElasticRun out;
  std::mutex mu;
  rcfg.on_complete = [&](cluster::RankContext& ctx, gcm::Model& m) {
    std::lock_guard<std::mutex> lock(mu);
    out.state.emplace(ctx.rank(), m.state());
    out.busy_us = std::max(out.busy_us, ctx.clock().now());
  };
  out.stats = gcm::run_resilient(rt, cfg, steps, rcfg);
  for (const cluster::Accounting& a : rt.accounting()) {
    out.restarts += a.restarts;
    out.migrations += a.migrations;
    out.rebalances += a.rebalances;
    out.restart_us += a.restart_us;
    out.migrate_us += a.migrate_us;
  }
  gcm::tile_ckpt::remove_slots(rcfg.ckpt_prefix, mc.nranks());
  return out;
}

// ---------------------------------------------------------------------------
// The tile store: per-tile files as independently loadable units.

gcm::State make_tile_state(const gcm::ModelConfig& cfg, long step,
                           double stamp) {
  const gcm::Decomp dec(cfg, 0);
  gcm::State s;
  s.allocate(dec, cfg.nz);
  for (std::size_t i = 0; i < s.u.size(); ++i) {
    s.u.data()[i] = stamp + static_cast<double>(i);
  }
  for (std::size_t i = 0; i < s.theta.size(); ++i) {
    s.theta.data()[i] = 2.0 * stamp - static_cast<double>(i);
  }
  s.step = step;
  return s;
}

TEST(TileStore, PathCompositionIsTheModulesJob) {
  const std::string prefix = "/scratch/run";
  EXPECT_EQ(gcm::tile_ckpt::slot_prefix(prefix, 0), "/scratch/run.a");
  EXPECT_EQ(gcm::tile_ckpt::slot_prefix(prefix, 1), "/scratch/run.b");
  EXPECT_EQ(gcm::tile_ckpt::rank_path("/scratch/run.a", 3),
            "/scratch/run.a.rank3");
}

TEST(TileStore, SaveLoadRoundTripsOneTileBitExactly) {
  const gcm::ModelConfig cfg = gcm::testing::small_ocean(1, 1);
  const std::string path =
      gcm::tile_ckpt::rank_path(ckpt_prefix_for("hyades_el_tile"), 0);
  const gcm::State wrote = make_tile_state(cfg, 7, 0.5);
  gcm::tile_ckpt::save(path, cfg, wrote);
  EXPECT_EQ(gcm::tile_ckpt::peek_step(path), 7);

  gcm::State read = make_tile_state(cfg, 0, 0.0);
  gcm::tile_ckpt::load(path, cfg, &read);
  expect_state_bits_equal(wrote, read, "tile-roundtrip");
  EXPECT_FALSE(fs::exists(path + ".tmp"));
  fs::remove(path);
}

TEST(TileStore, NewestRankCkptSearchesBothSlotsUnderACeiling) {
  const gcm::ModelConfig cfg = gcm::testing::small_ocean(1, 1);
  const std::string prefix = ckpt_prefix_for("hyades_el_newest");
  const gcm::State at3 = make_tile_state(cfg, 3, 1.0);
  const gcm::State at6 = make_tile_state(cfg, 6, 2.0);
  gcm::tile_ckpt::save(
      gcm::tile_ckpt::rank_path(gcm::tile_ckpt::slot_prefix(prefix, 1), 0),
      cfg, at3);
  gcm::tile_ckpt::save(
      gcm::tile_ckpt::rank_path(gcm::tile_ckpt::slot_prefix(prefix, 0), 0),
      cfg, at6);

  // Unbounded: the newest of the two slots wins, whichever slot it is.
  gcm::tile_ckpt::TileHit hit =
      gcm::tile_ckpt::newest_rank_ckpt(prefix, 0, 1000);
  EXPECT_EQ(hit.step, 6);
  // A recovery ceiling below it falls back to the older slot.
  hit = gcm::tile_ckpt::newest_rank_ckpt(prefix, 0, 5);
  EXPECT_EQ(hit.step, 3);
  // A ceiling below everything durable: no usable tile.
  hit = gcm::tile_ckpt::newest_rank_ckpt(prefix, 0, 2);
  EXPECT_EQ(hit.step, -1);
  // Other ranks never wrote: nothing to find.
  hit = gcm::tile_ckpt::newest_rank_ckpt(prefix, 1, 1000);
  EXPECT_EQ(hit.step, -1);

  gcm::tile_ckpt::remove_slots(prefix, 2);
  EXPECT_FALSE(fs::exists(
      gcm::tile_ckpt::rank_path(gcm::tile_ckpt::slot_prefix(prefix, 0), 0)));
  EXPECT_FALSE(fs::exists(
      gcm::tile_ckpt::rank_path(gcm::tile_ckpt::slot_prefix(prefix, 1), 0)));
}

TEST(TileStore, ScanSlotDemandsEveryRankAtTheSameStep) {
  const gcm::ModelConfig cfg = gcm::testing::small_ocean(1, 1);
  const std::string prefix = ckpt_prefix_for("hyades_el_scan");
  const std::string slot0 = gcm::tile_ckpt::slot_prefix(prefix, 0);
  gcm::tile_ckpt::save(gcm::tile_ckpt::rank_path(slot0, 0), cfg,
                       make_tile_state(cfg, 9, 1.0));
  // Rank 1 missing: inconsistent.
  gcm::tile_ckpt::SlotScan scan = gcm::tile_ckpt::scan_slot(prefix, 0, 2);
  EXPECT_FALSE(scan.consistent);
  // Rank 1 at a different step: still inconsistent.
  gcm::tile_ckpt::save(gcm::tile_ckpt::rank_path(slot0, 1), cfg,
                       make_tile_state(cfg, 12, 1.0));
  scan = gcm::tile_ckpt::scan_slot(prefix, 0, 2);
  EXPECT_FALSE(scan.consistent);
  // Both at step 9: a usable collective restart point.
  gcm::tile_ckpt::save(gcm::tile_ckpt::rank_path(slot0, 1), cfg,
                       make_tile_state(cfg, 9, 2.0));
  scan = gcm::tile_ckpt::scan_slot(prefix, 0, 2);
  EXPECT_TRUE(scan.consistent);
  EXPECT_EQ(scan.step, 9);
  gcm::tile_ckpt::remove_slots(prefix, 2);
}

// ---------------------------------------------------------------------------
// The .tmp-leak audit: every failure path of the durable writer must
// remove its temporary, and a failed save must never disturb the slot.

TEST(TileStore, FailedSaveNeverLeaksTmpNorDisturbsTheSlot) {
  const gcm::ModelConfig cfg = gcm::testing::small_ocean(1, 1);
  const std::string path =
      gcm::tile_ckpt::rank_path(ckpt_prefix_for("hyades_el_leak"), 0);
  const gcm::State committed = make_tile_state(cfg, 3, 4.0);
  gcm::tile_ckpt::save(path, cfg, committed);

  // Inject a torn write: the hook truncates the temporary between the
  // write and the post-write verify, so the save must throw, remove the
  // temporary, and leave the committed file untouched.
  gcm::tile_ckpt::set_test_corrupt_hook([](const std::string& tmp) {
    std::ofstream truncate(tmp, std::ios::binary | std::ios::trunc);
  });
  const gcm::State next = make_tile_state(cfg, 6, 5.0);
  EXPECT_THROW(gcm::tile_ckpt::save(path, cfg, next), std::runtime_error);
  gcm::tile_ckpt::set_test_corrupt_hook(nullptr);

  EXPECT_FALSE(fs::exists(path + ".tmp")) << "failed save leaked a .tmp";
  ASSERT_TRUE(fs::exists(path));
  EXPECT_EQ(gcm::tile_ckpt::peek_step(path), 3);
  gcm::State still = make_tile_state(cfg, 0, 0.0);
  gcm::tile_ckpt::load(path, cfg, &still);
  expect_state_bits_equal(committed, still, "slot-after-failed-save");
  fs::remove(path);
}

TEST(TileStore, UnopenablePathFailsCleanlyWithoutTmp) {
  const gcm::ModelConfig cfg = gcm::testing::small_ocean(1, 1);
  const std::string path =
      (fs::temp_directory_path() / "hyades_el_no_such_dir" / "ck.rank0")
          .string();
  ASSERT_FALSE(fs::exists(fs::path(path).parent_path()));
  EXPECT_THROW(
      gcm::tile_ckpt::save(path, cfg, make_tile_state(cfg, 1, 1.0)),
      std::runtime_error);
  EXPECT_FALSE(fs::exists(path + ".tmp"));
  EXPECT_FALSE(fs::exists(path));
}

// ---------------------------------------------------------------------------
// Live migration: survivors rewind in memory, adopters re-load only the
// dead tiles, and the run finishes bit-identical to the clean one.

TEST(Elastic, NoKillMigrateMatchesEpochRestartBitIdentically) {
  // With no kills scheduled the snapshot ring is pure bookkeeping: the
  // migrate-mode run must be bit-identical to the restart-mode run and
  // charge nothing to the elastic accounts.
  const ElasticRun a =
      run_elastic_gyre(10, nullptr, "hyades_el_clean_restart", 4, 1,
                       gcm::RecoveryMode::kEpochRestart);
  const ElasticRun b =
      run_elastic_gyre(10, nullptr, "hyades_el_clean_migrate", 4, 1,
                       gcm::RecoveryMode::kMigrate);
  EXPECT_TRUE(b.stats.ladder.empty());
  EXPECT_EQ(b.stats.migrations, 0);
  EXPECT_EQ(b.stats.rebalances, 0);
  EXPECT_EQ(b.migrations, 0);
  EXPECT_EQ(b.migrate_us, 0.0);
  EXPECT_DOUBLE_EQ(a.busy_us, b.busy_us);
  ASSERT_EQ(b.state.size(), 4u);
  for (int rank = 0; rank < 4; ++rank) {
    expect_state_bits_equal(a.state.at(rank), b.state.at(rank),
                            "clean-migrate-vs-restart");
  }
}

TEST(Elastic, NodeKillMigratesTheDeadTileBitIdentically) {
  // Rank 3's node dies early in epoch 0.  Under kMigrate the three
  // survivors rewind from their in-memory rings (no restart charge, no
  // disk), rank 3's tile is adopted from its durable step-0 file by a
  // surviving board, and the run finishes bit-identical to the
  // kill-free run.
  cluster::FaultPlan plan;
  plan.node_kills.push_back({/*rank=*/3, /*at_us=*/50.0, /*epoch=*/0});

  const ElasticRun a = run_elastic_gyre(10, nullptr, "hyades_el_mig_clean",
                                        4, 1, gcm::RecoveryMode::kMigrate);
  std::vector<cluster::Tracer> tracers(4);
  const ElasticRun b =
      run_elastic_gyre(10, &plan, "hyades_el_mig_kill", 4, 1,
                       gcm::RecoveryMode::kMigrate, &tracers);
  ASSERT_EQ(b.stats.ladder.size(), 1u);  // one recovery event...
  EXPECT_EQ(b.restarts, 0);  // ...but no restart-the-world charge
  EXPECT_EQ(b.restart_us, 0.0);
  EXPECT_EQ(b.stats.migrations, 1);
  EXPECT_EQ(b.migrations, 1);
  EXPECT_GT(b.migrate_us, 0.0);
  EXPECT_EQ(b.stats.ladder[0].verdict.rank, 3);
  // Died before the first rotation.
  EXPECT_EQ(b.stats.ladder[0].attempts.back().step, 0);
  EXPECT_GT(b.stats.ladder[0].recovery_us, 0.0);
  Microseconds recovery_span = 0;
  for (const cluster::Tracer& t : tracers) {
    recovery_span += t.total_cat(cluster::SpanCat::kNodeDown);
  }
  EXPECT_GT(recovery_span, 0.0);
  ASSERT_EQ(b.state.size(), 4u);
  for (int rank = 0; rank < 4; ++rank) {
    expect_state_bits_equal(a.state.at(rank), b.state.at(rank),
                            "migrate-vs-clean");
  }
}

TEST(Elastic, MidRunKillMigratesFromTheLatestCut) {
  // A kill landing after the first checkpoint rotations must resume
  // from a non-zero cut: survivors rewind their rings to the newest cut
  // the dead rank also made durable -- never all the way to step 0.
  const ElasticRun clean = run_elastic_gyre(
      12, nullptr, "hyades_el_mid_clean", 4, 1, gcm::RecoveryMode::kMigrate);
  cluster::FaultPlan plan;
  plan.node_kills.push_back(
      {/*rank=*/1, /*at_us=*/clean.busy_us * 0.7, /*epoch=*/0});
  const ElasticRun b = run_elastic_gyre(12, &plan, "hyades_el_mid_kill", 4,
                                        1, gcm::RecoveryMode::kMigrate);
  ASSERT_EQ(b.stats.ladder.size(), 1u);
  EXPECT_EQ(b.stats.migrations, 1);
  // Past at least one rotation.
  EXPECT_GE(b.stats.ladder[0].attempts.back().step, 3);
  ASSERT_EQ(b.state.size(), 4u);
  for (int rank = 0; rank < 4; ++rank) {
    expect_state_bits_equal(clean.state.at(rank), b.state.at(rank),
                            "midkill-vs-clean");
  }
}

TEST(Elastic, SmpKillMigratesEveryHostedTile) {
  // Kills are node-granular: killing rank 2 on a two-way SMP takes rank
  // 3 with it, so migration must adopt *both* tiles onto the surviving
  // board -- and still converge bit-identically.
  cluster::FaultPlan plan;
  plan.node_kills.push_back({/*rank=*/2, /*at_us=*/50.0, /*epoch=*/0});

  const ElasticRun a = run_elastic_gyre(10, nullptr, "hyades_el_smp_clean",
                                        2, 2, gcm::RecoveryMode::kMigrate);
  const ElasticRun b = run_elastic_gyre(10, &plan, "hyades_el_smp_kill", 2,
                                        2, gcm::RecoveryMode::kMigrate);
  EXPECT_EQ(b.stats.ladder.size(), 1u);
  EXPECT_EQ(b.stats.migrations, 2);
  EXPECT_EQ(b.migrations, 2);
  ASSERT_EQ(b.state.size(), 4u);
  for (int rank = 0; rank < 4; ++rank) {
    expect_state_bits_equal(a.state.at(rank), b.state.at(rank),
                            "smpmigrate-vs-clean");
  }
}

TEST(Elastic, MigrationRecoversStrictlyFasterThanEpochRestart) {
  // The point of the whole subsystem: for the same kill schedule,
  // detection-to-first-post-recovery-step is strictly cheaper under
  // migration (survivors skip the restart penalty and the disk reload;
  // only the adopters pay the migration cost).
  cluster::FaultPlan plan;
  plan.node_kills.push_back({/*rank=*/3, /*at_us=*/50.0, /*epoch=*/0});

  const ElasticRun restart =
      run_elastic_gyre(10, &plan, "hyades_el_race_restart", 4, 1,
                       gcm::RecoveryMode::kEpochRestart);
  const ElasticRun migrate =
      run_elastic_gyre(10, &plan, "hyades_el_race_migrate", 4, 1,
                       gcm::RecoveryMode::kMigrate);
  ASSERT_EQ(restart.stats.ladder.size(), 1u);
  ASSERT_EQ(migrate.stats.ladder.size(), 1u);
  EXPECT_LT(migrate.stats.ladder[0].recovery_us,
            restart.stats.ladder[0].recovery_us);
  // Same bits either way: recovery mode is a scheduling decision.
  ASSERT_EQ(migrate.state.size(), 4u);
  for (int rank = 0; rank < 4; ++rank) {
    expect_state_bits_equal(restart.state.at(rank), migrate.state.at(rank),
                            "migrate-vs-restart-bits");
  }
}

// ---------------------------------------------------------------------------
// Hot join: a replacement board takes the migrated tiles back.

TEST(Elastic, HotJoinHandsMigratedTilesBackBitIdentically) {
  // Rank 3's board dies at t=50 and a replacement board for SMP 3 joins
  // at step 6: the adopted tile is handed home at that cut (one
  // rebalance charged to the moved rank) and the run still finishes
  // bit-identical to the failure-free run.
  cluster::FaultPlan plan;
  plan.node_kills.push_back({/*rank=*/3, /*at_us=*/50.0, /*epoch=*/0});
  plan.node_joins.push_back({/*smp=*/3, /*at_step=*/6});

  const ElasticRun a = run_elastic_gyre(12, nullptr, "hyades_el_join_clean",
                                        4, 1, gcm::RecoveryMode::kMigrate);
  const ElasticRun b = run_elastic_gyre(12, &plan, "hyades_el_join_kill", 4,
                                        1, gcm::RecoveryMode::kMigrate);
  EXPECT_EQ(b.stats.ladder.size(), 1u);
  EXPECT_EQ(b.stats.migrations, 1);
  EXPECT_EQ(b.stats.rebalances, 1);
  EXPECT_EQ(b.rebalances, 1);
  ASSERT_EQ(b.state.size(), 4u);
  for (int rank = 0; rank < 4; ++rank) {
    expect_state_bits_equal(a.state.at(rank), b.state.at(rank),
                            "hotjoin-vs-clean");
  }
}

TEST(Elastic, JoinWithoutAnyMigrationIsANoOp) {
  // A join scheduled with nothing migrated away must change neither
  // bits nor accounting: every tile is already home.
  cluster::FaultPlan plan;
  plan.node_kills.push_back({/*rank=*/3, /*at_us=*/50.0, /*epoch=*/1});
  plan.node_joins.push_back({/*smp=*/0, /*at_step=*/3});
  // (The epoch-1 kill never fires: epoch 0 completes the run.)

  const ElasticRun a = run_elastic_gyre(10, nullptr, "hyades_el_noop_clean",
                                        4, 1, gcm::RecoveryMode::kMigrate);
  const ElasticRun b = run_elastic_gyre(10, &plan, "hyades_el_noop_join", 4,
                                        1, gcm::RecoveryMode::kMigrate);
  EXPECT_TRUE(b.stats.ladder.empty());
  EXPECT_EQ(b.stats.rebalances, 0);
  EXPECT_EQ(b.rebalances, 0);
  ASSERT_EQ(b.state.size(), 4u);
  for (int rank = 0; rank < 4; ++rank) {
    expect_state_bits_equal(a.state.at(rank), b.state.at(rank),
                            "noop-join-vs-clean");
  }
}

}  // namespace
}  // namespace hyades
