// Recovery-time bench: live tile migration versus restart-the-world.
//
// The same gyre run is killed on the same schedule and recovered both
// ways.  Under kEpochRestart every rank pays the restart penalty and
// re-loads its tile from the newest consistent durable slot; under
// kMigrate the survivors rewind from their in-memory snapshot rings and
// only the dead node's tiles are re-read from disk by adopter ranks on
// surviving boards.  Both recoveries are bit-identical to the
// failure-free run (asserted here, per rank, per field); what moves is
// the recovery clock -- the virtual time from the NodeDown verdict's
// detection to the last rank completing its first post-recovery step --
// which migration must win *strictly* on every schedule (exit 1
// otherwise).  Emits BENCH_recovery.json next to the table.
#include <cstring>
#include <iostream>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "bench/bench_json.hpp"
#include "bench/bench_util.hpp"
#include "cluster/fault.hpp"
#include "cluster/runtime.hpp"
#include "gcm/model.hpp"
#include "gcm/resilient.hpp"
#include "gcm/tile_ckpt.hpp"
#include "net/arctic_model.hpp"
#include "support/table.hpp"

namespace {

using namespace hyades;

constexpr int kSmps = 4;
constexpr int kPpp = 1;
constexpr int kSteps = 24;
constexpr int kCkptEvery = 4;

gcm::ModelConfig make_cfg() {
  gcm::ModelConfig cfg;
  cfg.isomorph = gcm::Isomorph::kOcean;
  cfg.nx = 16;
  cfg.ny = 8;
  cfg.nz = 4;
  cfg.px = 2;
  cfg.py = 2;
  cfg.halo = 2;
  cfg.dt = 400.0;
  cfg.visc_h = 1.0e6;
  cfg.diff_h = 1.0e5;
  cfg.topography = gcm::ModelConfig::Topography::kBasin;
  cfg.validate();
  return cfg;
}

struct RunOut {
  gcm::ResilientStats stats;
  std::map<int, gcm::State> state;  // by rank
  double busy_us = 0;               // slowest rank's final clock
};

RunOut run_mode(const cluster::FaultPlan* plan, gcm::RecoveryMode mode,
                const std::string& ckpt_prefix) {
  const net::ArcticModel net;
  cluster::MachineConfig mc;
  mc.smp_count = kSmps;
  mc.procs_per_smp = kPpp;
  mc.interconnect = &net;
  mc.faults = plan;
  cluster::Runtime rt(mc);

  gcm::ResilientConfig rcfg;
  rcfg.ckpt_prefix = ckpt_prefix;
  rcfg.ckpt_every = kCkptEvery;
  rcfg.recovery = mode;

  RunOut out;
  std::mutex mu;
  rcfg.on_complete = [&](cluster::RankContext& ctx, gcm::Model& m) {
    std::lock_guard<std::mutex> lock(mu);
    out.state.emplace(ctx.rank(), m.state());
  };
  out.stats = gcm::run_resilient(rt, make_cfg(), kSteps, rcfg);
  out.busy_us = rt.max_clock();
  gcm::tile_ckpt::remove_slots(ckpt_prefix, mc.nranks());
  return out;
}

bool states_bit_identical(const RunOut& a, const RunOut& b) {
  if (a.state.size() != b.state.size()) return false;
  for (const auto& [rank, sa] : a.state) {
    const gcm::State& sb = b.state.at(rank);
    const auto same = [](const double* x, const double* y, std::size_t n) {
      return std::memcmp(x, y, n * sizeof(double)) == 0;
    };
    if (!same(sa.u.data(), sb.u.data(), sa.u.size()) ||
        !same(sa.v.data(), sb.v.data(), sa.v.size()) ||
        !same(sa.theta.data(), sb.theta.data(), sa.theta.size()) ||
        !same(sa.salt.data(), sb.salt.data(), sa.salt.size()) ||
        !same(sa.ps.data(), sb.ps.data(), sa.ps.size()) ||
        sa.step != sb.step) {
      return false;
    }
  }
  return true;
}

struct Kill {
  int rank = 0;
  double at_frac = 0;  // kill time as a fraction of the clean run
  int epoch = 0;       // 0: initial epoch; 1: fires during recovery
};

struct Schedule {
  std::string name;
  std::vector<Kill> kills;
  long join_step = -1;    // hot-join the first killed SMP (< 0: never)
  int expect_events = 1;  // recovery events the schedule must produce
};

}  // namespace

int run_bench() {
  bench::banner("Recovery time: live tile migration vs epoch restart");

  // The failure-free baseline: bits to match, and the clock that
  // anchors each schedule's kill time.
  const RunOut clean =
      run_mode(nullptr, gcm::RecoveryMode::kEpochRestart,
               bench::private_tmp("hyades_brc"));

  const std::vector<Schedule> schedules = {
      {"early (pre-rotation)", {{3, 0.0, 0}}, -1, 1},
      {"mid-run", {{1, 0.45, 0}}, -1, 1},
      {"mid-run + hot join", {{1, 0.45, 0}}, 16, 1},
      {"late", {{2, 0.8, 0}}, -1, 1},
      // Two boards die inside one heartbeat window: ONE coalesced
      // verdict, one recovery planning over the whole dead set.
      {"two boards, one window", {{1, 0.45, 0}, {3, 0.451, 0}}, -1, 1},
      // A second board dies while the first recovery is replaying: two
      // ladder events back to back.
      {"kill during recovery", {{3, 0.5, 0}, {1, 0.7, 1}}, -1, 2},
  };

  Table t({"kill schedule", "resume step", "restart rec (us)",
           "migrate rec (us)", "speedup", "run overhead restart",
           "run overhead migrate"});
  bench::Json rows = bench::Json::array();
  bool ok = true;
  for (const Schedule& s : schedules) {
    cluster::FaultPlan plan;
    for (const Kill& k : s.kills) {
      const double at_us =
          k.at_frac <= 0.0 ? 50.0 : k.at_frac * clean.busy_us;
      plan.node_kills.push_back({k.rank, at_us, k.epoch});
    }
    if (s.join_step >= 0) {
      // A replacement board for the killed SMP arrives mid-campaign:
      // the adopted tile is handed home at this cut, un-oversubscribing
      // the adopter's board for the rest of the run.
      plan.node_joins.push_back({s.kills.front().rank / kPpp, s.join_step});
    }

    const RunOut restart =
        run_mode(&plan, gcm::RecoveryMode::kEpochRestart,
                 bench::private_tmp("hyades_brr"));
    const RunOut migrate =
        run_mode(&plan, gcm::RecoveryMode::kMigrate,
                 bench::private_tmp("hyades_brm"));
    if (static_cast<int>(restart.stats.ladder.size()) != s.expect_events ||
        static_cast<int>(migrate.stats.ladder.size()) != s.expect_events) {
      std::cerr << "BENCH_recovery: schedule '" << s.name
                << "' did not produce exactly " << s.expect_events
                << " recovery event(s)\n";
      return 1;
    }
    // Multi-event schedules compare the summed recovery clock: the
    // total virtual time the campaign spent not making progress.
    double rec_restart = 0.0;
    double rec_migrate = 0.0;
    for (const gcm::RecoveryEvent& ev : restart.stats.ladder) {
      rec_restart += ev.recovery_us;
    }
    for (const gcm::RecoveryEvent& ev : migrate.stats.ladder) {
      rec_migrate += ev.recovery_us;
    }
    if (!states_bit_identical(clean, restart) ||
        !states_bit_identical(clean, migrate)) {
      std::cerr << "BENCH_recovery: schedule '" << s.name
                << "' broke bit-identity with the failure-free run\n";
      ok = false;
    }
    if (rec_migrate >= rec_restart) {
      std::cerr << "BENCH_recovery: schedule '" << s.name
                << "' migration not strictly faster (" << rec_migrate
                << " vs " << rec_restart << " us)\n";
      ok = false;
    }

    const long resume = restart.stats.ladder.empty()
                            ? -1
                            : restart.stats.ladder[0].attempts.back().step;
    t.add_row({s.name, Table::fmt_int(resume), Table::fmt(rec_restart, 0),
               Table::fmt(rec_migrate, 0),
               Table::fmt(rec_restart / rec_migrate, 2) + "x",
               Table::fmt(100.0 * (restart.busy_us / clean.busy_us - 1.0), 1) +
                   "%",
               Table::fmt(100.0 * (migrate.busy_us / clean.busy_us - 1.0), 1) +
                   "%"});
    rows.push(bench::Json::object()
                  .set("schedule", s.name)
                  .set("kill_rank", s.kills.front().rank)
                  .set("kills", static_cast<int>(s.kills.size()))
                  .set("recovery_events", s.expect_events)
                  .set("resume_step", static_cast<double>(resume))
                  .set("recovery_us_restart", rec_restart)
                  .set("recovery_us_migrate", rec_migrate)
                  .set("speedup", rec_restart / rec_migrate)
                  .set("migrations", migrate.stats.migrations)
                  .set("rebalances", migrate.stats.rebalances)
                  .set("busy_us_clean", clean.busy_us)
                  .set("busy_us_restart", restart.busy_us)
                  .set("busy_us_migrate", migrate.busy_us)
                  .set("bit_identical", true));
  }
  t.print(std::cout, "16x8x4 basin ocean, 4 tiles / 4 SMPs, " +
                         std::to_string(kSteps) + " steps, ckpt every " +
                         std::to_string(kCkptEvery));

  std::cout
      << "\nreading: both recovery modes end bit-identical to the "
         "failure-free run (asserted) -- the contest is purely the "
         "recovery clock.  Restart pays the restart penalty on every "
         "rank plus a whole-slot reload; migration rewinds survivors "
         "from memory for free and bills the (smaller) migration cost "
         "to the adopters alone, so it wins on every schedule.  The "
         "run-overhead columns show the tail cost of migration: until a "
         "replacement board joins, the adopter's board runs "
         "oversubscribed, so a long remaining run amortizes against the "
         "recovery win (the hot-join row hands the tile home and "
         "reclaims most of it).  The win also depends on tile size: once "
         "one oversubscribed step costs more than the restart-minus-"
         "migration penalty gap, restarting the world is the faster "
         "recovery -- elasticity is for fat penalties and lean tiles.\n";

  bench::Json root = bench::Json::object();
  root.set("bench", "recovery")
      .set("config", bench::Json::object()
                         .set("nx", 16)
                         .set("ny", 8)
                         .set("nz", 4)
                         .set("tiles", 4)
                         .set("smps", kSmps)
                         .set("procs_per_smp", kPpp)
                         .set("steps", kSteps)
                         .set("ckpt_every", kCkptEvery))
      .set("rows", std::move(rows));
  bench::write_json("BENCH_recovery.json", root);
  return ok ? 0 : 1;
}

int main() { return bench::run_main("bench_recovery", run_bench); }
