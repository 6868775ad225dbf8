// Ensemble-farm suite (tier2 + aggregate label `farm_tests`): the
// deterministic job-queue service over the cluster pool.  Governing
// invariants: (1) the whole campaign -- schedule, ledger, diagnostics
// -- is a pure function of the submitted queue, so two runs of the same
// queue produce byte-identical summaries; (2) a duplicate (config hash,
// seed) submission is served from the result cache for zero additional
// simulated steps; (3) priorities and admission control order/refuse
// dispatch deterministically; (4) a member that exhausts its restart
// budget is reported failed without wedging the queue; (5) running a
// drain's members side by side on host threads changes no ledger byte.
#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cluster/fault.hpp"
#include "farm/farm.hpp"
#include "support/host_pool.hpp"
#include "tests/gcm/gcm_test_util.hpp"

namespace hyades::farm {
namespace {

// The default scratch dir is private to each Farm, so concurrent
// processes of this binary (ctest -j) never share checkpoint files.
FarmConfig farm_config(int clusters, int max_pending = 0) {
  FarmConfig fc;
  fc.clusters = clusters;
  fc.max_pending = max_pending;
  return fc;
}

// A fast 2x2-tile gyre member on a 4-SMP cluster.
JobSpec member(const std::string& name, std::uint64_t seed, int steps = 6,
               int priority = 0) {
  JobSpec s;
  s.name = name;
  s.priority = priority;
  s.seed = seed;
  s.steps = steps;
  s.machine = {4, 1};
  s.config = gcm::testing::small_ocean(2, 2);
  s.config.topography = gcm::ModelConfig::Topography::kBasin;
  return s;
}

// A member whose node 1 dies in every epoch: not survivable by
// restarting, so the resilient driver's typed give-up is guaranteed.
JobSpec doomed_member(const std::string& name) {
  JobSpec s = member(name, /*seed=*/11, /*steps=*/6);
  s.max_restarts = 1;
  for (int epoch = 0; epoch <= s.max_restarts + 1; ++epoch) {
    s.faults.node_kills.push_back({/*rank=*/1, /*at_us=*/50.0, epoch});
  }
  return s;
}

// A member whose node 1 dies early in epoch 0 and whose tile a
// survivor adopts live: it completes, and it writes durable checkpoints
// under the farm's scratch dir on the way.
JobSpec kill_migrate_member(const std::string& name, std::uint64_t seed) {
  JobSpec s = member(name, seed);
  s.recovery = gcm::RecoveryMode::kMigrate;
  s.faults.node_kills.push_back({/*rank=*/1, /*at_us=*/50.0, /*epoch=*/0});
  return s;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

TEST(Farm, ConfigHashSeparatesPhysicsFromSeed) {
  const JobSpec a = member("a", 1);
  JobSpec b = member("b", 2);
  // Name, priority and seed are scheduling/identity-cache concerns, not
  // computation: hash must match.
  b.priority = 9;
  EXPECT_EQ(a.config_hash(), b.config_hash());

  // Any knob that changes the stepped bits must change the hash.
  JobSpec wind = member("wind", 1);
  wind.config.wind_tau0 += 0.01;
  EXPECT_NE(a.config_hash(), wind.config_hash());

  JobSpec longer = member("longer", 1);
  longer.steps += 1;
  EXPECT_NE(a.config_hash(), longer.config_hash());

  JobSpec wider = member("wider", 1);
  wider.machine = {2, 2};
  EXPECT_NE(a.config_hash(), wider.config_hash());

  JobSpec faulty = member("faulty", 1);
  faulty.faults.link_kills.push_back({0, 1, 0.0});
  EXPECT_NE(a.config_hash(), faulty.config_hash());
}

TEST(Config, FingerprintMovesWithEveryField) {
  // The result cache keys on ModelConfig::fingerprint: a field the hash
  // misses would let one config's cached result serve another.  Change
  // each field of the default config in turn; every change must move
  // the fingerprint, and no two changes may land on the same value.
  using gcm::ModelConfig;
  const ModelConfig base;
  std::set<std::uint64_t> seen{base.fingerprint()};
  const auto expect_moved = [&](const ModelConfig& c, const std::string& f) {
    EXPECT_NE(c.fingerprint(), base.fingerprint()) << f;
    EXPECT_TRUE(seen.insert(c.fingerprint()).second) << f;
  };
  const std::pair<int ModelConfig::*, const char*> ints[] = {
      {&ModelConfig::nx, "nx"},
      {&ModelConfig::ny, "ny"},
      {&ModelConfig::nz, "nz"},
      {&ModelConfig::px, "px"},
      {&ModelConfig::py, "py"},
      {&ModelConfig::halo, "halo"},
      {&ModelConfig::cg_max_iter, "cg_max_iter"},
      {&ModelConfig::cg3_max_iter, "cg3_max_iter"},
  };
  for (const auto& [field, name] : ints) {
    ModelConfig c = base;
    ++(c.*field);
    expect_moved(c, name);
  }
  const std::pair<double ModelConfig::*, const char*> reals[] = {
      {&ModelConfig::lat_extent_deg, "lat_extent_deg"},
      {&ModelConfig::dt, "dt"},
      {&ModelConfig::radius, "radius"},
      {&ModelConfig::omega, "omega"},
      {&ModelConfig::gravity, "gravity"},
      {&ModelConfig::rho0, "rho0"},
      {&ModelConfig::theta0, "theta0"},
      {&ModelConfig::salt0, "salt0"},
      {&ModelConfig::eos_alpha, "eos_alpha"},
      {&ModelConfig::eos_beta, "eos_beta"},
      {&ModelConfig::visc_h, "visc_h"},
      {&ModelConfig::visc_v, "visc_v"},
      {&ModelConfig::diff_h, "diff_h"},
      {&ModelConfig::diff_v, "diff_v"},
      {&ModelConfig::visc_4, "visc_4"},
      {&ModelConfig::diff_4, "diff_4"},
      {&ModelConfig::ri_nu0, "ri_nu0"},
      {&ModelConfig::rad_emissivity, "rad_emissivity"},
      {&ModelConfig::q_ref, "q_ref"},
      {&ModelConfig::q_theta_ref, "q_theta_ref"},
      {&ModelConfig::latent_heat_over_cp, "latent_heat_over_cp"},
      {&ModelConfig::ab_eps, "ab_eps"},
      {&ModelConfig::cg_tol, "cg_tol"},
      {&ModelConfig::cg3_tol, "cg3_tol"},
      {&ModelConfig::total_depth, "total_depth"},
      {&ModelConfig::wind_tau0, "wind_tau0"},
      {&ModelConfig::t_restore_days, "t_restore_days"},
      {&ModelConfig::rad_tau_days, "rad_tau_days"},
      {&ModelConfig::fric_tau_days, "fric_tau_days"},
      {&ModelConfig::fps_mflops, "fps_mflops"},
      {&ModelConfig::fds_mflops, "fds_mflops"},
  };
  for (const auto& [field, name] : reals) {
    ModelConfig c = base;
    c.*field += 1.0;
    expect_moved(c, name);
  }
  const std::pair<bool ModelConfig::*, const char*> flags[] = {
      {&ModelConfig::enable_ri_mixing, "enable_ri_mixing"},
      {&ModelConfig::enable_radiation, "enable_radiation"},
      {&ModelConfig::enable_moisture, "enable_moisture"},
      {&ModelConfig::implicit_vertical_mixing, "implicit_vertical_mixing"},
      {&ModelConfig::overlap_comm, "overlap_comm"},
      {&ModelConfig::cg_jacobi, "cg_jacobi"},
      {&ModelConfig::nonhydrostatic, "nonhydrostatic"},
      {&ModelConfig::enable_forcing, "enable_forcing"},
      {&ModelConfig::enable_convection, "enable_convection"},
  };
  for (const auto& [field, name] : flags) {
    ModelConfig c = base;
    c.*field = !(c.*field);
    expect_moved(c, name);
  }
  ModelConfig c = base;
  c.isomorph = gcm::Isomorph::kAtmosphere;
  expect_moved(c, "isomorph");
  c = base;
  c.advection = ModelConfig::Advection::kDst3;
  expect_moved(c, "advection");
  c = base;
  c.topography = ModelConfig::Topography::kBasin;
  expect_moved(c, "topography");
  // dz: spelling out the default levels, then changing one entry.
  c = base;
  c.dz = base.level_thicknesses();
  expect_moved(c, "dz");
  c.dz[3] += 1.0;
  expect_moved(c, "dz[3]");
}

TEST(Farm, SameQueueTwiceIsBitIdentical) {
  // The acceptance criterion: two farms fed the identical queue emit
  // byte-identical campaign summaries (the ledger prints KE in hexfloat
  // precisely so bit-level drift would be visible here).
  auto campaign = [] {
    Farm f(farm_config(2));
    f.submit(member("m-a", 101));
    f.submit(member("m-b", 102));
    f.submit(member("m-c", 103, /*steps=*/6, /*priority=*/2));
    f.submit(member("m-a-again", 101));  // dedup'd
    f.run_until_drained();
    return f.format_summary();
  };
  const std::string first = campaign();
  const std::string second = campaign();
  EXPECT_EQ(first, second);
  EXPECT_NE(first.find("cache"), std::string::npos) << first;
}

TEST(Farm, CacheHitServesDuplicateForZeroSteps) {
  Farm f(farm_config(2));
  const int orig = f.submit(member("orig", 42));
  f.run_until_drained();
  // By value: submit() grows the ledger vector, so a reference taken
  // here would dangle across the resubmissions below.
  const JobRecord r0 = f.job(orig);
  ASSERT_EQ(r0.status, JobStatus::kCompleted);
  EXPECT_FALSE(r0.from_cache);
  EXPECT_EQ(r0.result.steps_committed, 6);
  EXPECT_GT(r0.result.busy_us, 0.0);

  const Farm::CampaignSummary before = f.summary();

  const int dup = f.submit(member("dup", 42));
  f.run_until_drained();
  const JobRecord& r1 = f.job(dup);
  ASSERT_EQ(r1.status, JobStatus::kCompleted);
  EXPECT_TRUE(r1.from_cache);
  // Zero additional cost: no steps, no cluster occupancy, instant
  // completion at the dispatch-time job clock.
  EXPECT_EQ(r1.result.steps_committed, 0);
  EXPECT_EQ(r1.result.busy_us, 0.0);
  EXPECT_EQ(r1.cluster, -1);
  EXPECT_EQ(r1.start_us, r1.finish_us);
  const Farm::CampaignSummary after = f.summary();
  EXPECT_EQ(after.steps_committed, before.steps_committed);
  EXPECT_EQ(after.busy_us, before.busy_us);
  EXPECT_EQ(after.cache_hits, 1);
  EXPECT_EQ(after.steps_saved, 6);
  // The cached diagnostics ARE the original's, to the bit.
  EXPECT_TRUE(
      same_bits(r0.result.kinetic_energy, r1.result.kinetic_energy));
  EXPECT_TRUE(same_bits(r0.result.mean_theta, r1.result.mean_theta));

  // A fresh seed of the same configuration is a new ensemble draw, not
  // a cache hit.
  const int fresh = f.submit(member("fresh-seed", 43));
  f.run_until_drained();
  EXPECT_FALSE(f.job(fresh).from_cache);
  EXPECT_EQ(f.job(fresh).result.steps_committed, 6);

  const Farm::CampaignSummary s = f.summary();
  EXPECT_EQ(s.completed, 3);
  EXPECT_EQ(s.cache_hits, 1);
  EXPECT_EQ(s.steps_committed, 12);
  EXPECT_EQ(s.steps_saved, 6);
}

TEST(Farm, PriorityOrderAndFifoWithinClass) {
  // One pool cluster: dispatch order is fully visible in the start
  // stamps.  Highest priority first; FIFO among equals.
  Farm f(farm_config(1));
  const int low_a = f.submit(member("low-a", 201, 6, /*priority=*/0));
  const int low_b = f.submit(member("low-b", 202, 6, /*priority=*/0));
  const int urgent = f.submit(member("urgent", 203, 6, /*priority=*/5));
  f.run_until_drained();

  const JobRecord& ru = f.job(urgent);
  const JobRecord& ra = f.job(low_a);
  const JobRecord& rb = f.job(low_b);
  ASSERT_EQ(ru.status, JobStatus::kCompleted);
  ASSERT_EQ(ra.status, JobStatus::kCompleted);
  ASSERT_EQ(rb.status, JobStatus::kCompleted);
  // urgent overtakes both despite submitting last...
  EXPECT_EQ(ru.start_us, 0.0);
  EXPECT_LE(ru.finish_us, ra.start_us);
  // ...and the two priority-0 members keep submission order.
  EXPECT_LE(ra.finish_us, rb.start_us);
  // Single cluster: everyone ran on slot 0, back to back.
  EXPECT_EQ(ru.cluster, 0);
  EXPECT_EQ(ra.cluster, 0);
  EXPECT_EQ(rb.cluster, 0);
}

TEST(Farm, AdmissionControlRejectsOverCapacity) {
  Farm f(farm_config(1, /*max_pending=*/2));
  const int a = f.submit(member("fits-a", 301));
  const int b = f.submit(member("fits-b", 302));
  const int over = f.submit(member("over", 303));
  EXPECT_EQ(f.job(a).status, JobStatus::kQueued);
  EXPECT_EQ(f.job(b).status, JobStatus::kQueued);
  EXPECT_EQ(f.job(over).status, JobStatus::kRejected);
  EXPECT_NE(f.job(over).error.find("admission"), std::string::npos)
      << f.job(over).error;

  f.run_until_drained();
  // The rejected job stays rejected -- never silently run later -- and
  // the admitted ones complete normally.
  EXPECT_EQ(f.job(over).status, JobStatus::kRejected);
  EXPECT_EQ(f.job(a).status, JobStatus::kCompleted);
  EXPECT_EQ(f.job(b).status, JobStatus::kCompleted);
  const Farm::CampaignSummary s = f.summary();
  EXPECT_EQ(s.submitted, 3);
  EXPECT_EQ(s.completed, 2);
  EXPECT_EQ(s.rejected, 1);

  // Capacity freed by draining: a resubmit is admitted (and, identical
  // spec, served from cache).
  const int again = f.submit(member("over-again", 303));
  f.run_until_drained();
  EXPECT_EQ(f.job(again).status, JobStatus::kCompleted);
}

TEST(Farm, RestartExhaustedMemberFailsWithoutWedgingQueue) {
  Farm f(farm_config(1));
  const int doomed = f.submit(doomed_member("doomed"));
  const int after = f.submit(member("after", 401));
  f.run_until_drained();

  const JobRecord& rd = f.job(doomed);
  EXPECT_EQ(rd.status, JobStatus::kFailed);
  EXPECT_FALSE(rd.error.empty());
  // A failed member commits zero steps but still burned real virtual
  // time on its cluster -- the campaign accounting must show both.
  EXPECT_EQ(rd.result.steps_committed, 0);
  EXPECT_GT(rd.result.busy_us, 0.0);
  EXPECT_GT(rd.result.restarts, 0);

  // The queue kept draining: the member behind the wreck completes,
  // scheduled after the failed job released its cluster.
  const JobRecord& ra = f.job(after);
  EXPECT_EQ(ra.status, JobStatus::kCompleted);
  EXPECT_GE(ra.start_us, rd.finish_us);

  const Farm::CampaignSummary s = f.summary();
  EXPECT_EQ(s.failed, 1);
  EXPECT_EQ(s.completed, 1);
  EXPECT_GT(s.restarts, 0);

  // Failures are never cached: resubmitting the doomed spec runs (and
  // fails) again instead of serving a bogus hit.
  const int again = f.submit(doomed_member("doomed-again"));
  f.run_until_drained();
  EXPECT_EQ(f.job(again).status, JobStatus::kFailed);
  EXPECT_FALSE(f.job(again).from_cache);
}

TEST(Farm, FailedMemberCostIsPlanPure) {
  // The survivors of a given-up epoch stop wherever a peer's exit ended
  // their waits, short of the verdict or past it.  The member is charged
  // the error's give-up time instead: epoch 1 starts once epoch 0's
  // verdict is detected and the relaunch is paid, its kill (at_us
  // already in the past) fires at once, and recovery gives up at that
  // start clock.
  const JobSpec spec = doomed_member("doomed");
  const cluster::FaultPlan& p = spec.faults;
  const Microseconds expected = p.node_kills.front().at_us +
                                p.heartbeat_deadline_us + p.restart_cost_us;
  for (int run = 0; run < 5; ++run) {
    Farm f(farm_config(1));
    const int id = f.submit(spec);
    f.run_until_drained();
    const JobRecord& r = f.job(id);
    ASSERT_EQ(r.status, JobStatus::kFailed);
    EXPECT_TRUE(same_bits(r.result.busy_us, expected))
        << "run " << run << ": busy " << r.result.busy_us << " us, expected "
        << expected << " us";
  }
}

TEST(Farm, PoolSpreadsIndependentMembersAcrossClusters) {
  Farm f(farm_config(2));
  const int a = f.submit(member("spread-a", 501));
  const int b = f.submit(member("spread-b", 502));
  f.run_until_drained();
  // Two free slots, two jobs: both start at t=0 on distinct clusters.
  EXPECT_EQ(f.job(a).start_us, 0.0);
  EXPECT_EQ(f.job(b).start_us, 0.0);
  EXPECT_NE(f.job(a).cluster, f.job(b).cluster);
  const Farm::CampaignSummary s = f.summary();
  // Makespan is the slower member, not the sum.
  EXPECT_LT(s.makespan_us, s.busy_us);
}

// The ledger of the two-drain queue below under one-member-at-a-time
// execution.  A drain may run its distinct members side by side on host
// threads, but the schedule, cache traffic and results must stay these.
constexpr const char* kGoldenLedger = R"(+-----+------------+------+-----------+--------+---------+------------+-------------+-------+----------+------+--------+-----------------------+
| job |       name | prio |    status | served | cluster | start (ms) | finish (ms) | steps | recovery | migr | downgr |           KE (J, hex) |
+-----+------------+------+-----------+--------+---------+------------+-------------+-------+----------+------+--------+-----------------------+
|   0 |      ens-0 |    0 | completed |   pool |       1 |      0.000 |      26.286 |     6 |        - |    - |      - | 0x1.10fcb99f753c2p+48 |
|   1 |      ens-1 |    0 | completed |   pool |       0 |     26.286 |      52.405 |     6 |        - |    - |      - | 0x1.10feae92859b4p+48 |
|   2 |      ens-2 |    0 | completed |   pool |       1 |     26.286 |      52.405 |     6 |        - |    - |      - |  0x1.10fc774d670ap+48 |
|   3 |     urgent |    5 | completed |   pool |       0 |      0.000 |      26.286 |     6 |        - |    - |      - | 0x1.10f6af75da70fp+48 |
|   4 |       wind |    0 | completed |   pool |       0 |     52.405 |      79.023 |     6 |        - |    - |      - | 0x1.1783a0131d4c1p+48 |
|   5 |     doomed |    0 |    failed |   pool |       1 |     52.405 |      59.455 |     0 |  restart |    0 |      0 |                     - |
|   6 |  ens-0-dup |    0 | completed |  cache |       - |     79.023 |      79.023 |     0 |        - |    - |      - | 0x1.10fcb99f753c2p+48 |
|   7 |    migrate |    0 | completed |   pool |       1 |     59.455 |      92.319 |     6 |  migrate |    1 |      0 | 0x1.10f4946159d61p+48 |
|   8 | doomed-dup |    0 |    failed |   pool |       0 |     79.023 |      86.073 |     0 |  restart |    0 |      0 |                     - |
|   9 |      ens-3 |    0 | completed |   pool |       0 |     86.073 |     112.192 |     6 |        - |    - |      - | 0x1.10f32cf76637cp+48 |
|  10 |      ens-4 |    0 | completed |   pool |       1 |    112.192 |     138.478 |     6 |        - |    - |      - | 0x1.10f5251e11233p+48 |
|  11 |  ens-1-dup |    0 | completed |  cache |       - |    138.478 |     138.478 |     0 |        - |    - |      - | 0x1.10feae92859b4p+48 |
|  12 | urgent-dup |    5 | completed |  cache |       - |    112.192 |     112.192 |     0 |        - |    - |      - | 0x1.10f6af75da70fp+48 |
+-----+------------+------+-----------+--------+---------+------------+-------------+-------+----------+------+--------+-----------------------+
campaign: 13 submitted, 11 completed (3 from cache), 2 failed, 0 rejected
steps: 48 simulated, 18 saved by dedup; cluster busy 230.797 ms; makespan 138.478 ms
recovery: 0 retransmits, 8 restarts, 1 migrations, 0 rebalances, 0 ladder downgrades
)";

// More distinct members than a 4-core host has workers, a member that
// overtakes the rest, a duplicate of a completed member, and a doomed
// member with its duplicate in the same drain; then a drain with one
// fresh member among cache hits.  Returns the ledger.
std::string drain_golden_queue() {
  Farm f(farm_config(2));
  f.submit(member("ens-0", 601));
  f.submit(member("ens-1", 602));
  f.submit(member("ens-2", 603));
  f.submit(member("urgent", 604, /*steps=*/6, /*priority=*/5));
  JobSpec wind = member("wind", 601);
  wind.config.wind_tau0 += 0.05;
  f.submit(wind);
  f.submit(doomed_member("doomed"));
  f.submit(member("ens-0-dup", 601));
  f.submit(kill_migrate_member("migrate", 605));
  f.submit(doomed_member("doomed-dup"));
  f.submit(member("ens-3", 606));
  f.run_until_drained();
  f.submit(member("ens-4", 607));
  f.submit(member("ens-1-dup", 602));
  f.submit(member("urgent-dup", 604, /*steps=*/6, /*priority=*/5));
  f.run_until_drained();
  EXPECT_EQ(f.cache().hits(), 3);
  EXPECT_EQ(f.cache().misses(), 10);
  return f.format_summary();
}

TEST(Farm, ParallelDrainReproducesSequentialLedger) {
  for (int run = 0; run < 5; ++run) {
    EXPECT_EQ(drain_golden_queue(), kGoldenLedger) << "run " << run;
  }
}

// On one CPU every member's ranks run as fibers on the calling thread; on
// two, the drain's two lanes run them as fibers on one CPU each.  The
// ledger must not move, and the caller keeps its mask.
TEST(Farm, DrainOnOneAndTwoCpusReproducesSequentialLedger) {
  const std::vector<int> cpus = support::allowed_cpus();
  for (const std::size_t width : {std::size_t{1}, std::size_t{2}}) {
    if (cpus.size() < width) continue;
    const std::vector<int> mask(cpus.begin(),
                                cpus.begin() + static_cast<long>(width));
    const support::CpuConfinement confined(mask);
    EXPECT_EQ(drain_golden_queue(), kGoldenLedger) << width << " CPU(s)";
    EXPECT_EQ(support::allowed_cpus(), mask);
  }
}

TEST(Farm, CallerBugOnAWorkerThrowsFromTheDrain) {
  // A spec the executor rejects is a caller bug, not a failed member:
  // the drain throws on the calling thread, the members dispatched
  // before it keep their ledger rows, and the ones behind it stay
  // queued for the next drain.
  Farm f(farm_config(2));
  const int first = f.submit(member("first", 701));
  JobSpec bad = member("bad", 702);
  bad.machine = {2, 1};  // 2 ranks for 4 tiles
  const int bug = f.submit(bad);
  const int last = f.submit(member("last", 703));
  EXPECT_THROW(f.run_until_drained(), std::invalid_argument);
  EXPECT_EQ(f.job(first).status, JobStatus::kCompleted);
  EXPECT_EQ(f.job(bug).status, JobStatus::kQueued);
  EXPECT_EQ(f.job(last).status, JobStatus::kQueued);

  f.run_until_drained();
  EXPECT_EQ(f.job(last).status, JobStatus::kCompleted);
  EXPECT_EQ(f.summary().completed, 2);
}

// A drain of several lanes confines each member's thread, the calling
// thread's too, and gives it back its mask, also when the replay
// rethrows a member's caller bug.
TEST(Farm, DrainRestoresTheCallersMask) {
  const std::vector<int> cpus = support::allowed_cpus();
  if (cpus.size() < 2) GTEST_SKIP() << "lanes need two CPUs or more";
  Farm f(farm_config(2));
  f.submit(member("first", 701));
  JobSpec bad = member("bad", 702);
  bad.machine = {2, 1};  // 2 ranks for 4 tiles
  f.submit(bad);
  f.submit(member("last", 703));
  EXPECT_THROW(f.run_until_drained(), std::invalid_argument);
  EXPECT_EQ(support::allowed_cpus(), cpus);
  f.run_until_drained();
  EXPECT_EQ(support::allowed_cpus(), cpus);
  EXPECT_EQ(f.summary().completed, 2);
}

TEST(Farm, DefaultScratchDirIsPrivateToEachFarm) {
  // Two farms of one process on the default scratch dir, each draining
  // a member that checkpoints: neither may overwrite the other's files.
  const JobSpec spec = kill_migrate_member("kill-migrate", 801);
  for (int round = 0; round < 20; ++round) {
    std::array<JobRecord, 2> rec;
    {
      std::vector<std::jthread> farms;
      for (std::size_t t = 0; t < rec.size(); ++t) {
        farms.emplace_back([&spec, &rec, t] {
          try {
            Farm f(FarmConfig{});
            const int id = f.submit(spec);
            f.run_until_drained();
            rec[t] = f.job(id);
          } catch (const std::exception& e) {
            rec[t].error = e.what();
          }
        });
      }
    }
    for (const JobRecord& r : rec) {
      EXPECT_EQ(r.status, JobStatus::kCompleted)
          << "round " << round << ": " << r.error;
    }
  }
}

}  // namespace
}  // namespace hyades::farm
