// The ensemble farm: campaign-mode operation of the personal
// supercomputer.  Where production_run replays one long job segment by
// segment, this driver runs the *campaign*: a queue of
// perturbed-parameter gyre members, a high-priority validation member
// that overtakes the bulk sweep, a wind-stress what-if, and a
// fault-sweep member that burns its restart budget and fails -- all
// scheduled across a pool of simulated clusters on the farm's
// deterministic virtual job clock, with duplicate submissions served
// from the result cache.
//
//   ./ensemble_farm [members] [steps] [clusters]
//
// Everything below is a pure function of the submitted queue: run it
// twice and the campaign ledger (KE in hexfloat, schedule stamps,
// totals) is byte-identical.
#include <exception>
#include <iostream>

#include "farm/farm.hpp"
#include "gcm/config.hpp"
#include "support/argparse.hpp"

namespace {

// A light 16x8x4 closed-basin ocean on 2x2 tiles: one campaign member
// costs ~a second of host time, so a whole queue drains quickly.
hyades::gcm::ModelConfig basin_config() {
  hyades::gcm::ModelConfig c;
  c.isomorph = hyades::gcm::Isomorph::kOcean;
  c.nx = 16;
  c.ny = 8;
  c.nz = 4;
  c.px = 2;
  c.py = 2;
  c.dt = 400.0;
  c.total_depth = 4000.0;
  c.visc_h = 1.0e6;  // mixing scaled to the coarse grid
  c.diff_h = 1.0e5;
  c.topography = hyades::gcm::ModelConfig::Topography::kBasin;
  c.wind_tau0 = 0.15;
  c.validate();
  return c;
}

hyades::farm::JobSpec gyre_member(const std::string& name, std::uint64_t seed,
                                  int steps, int priority = 0) {
  hyades::farm::JobSpec s;
  s.name = name;
  s.priority = priority;
  s.seed = seed;
  s.steps = steps;
  s.machine = {4, 1};
  s.config = basin_config();
  return s;
}

}  // namespace

int run(int argc, char** argv) {
  using namespace hyades;
  constexpr const char* kUsage = "ensemble_farm [members] [steps] [clusters]";
  const int members =
      argc > 1 ? support::checked_int(argv[1], "members", kUsage, 1, 64) : 4;
  const int steps =
      argc > 2 ? support::checked_int(argv[2], "steps", kUsage, 1, 1000) : 6;
  const int clusters =
      argc > 3 ? support::checked_int(argv[3], "clusters", kUsage, 1, 16) : 2;

  farm::FarmConfig fc;
  fc.clusters = clusters;
  // Admission control sized to the planned wave: the over-capacity
  // probe below is refused, not silently queued forever.
  fc.max_pending = members + 4;
  farm::Farm f(fc);

  std::cout << "ensemble farm: " << clusters << "-cluster pool, "
            << members << " perturbed members x " << steps
            << " steps, admission cap " << fc.max_pending << "\n\n";

  // Wave 1: the bulk ensemble (one seed per member), a validation
  // member that must overtake it, a wind-stress what-if, a doomed
  // fault-sweep member, and one submit past the admission cap.
  for (int m = 0; m < members; ++m) {
    f.submit(gyre_member("member-" + std::to_string(m),
                         static_cast<std::uint64_t>(100 + m), steps));
  }
  f.submit(gyre_member("validation", 100, steps, /*priority=*/5));

  farm::JobSpec what_if = gyre_member("wind-what-if", 100, steps);
  what_if.config.wind_tau0 = 0.25;  // a different computation: new hash
  f.submit(what_if);

  farm::JobSpec doomed = gyre_member("fault-sweep", 100, steps);
  doomed.max_restarts = 1;
  for (int epoch = 0; epoch <= doomed.max_restarts + 1; ++epoch) {
    doomed.faults.node_kills.push_back({/*rank=*/1, /*at_us=*/50.0, epoch});
  }
  f.submit(doomed);

  // The same single-kill adversity handled elastically: the survivors
  // adopt rank 1's tile from its durable checkpoint instead of the
  // whole world restarting (ledger: recovery=migrate, migr=1, same KE
  // bits as a failure-free member).
  farm::JobSpec elastic = gyre_member("fault-migrate", 100, steps);
  elastic.recovery = gcm::RecoveryMode::kMigrate;
  elastic.faults.node_kills.push_back({/*rank=*/1, /*at_us=*/50.0,
                                       /*epoch=*/0});
  f.submit(elastic);

  const int probe =
      f.submit(gyre_member("over-capacity-probe", 100, steps));
  std::cout << "over-capacity probe: "
            << farm::to_string(f.job(probe).status) << " ("
            << f.job(probe).error << ")\n\n";

  f.run_until_drained();

  // Wave 2: resubmit the whole bulk ensemble -- every member is served
  // from the result cache for zero additional simulated steps -- plus
  // the probe, which is admitted now that the queue drained (and, being
  // identical to member-0's computation, is itself a cache hit).
  for (int m = 0; m < members; ++m) {
    f.submit(gyre_member("member-" + std::to_string(m) + "-rerun",
                         static_cast<std::uint64_t>(100 + m), steps));
  }
  f.submit(gyre_member("probe-resubmit", 100, steps));
  f.run_until_drained();

  std::cout << "\n" << f.format_summary() << "\n";

  const farm::Farm::CampaignSummary s = f.summary();
  std::cout << "notes:\n"
            << "  validation overtook the bulk sweep (priority 5 vs 0); the\n"
            << "  fault-sweep member exhausted its restart budget and failed\n"
            << "  without wedging the queue; the fault-migrate member\n"
            << "  survived the same kill by live tile migration ("
            << s.migrations << " migration(s)); " << s.cache_hits
            << " duplicate submissions were served from cache, saving "
            << s.steps_saved << " simulated steps.\n"
            << "  rerun this command: the ledger above is byte-identical.\n";
  return 0;
}

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "ensemble_farm: " << e.what() << "\n";
    return 1;
  }
}
