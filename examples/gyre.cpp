// Wind-driven ocean gyres in a closed basin -- the classic test problem
// for ocean general circulation dynamics, run on the Hyades cluster
// model.  A meridional land strip closes the periodic channel; the
// banded zonal wind stress then spins up subtropical/subpolar gyres with
// a western intensification (the Gulf-Stream-like boundary current that
// makes this a nontrivial exercise of masks, walls and the elliptic
// solver in a multiply-bounded domain).
//
//   ./gyre [steps] [outdir] [--trace out.trace.json]
#include <exception>
#include <filesystem>
#include <iostream>
#include <mutex>
#include <vector>

#include "cluster/report.hpp"
#include "cluster/runtime.hpp"
#include "cluster/trace.hpp"
#include "comm/comm.hpp"
#include "gcm/model.hpp"
#include "gcm/output.hpp"
#include "net/arctic_model.hpp"
#include "support/argparse.hpp"
#include "support/table.hpp"

int run(int argc, char** argv) {
  using namespace hyades;
  constexpr const char* kUsage = "gyre [steps] [outdir] [--trace out.trace.json]";
  int steps = 2160;  // ~2 months
  std::string outdir = "gyre_output";
  const char* trace_out = nullptr;
  int positional = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--trace" && i + 1 < argc) {
      trace_out = argv[++i];
    } else if (positional++ == 0) {
      steps = support::checked_int(argv[i], "steps", kUsage);
    } else {
      outdir = argv[i];
    }
  }
  std::filesystem::create_directories(outdir);

  const net::ArcticModel arctic;
  cluster::MachineConfig machine;
  machine.smp_count = 8;
  machine.procs_per_smp = 2;
  machine.interconnect = &arctic;
  cluster::Runtime cluster(machine);

  gcm::ModelConfig cfg = gcm::ocean_preset(4, 4);
  cfg.nz = 8;  // a lighter vertical grid -- the gyre is mostly barotropic
  cfg.topography = gcm::ModelConfig::Topography::kBasin;
  cfg.wind_tau0 = 0.15;
  cfg.dt = 2400.0;     // the spin-up takes simulated months
  cfg.visc_h = 8.0e5;  // resolve the Munk layer at 2.8 degrees
  cfg.validate();

  std::mutex io;
  std::vector<cluster::Tracer> tracers(
      trace_out ? static_cast<std::size_t>(machine.nranks()) : 0);
  cluster.run([&](cluster::RankContext& ctx) {
    if (trace_out != nullptr) {
      ctx.set_tracer(&tracers[static_cast<std::size_t>(ctx.rank())]);
    }
    comm::Comm comm(ctx);
    gcm::Model model(cfg, comm);
    model.initialize();
    for (int s = 0; s < steps; ++s) {
      const gcm::StepStats st = model.step();
      if (!st.cg_converged) {
        throw std::runtime_error("pressure solver failed to converge");
      }
      if ((s + 1) % (steps / 4) == 0) {
        const double ke = model.kinetic_energy();
        if (comm.group_rank() == 0) {
          std::lock_guard<std::mutex> lock(io);
          std::cout << "step " << (s + 1) << ": KE = " << Table::fmt(ke, 3)
                    << " J (spinning up)\n";
        }
      }
    }
    const auto speed = model.gather_speed(0);
    const auto ps = model.gather_ps();
    if (comm.group_rank() == 0) {
      std::lock_guard<std::mutex> lock(io);
      // Western intensification check: the fastest surface currents
      // should hug the basin's western wall (low-i side of the interior).
      std::size_t fastest_i = 0;
      double fastest = 0.0;
      for (std::size_t i = 0; i < speed.nx(); ++i) {
        for (std::size_t j = 0; j < speed.ny(); ++j) {
          if (speed(i, j) > fastest) {
            fastest = speed(i, j);
            fastest_i = i;
          }
        }
      }
      std::cout << "\npeak surface current " << Table::fmt(fastest, 3)
                << " m/s at i = " << fastest_i << " of " << speed.nx()
                << " (basin interior starts near i ~ "
                << static_cast<int>(0.06 * static_cast<double>(speed.nx()))
                << ": western "
                << "boundary current)\n";
      std::cout << "\nsurface current speed:\n" << gcm::ascii_map(speed);
      gcm::write_pgm(outdir + "/gyre_speed.pgm", speed);
      gcm::write_pgm(outdir + "/gyre_ps.pgm", ps);
      gcm::write_csv(outdir + "/gyre_speed.csv", speed);
      std::cout << "fields written to " << outdir << "/\n";
    }
  });

  if (trace_out != nullptr) {
    std::vector<const cluster::Tracer*> ptrs;
    ptrs.reserve(tracers.size());
    for (const auto& t : tracers) ptrs.push_back(&t);
    cluster::write_trace_json(trace_out, ptrs, machine.procs_per_smp);
    std::cout << "\nwrote Chrome trace (ui.perfetto.dev): " << trace_out
              << "\n";
    print_wait_attribution(
        std::cout, cluster::wait_attribution(ptrs, cluster.accounting()),
        static_cast<double>(steps));
  }
  return 0;
}

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "gyre: " << e.what() << "\n";
    return 1;
  }
}
