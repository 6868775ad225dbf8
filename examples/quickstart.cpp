// Quickstart: the smallest useful Hyades program.
//
// Builds a 4-SMP virtual cluster on the Arctic interconnect model, runs
// a coarse wind-driven ocean for a simulated day, and prints global
// diagnostics plus an ASCII map of the sea-surface temperature.
//
//   ./quickstart [steps] [--trace out.trace.json]
#include <exception>
#include <iostream>
#include <mutex>
#include <string>
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
  constexpr const char* kUsage = "quickstart [steps] [--trace out.trace.json]";
  int steps = 216;  // ~1 day at dt=400s
  const char* trace_out = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--trace" && i + 1 < argc) {
      trace_out = argv[++i];
    } else {
      steps = support::checked_int(argv[i], "steps", kUsage);
    }
  }

  // 1. Describe the machine: 4 SMPs, one processor each, Arctic fabric.
  const net::ArcticModel arctic;
  cluster::MachineConfig machine;
  machine.smp_count = 4;
  machine.procs_per_smp = 1;
  machine.interconnect = &arctic;
  cluster::Runtime cluster(machine);

  // 2. Describe the model: a 32x16x5 ocean box, one tile per rank.
  gcm::ModelConfig cfg;
  cfg.isomorph = gcm::Isomorph::kOcean;
  cfg.nx = 32;
  cfg.ny = 16;
  cfg.nz = 5;
  cfg.px = 2;
  cfg.py = 2;
  cfg.halo = 2;
  cfg.dt = 400.0;
  cfg.visc_h = 5.0e5;
  cfg.diff_h = 5.0e4;
  cfg.validate();

  // 3. Run: every rank executes the same program (SPMD).
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
    }
    // Collective diagnostics: identical on every rank.
    const double ke = model.kinetic_energy();
    const double sst = model.mean_theta();
    const double cfl = model.max_cfl();
    const double div = model.max_surface_divergence();
    const auto field = model.gather_theta(0);

    if (comm.group_rank() == 0) {
      std::lock_guard<std::mutex> lock(io);
      std::cout << "ran " << steps << " steps (" << steps * cfg.dt / 3600.0
                << " simulated hours) on " << ctx.nranks() << " processors\n";
      Table t({"diagnostic", "value"});
      t.add_row({"kinetic energy (J)", Table::fmt(ke, 3)});
      t.add_row({"mean temperature (degC)", Table::fmt(sst, 4)});
      t.add_row({"max CFL", Table::fmt(cfl, 4)});
      t.add_row({"max residual divergence (1/s)", Table::fmt(div, 12)});
      t.add_row({"virtual wall clock (s)",
                 Table::fmt(us_to_seconds(ctx.clock().now()), 3)});
      t.print(std::cout);
      std::cout << "\nsea-surface temperature:\n"
                << gcm::ascii_map(field, 64, 16);
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
    std::cerr << "quickstart: " << e.what() << "\n";
    return 1;
  }
}
