// The paper's headline scenario (Section 5): a coupled ocean-atmosphere
// climate simulation at 2.8125-degree resolution on the full Hyades
// machine -- sixteen two-way SMPs, each isomorph on sixteen processors
// over eight SMPs, boundary conditions exchanged periodically.
//
// Outputs Figure-9-analog fields as PGM images + CSVs (ocean surface
// temperature and current speed; atmospheric zonal-wind level) and
// prints the combined sustained floating-point performance.
//
//   ./coupled_climate [steps] [couple_every] [outdir]
#include <exception>
#include <filesystem>
#include <iostream>
#include <mutex>

#include "cluster/runtime.hpp"
#include "comm/comm.hpp"
#include "gcm/coupler.hpp"
#include "gcm/model.hpp"
#include "gcm/output.hpp"
#include "net/arctic_model.hpp"
#include "support/argparse.hpp"
#include "support/table.hpp"

int run(int argc, char** argv) {
  using namespace hyades;
  constexpr const char* kUsage = "coupled_climate [steps] [couple_every] [outdir]";
  const int steps =
      argc > 1 ? support::checked_int(argv[1], "steps", kUsage) : 24;
  const int couple_every =
      argc > 2 ? support::checked_int(argv[2], "couple_every", kUsage) : 6;
  const std::string outdir = argc > 3 ? argv[3] : "coupled_output";
  std::filesystem::create_directories(outdir);

  // The full cluster: 16 two-way SMPs = 32 processors.
  const net::ArcticModel arctic(16);
  cluster::MachineConfig machine;
  machine.smp_count = 16;
  machine.procs_per_smp = 2;
  machine.interconnect = &arctic;
  cluster::Runtime cluster(machine);

  const int half = machine.nranks() / 2;  // 16 processors per isomorph
  const gcm::ModelConfig ocean_cfg = gcm::ocean_preset(4, 4);
  const gcm::ModelConfig atmos_cfg = gcm::atmosphere_preset(4, 4);

  std::mutex io;
  double ocean_gflops = 0, atmos_gflops = 0;
  cluster.run([&](cluster::RankContext& ctx) {
    const bool ocean_side = ctx.rank() < half;
    comm::Comm comm(ctx, ocean_side ? 0 : half, half);
    gcm::Model model(ocean_side ? ocean_cfg : atmos_cfg, comm);
    model.initialize();
    gcm::Coupler coupler(ctx, /*ocean_base=*/0, /*atmos_base=*/half, half);
    gcm::SurfaceForcing forcing;

    for (int s = 0; s < steps; ++s) {
      if (s % couple_every == 0) coupler.exchange_boundary(model, forcing);
      const gcm::StepStats st = model.step(&forcing);
      if (!st.cg_converged) {
        throw std::runtime_error("pressure solver failed to converge");
      }
    }

    // Component diagnostics + Figure-9-analog output fields.
    const double ke = model.kinetic_energy();
    const double mt = model.mean_theta();
    const auto theta = model.gather_theta(ocean_side ? 0 : 2);
    const auto speed = model.gather_speed(ocean_side ? 0 : 2);
    const double rank_gflops =
        ctx.accounting().flops / std::max(ctx.clock().now(), 1.0) / 1.0e3;

    std::lock_guard<std::mutex> lock(io);
    (ocean_side ? ocean_gflops : atmos_gflops) += rank_gflops;
    if (comm.group_rank() == 0) {
      const char* name = ocean_side ? "ocean" : "atmosphere";
      std::cout << name << ": " << steps << " steps, mean theta "
                << Table::fmt(mt, 2) << (ocean_side ? " degC" : " K")
                << ", KE " << Table::fmt(ke, 3) << " J, Ni ~ "
                << Table::fmt(model.stepper().observables().mean_ni(), 1)
                << ", virtual time "
                << Table::fmt(us_to_seconds(ctx.clock().now()), 2) << " s\n";
      gcm::write_pgm(outdir + "/" + name + "_theta.pgm", theta);
      gcm::write_csv(outdir + "/" + name + "_theta.csv", theta);
      gcm::write_pgm(outdir + "/" + name + "_speed.pgm", speed);
      gcm::write_csv(outdir + "/" + name + "_speed.csv", speed);
      std::cout << name << " surface fields written to " << outdir << "/"
                << name << "_{theta,speed}.{pgm,csv}\n";
    }
  });

  std::cout << "\nsustained combined floating-point performance: "
            << Table::fmt(ocean_gflops + atmos_gflops, 2)
            << " GFlop/s (paper production runs: 1.6-1.8 GFlop/s with the "
               "full-physics kernel; see bench_fig10_sustained)\n";
  std::cout << "turn-around reading (Section 6): on a dedicated personal "
               "supercomputer the turn-around time IS the CPU time.\n";
  return 0;
}

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "coupled_climate: " << e.what() << "\n";
    return 1;
  }
}
