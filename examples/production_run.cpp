// Production-run workflow: periodic checkpoints, restart, and a
// virtual-time communication trace -- the operational features a
// dedicated "personal supercomputer" runs with (Section 6: the machine
// is dedicated to a single research endeavor, so runs span weeks and
// must survive interruptions).
//
//   ./production_run [segments] [steps_per_segment] [outdir]
//
// Each segment restarts from the previous segment's checkpoint, exactly
// as a queue of week-long jobs would, and the final segment writes a
// per-rank timeline CSV of ps/ds phases, exchanges and global sums.
//
// For the *campaign* version of this pattern -- many queued jobs with
// priorities, a cluster pool, and result dedup -- see ensemble_farm.
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
#include "net/arctic_model.hpp"
#include "support/argparse.hpp"
#include "support/table.hpp"

int run(int argc, char** argv) {
  using namespace hyades;
  constexpr const char* kUsage =
      "production_run [segments] [steps_per_segment] [outdir]";
  const int segments =
      argc > 1 ? support::checked_int(argv[1], "segments", kUsage) : 3;
  const int steps =
      argc > 2 ? support::checked_int(argv[2], "steps_per_segment", kUsage) : 8;
  const std::string outdir = argc > 3 ? argv[3] : "production_output";
  std::filesystem::create_directories(outdir);
  const std::string ckpt = outdir + "/checkpoint";

  const net::ArcticModel arctic;
  cluster::MachineConfig machine;
  machine.smp_count = 8;
  machine.procs_per_smp = 2;
  machine.interconnect = &arctic;

  const gcm::ModelConfig cfg = gcm::ocean_preset(4, 4);

  for (int seg = 0; seg < segments; ++seg) {
    // A fresh Runtime per segment: each one stands in for a separate
    // job launch on the dedicated machine.
    cluster::Runtime cluster(machine);
    std::mutex io;
    std::vector<cluster::Tracer> tracers(
        static_cast<std::size_t>(machine.nranks()));
    cluster.run([&](cluster::RankContext& ctx) {
      ctx.set_tracer(&tracers[static_cast<std::size_t>(ctx.rank())]);
      comm::Comm comm(ctx);
      gcm::Model model(cfg, comm);
      if (seg == 0) {
        model.initialize();
      } else {
        model.load_checkpoint(ckpt);
      }
      for (int s = 0; s < steps; ++s) {
        if (!model.step().cg_converged) {
          throw std::runtime_error("solver failed");
        }
      }
      model.save_checkpoint(ckpt);
      const double ke = model.kinetic_energy();
      if (comm.group_rank() == 0) {
        std::lock_guard<std::mutex> lock(io);
        std::cout << "segment " << seg << ": resumed at step "
                  << model.state().step - steps << ", ran " << steps
                  << " steps, KE = " << Table::fmt(ke, 3)
                  << " J, exchange time "
                  << Table::fmt(
                         tracers[static_cast<std::size_t>(ctx.rank())].total(
                             "exchange") /
                             1000.0,
                         1)
                  << " ms, gsum time "
                  << Table::fmt(
                         tracers[static_cast<std::size_t>(ctx.rank())].total(
                             "gsum") /
                             1000.0,
                         1)
                  << " ms\n";
      }
    });
    if (seg + 1 == segments) {
      std::vector<const cluster::Tracer*> ptrs;
      ptrs.reserve(tracers.size());
      for (const auto& t : tracers) ptrs.push_back(&t);
      cluster::write_trace_csv(outdir + "/timeline.csv", ptrs);
      cluster::write_trace_json(outdir + "/timeline.trace.json", ptrs,
                                machine.procs_per_smp);
      std::cout << "virtual-time comm timeline written to " << outdir
                << "/timeline.csv ("
                << tracers[0].events().size() * tracers.size()
                << "-ish events) and " << outdir
                << "/timeline.trace.json (Perfetto / chrome://tracing)\n";
      print_wait_attribution(
          std::cout,
          cluster::wait_attribution(ptrs, cluster.accounting()),
          static_cast<double>(steps));
    }
  }
  std::cout << "checkpoints in " << outdir << "/checkpoint.rank*\n";
  return 0;
}

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "production_run: " << e.what() << "\n";
    return 1;
  }
}
