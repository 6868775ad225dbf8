// Ablation: compute/communication overlap in the PS phase
// (ModelConfig::overlap_comm).  The split-phase comm core posts all five
// 3-D exchanges, computes the tile-interior tendencies while the strips
// are in flight, then completes the exchanges and computes the halo rim.
// The numerics are bitwise identical either way; only the timing moves.
//
// Two questions, per interconnect and tile size:
//   1. How much PS wall time does overlap recover?  (It should matter
//      most on Fast Ethernet, whose exchange dwarfs the interior
//      compute, and least on Arctic, whose exchange is already cheap.)
//   2. Does the perf model's overlap term,
//          T_exch_effective = max(t_cpu_floor, t_exch - t_interior),
//      predict the simulated overlapped PS from measured primitives --
//      the paper's Section 5.3 methodology?
#include <deque>
#include <iostream>
#include <mutex>
#include <vector>

#include "bench/bench_util.hpp"
#include "cluster/runtime.hpp"
#include "comm/comm.hpp"
#include "gcm/halo.hpp"
#include "gcm/model.hpp"
#include "net/arctic_model.hpp"
#include "net/ethernet.hpp"
#include "perf/perf_model.hpp"
#include "support/table.hpp"

namespace {

using namespace hyades;

constexpr int kSmps = 8;
constexpr int kPpp = 2;
constexpr int kNz = 10;
constexpr int kSteps = 2;

gcm::ModelConfig make_cfg(int nx, int ny, bool overlap) {
  gcm::ModelConfig cfg;
  cfg.isomorph = gcm::Isomorph::kOcean;
  cfg.nx = nx;
  cfg.ny = ny;
  cfg.nz = kNz;
  cfg.px = 4;
  cfg.py = 4;
  cfg.halo = 2;
  cfg.dt = 400.0;
  cfg.visc_h = 1.0e6;
  cfg.diff_h = 1.0e5;
  cfg.cg_tol = 1.0e-5;
  cfg.cg_max_iter = 50;
  cfg.topography = gcm::ModelConfig::Topography::kRidge;
  cfg.overlap_comm = overlap;
  cfg.validate();
  return cfg;
}

struct PsTimes {
  double tps = 0, exch = 0, interior = 0, hidden = 0;
};

// Mean per-step PS times of the busiest rank.
PsTimes model_ps(const net::Interconnect& net, int nx, int ny, bool overlap) {
  cluster::MachineConfig mc;
  mc.smp_count = kSmps;
  mc.procs_per_smp = kPpp;
  mc.interconnect = &net;
  cluster::Runtime rt(mc);
  const gcm::ModelConfig cfg = make_cfg(nx, ny, overlap);
  PsTimes out;
  std::mutex mu;
  rt.run([&](cluster::RankContext& ctx) {
    comm::Comm comm(ctx);
    gcm::Model m(cfg, comm);
    m.initialize();
    m.run(kSteps);
    const gcm::PerfObservables& o = m.stepper().observables();
    std::lock_guard<std::mutex> lock(mu);
    const double tps = o.tps_us / kSteps;
    if (tps > out.tps) {
      out.tps = tps;
      out.exch = o.tps_exch_us / kSteps;
      out.interior = o.tps_interior_us / kSteps;
      out.hidden = o.overlap_us / kSteps;
    }
  });
  return out;
}

// Cost of the split-phase five-field exchange pattern itself, with a
// compute filler of `filler_us` between the posts and the completion
// (0: the full pipelined cost t_exch; huge: the un-hideable CPU floor).
double pipelined_exchange_cost(const net::Interconnect& net, int nx, int ny,
                               double filler_us) {
  cluster::MachineConfig mc;
  mc.smp_count = kSmps;
  mc.procs_per_smp = kPpp;
  mc.interconnect = &net;
  cluster::Runtime rt(mc);
  const gcm::ModelConfig cfg = make_cfg(nx, ny, true);
  constexpr int kFields = 5;
  constexpr int kReps = 4;
  rt.run([&](cluster::RankContext& ctx) {
    comm::Comm comm(ctx);
    const gcm::Decomp dec(cfg, comm.group_rank());
    std::vector<Array3D<double>> f(
        kFields, Array3D<double>(static_cast<std::size_t>(dec.ext_x()),
                                 static_cast<std::size_t>(dec.ext_y()),
                                 static_cast<std::size_t>(kNz), 1.0));
    for (int rep = 0; rep < kReps; ++rep) {
      std::deque<gcm::HaloExchange3> hx;
      for (auto& fld : f) hx.emplace_back(comm, dec, fld, cfg.halo);
      for (auto& x : hx) x.start();
      if (filler_us > 0) {
        ctx.compute(filler_us * cfg.fps_mflops, cfg.fps_mflops);
      }
      for (auto& x : hx) x.progress();
      for (auto& x : hx) x.finish();
    }
  });
  return rt.max_clock() / kReps - filler_us;
}

}  // namespace

int main() {
  bench::banner("Ablation: split-phase PS exchange, compute overlapped");

  const net::ArcticModel arctic;
  const net::EthernetModel ge = net::gigabit_ethernet();
  const net::EthernetModel fe = net::fast_ethernet();
  struct Net {
    const char* name;
    const net::Interconnect* net;
  };
  const Net nets[] = {{"Arctic", &arctic},
                      {"Gigabit Ethernet", &ge},
                      {"Fast Ethernet", &fe}};
  const std::pair<int, int> sizes[] = {{32, 16}, {64, 32}, {128, 64}};

  for (const Net& n : nets) {
    Table t({"tile", "PS off (us)", "PS on (us)", "speedup", "hidden/step",
             "model (us)", "err"});
    for (const auto& [nx, ny] : sizes) {
      const PsTimes off = model_ps(*n.net, nx, ny, false);
      const PsTimes on = model_ps(*n.net, nx, ny, true);
      const double t_pipe = pipelined_exchange_cost(*n.net, nx, ny, 0.0);
      const double t_floor =
          pipelined_exchange_cost(*n.net, nx, ny, 4.0e6);

      // Section 5.3 methodology: feed measured primitives into the
      // analytic form and compare against the simulated overlapped run.
      perf::PhaseParams p;
      p.nps = off.tps - off.exch;  // measured PS compute time
      p.nxyz = 1.0;
      p.fps_mflops = 1.0;  // so tps_compute(p) == p.nps
      p.texchxyz = t_pipe / 5.0;
      const double pred = perf::tps_overlap(p, on.interior, t_floor);
      const double err = (pred - on.tps) / on.tps;

      t.add_row({Table::fmt(nx / 4, 0) + "x" + Table::fmt(ny / 4, 0) + "x" +
                     Table::fmt(kNz, 0),
                 Table::fmt(off.tps, 0), Table::fmt(on.tps, 0),
                 Table::fmt(off.tps / on.tps, 2) + "x",
                 Table::fmt(on.hidden, 0), Table::fmt(pred, 0),
                 Table::fmt(100.0 * err, 1) + "%"});
    }
    t.print(std::cout, std::string(n.name) +
                           ", ocean isomorph, 16 procs / 8 SMPs, busiest "
                           "rank, per step");
  }

  std::cout
      << "\nreading: overlap buys little on Arctic, whose exchange is "
         "mostly hidden already by its low per-transfer overhead, and "
         "the most on Fast Ethernet, where the five exchanges dominate "
         "the PS -- there, posting all strips up front both pipelines "
         "the transfers and hides them under the interior tendencies.  "
         "The model's overlap term max(t_cpu_floor, t_exch - t_interior) "
         "tracks the simulated runs from measured primitives alone "
         "(Section 5.3 methodology).\n";
  return 0;
}
