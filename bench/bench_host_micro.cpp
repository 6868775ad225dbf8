// Host-side microbenchmarks (google-benchmark): throughput of the
// simulator substrate itself -- event scheduling, packet routing through
// the fat tree, hand-offs between rank threads and between rank fibers
// on one CPU, CG operator application,
// the line preconditioner, a whole CG solve and the tracer kernel on an
// ocean tile, and a full GCM model step.
// These guard the *reproduction's* performance, not the paper's numbers.
#include <benchmark/benchmark.h>

#include <stdexcept>
#include <vector>

#include "arctic/fabric.hpp"
#include "cluster/runtime.hpp"
#include "comm/comm.hpp"
#include "gcm/cg.hpp"
#include "gcm/halo.hpp"
#include "gcm/kernels.hpp"
#include "gcm/model.hpp"
#include "net/arctic_model.hpp"
#include "sim/scheduler.hpp"
#include "support/host_pool.hpp"

namespace {

using namespace hyades;

void BM_SchedulerEventChurn(benchmark::State& state) {
  for (auto _ : state) {
    sim::Scheduler sched;
    int count = 0;
    for (int i = 0; i < 1000; ++i) {
      sched.schedule_at(sim::from_us(i % 97), [&count] { ++count; });
    }
    sched.run();
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_SchedulerEventChurn);

void BM_FabricAllPairs(benchmark::State& state) {
  const auto endpoints = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Scheduler sched;
    arctic::Fabric fabric(sched, endpoints);
    int delivered = 0;
    fabric.set_delivery_handler(
        [&delivered](int, arctic::Packet&&) { ++delivered; });
    for (int s = 0; s < endpoints; ++s) {
      for (int d = 0; d < endpoints; ++d) {
        if (s == d) continue;
        arctic::Packet p;
        p.payload = {1u, 2u};
        fabric.inject(s, d, std::move(p));
      }
    }
    sched.run();
    benchmark::DoNotOptimize(delivered);
  }
  state.SetItemsProcessed(state.iterations() * endpoints * (endpoints - 1));
}
BENCHMARK(BM_FabricAllPairs)->Arg(16)->Arg(64);

cluster::MachineConfig machine(const net::Interconnect& net, int smps,
                               int ppp) {
  cluster::MachineConfig mc;
  mc.smp_count = smps;
  mc.procs_per_smp = ppp;
  mc.interconnect = &net;
  return mc;
}

// Host cost of a rank hand-off: two rank threads on one SMP bounce a
// one-word message 1000 times.  Every receive waits for the partner, so
// this is the bus's wait and wake path (MessageBus::recv), not its copy.
void BM_RankPingPong(benchmark::State& state) {
  constexpr int kRoundTrips = 1000;
  const net::ArcticModel net;
  cluster::Runtime rt(machine(net, 1, 2));
  for (auto _ : state) {
    rt.run([](cluster::RankContext& ctx) {
      const int peer = 1 - ctx.rank();
      for (int i = 0; i < kRoundTrips; ++i) {
        if (ctx.rank() == 0) {
          ctx.send_raw(peer, 1, {static_cast<double>(i)}, 0.0);
          if (ctx.recv_raw(peer, 2).data.at(0) != i) {
            throw std::runtime_error("ping-pong: wrong reply");
          }
        } else {
          ctx.send_raw(peer, 2, ctx.recv_raw(peer, 1).data, 0.0);
        }
      }
    });
  }
  state.SetItemsProcessed(state.iterations() * kRoundTrips);
}
BENCHMARK(BM_RankPingPong)->Unit(benchmark::kMillisecond)->UseRealTime();

// The benchmark thread confined to its first allowed CPU for the run:
// Runtime::run then takes the fiber path, every rank a fiber on this
// thread and every hand-off a switch between them.
std::vector<int> first_cpu() { return {support::allowed_cpus().front()}; }

void BM_RankPingPongOneCpu(benchmark::State& state) {
  const support::CpuConfinement one(first_cpu());
  BM_RankPingPong(state);
}
BENCHMARK(BM_RankPingPongOneCpu)->Unit(benchmark::kMillisecond)->UseRealTime();

// Host cost of the flagship's reduction: 100 blocking global sums over
// 16 two-way SMPs, 32 rank threads (butterfly messages between SMPs,
// SMP barrier crossings within them).
void BM_GlobalSum32(benchmark::State& state) {
  constexpr int kSums = 100;
  const net::ArcticModel net;
  cluster::Runtime rt(machine(net, 16, 2));
  for (auto _ : state) {
    rt.run([](cluster::RankContext& ctx) {
      comm::Comm comm(ctx);
      double total = 0;
      for (int i = 0; i < kSums; ++i) total += comm.global_sum(1.0);
      if (total != kSums * comm.group_size()) {
        throw std::runtime_error("global sum: wrong total");
      }
    });
  }
  state.SetItemsProcessed(state.iterations() * kSums);
}
BENCHMARK(BM_GlobalSum32)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_GlobalSum32OneCpu(benchmark::State& state) {
  const support::CpuConfinement one(first_cpu());
  BM_GlobalSum32(state);
}
BENCHMARK(BM_GlobalSum32OneCpu)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_EllipticApply(benchmark::State& state) {
  gcm::ModelConfig cfg = gcm::ocean_preset(1, 1);
  cfg.topography = gcm::ModelConfig::Topography::kFlat;
  const gcm::Decomp dec(cfg, 0);
  const gcm::TileGrid grid(cfg, dec);
  const gcm::EllipticOperator op(cfg, dec, grid);
  Array2D<double> p(static_cast<std::size_t>(dec.ext_x()),
                    static_cast<std::size_t>(dec.ext_y()), 1.0);
  Array2D<double> out = p;
  for (auto _ : state) {
    benchmark::DoNotOptimize(op.apply(p, out));
  }
  state.SetItemsProcessed(state.iterations() * cfg.nx * cfg.ny);
}
BENCHMARK(BM_EllipticApply);

// The ocean preset's 128x64x30 tile (continents) on one rank, after two
// steps: the state the tile kernels see in a run.
struct OceanTile {
  gcm::ModelConfig cfg = gcm::ocean_preset(1, 1);
  gcm::Decomp dec{cfg, 0};
  gcm::TileGrid grid{cfg, dec};
  gcm::State state;

  OceanTile() {
    const net::ArcticModel net;
    cluster::Runtime rt(machine(net, 1, 1));
    rt.run([&](cluster::RankContext& ctx) {
      comm::Comm comm(ctx);
      gcm::Model m(cfg, comm);
      m.initialize();
      (void)m.step();
      (void)m.step();
      state = m.state();
    });
  }
};

const OceanTile& ocean_tile() {
  static const OceanTile tile;
  return tile;
}

void BM_Precondition(benchmark::State& state) {
  const OceanTile& t = ocean_tile();
  const gcm::EllipticOperator op(t.cfg, t.dec, t.grid);
  Array2D<double> r(t.state.ps.nx(), t.state.ps.ny(), 0.0);
  Array2D<double> z = r;
  (void)op.apply(t.state.ps, r);  // a residual shaped like the solver's
  for (auto _ : state) {
    benchmark::DoNotOptimize(op.precondition(r, z));
    benchmark::DoNotOptimize(z.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * t.dec.snx * t.dec.sny);
}
BENCHMARK(BM_Precondition);

// One DS solve on the ocean tile, as the time-stepper makes it: b is the
// tile's -div(H u) (compatible: it sums to zero over the closed basin),
// solved from p = 0 to the preset's tolerance on one rank.  Reported
// per CG iteration (`s_per_iter`), which is what a kernel change moves;
// the iteration count is fixed by the bits, so a change to it is a bug.
void BM_CgSolveTile(benchmark::State& state) {
  const OceanTile& t = ocean_tile();
  const gcm::EllipticOperator op(t.cfg, t.dec, t.grid);
  Array2D<double> b(t.state.ps.nx(), t.state.ps.ny(), 0.0);
  (void)gcm::kernels::ps_rhs(t.cfg, t.grid, t.state.u, t.state.v, b,
                             gcm::kernels::extended(t.dec, 0));
  for (double& x : b) x = -x;
  const net::ArcticModel net;
  cluster::Runtime rt(machine(net, 1, 1));
  int iters = 0;
  rt.run([&](cluster::RankContext& ctx) {
    comm::Comm comm(ctx);
    Array2D<double> p = b;
    for (auto _ : state) {
      state.PauseTiming();
      p.fill(0.0);
      state.ResumeTiming();
      const gcm::CgResult res =
          gcm::cg_solve(comm, t.dec, op, b, p, t.cfg.cg_tol, t.cfg.cg_max_iter);
      iters = res.iterations;
      benchmark::DoNotOptimize(p.data());
    }
  });
  state.counters["cg_iters"] = iters;
  state.counters["s_per_iter"] = benchmark::Counter(
      static_cast<double>(iters),
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
}
BENCHMARK(BM_CgSolveTile)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_TracerTendency(benchmark::State& state) {
  // DST-3 tracer tendency over the step's window, as Timestepper::step
  // calls it under implicit vertical mixing.
  const OceanTile& t = ocean_tile();
  const gcm::State& s = t.state;
  const gcm::kernels::Range r1 = gcm::kernels::extended(t.dec, 1);
  Array3D<double> gt = s.gt;
  for (auto _ : state) {
    benchmark::DoNotOptimize(gcm::kernels::tracer_tendency(
        t.cfg, t.grid, s.u, s.v, s.w, s.theta, gt, t.cfg.diff_h, 0.0, r1));
    benchmark::DoNotOptimize(gt.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * (r1.i1 - r1.i0) *
                          (r1.j1 - r1.j0) * t.cfg.nz);
}
BENCHMARK(BM_TracerTendency)->Unit(benchmark::kMillisecond);

void BM_ModelStepSingleTile(benchmark::State& state) {
  // Host cost of one full 128x64x10 atmosphere step on one tile (no
  // threading): the dominant real-time cost of the reproduction.
  const net::ArcticModel net;
  gcm::ModelConfig cfg = gcm::atmosphere_preset(1, 1);
  for (auto _ : state) {
    state.PauseTiming();
    cluster::Runtime rt(machine(net, 1, 1));
    state.ResumeTiming();
    rt.run([&](cluster::RankContext& ctx) {
      comm::Comm comm(ctx);
      gcm::Model m(cfg, comm);
      m.initialize();
      (void)m.step();
    });
  }
  state.SetItemsProcessed(state.iterations() * cfg.nx * cfg.ny * cfg.nz);
}
BENCHMARK(BM_ModelStepSingleTile)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
