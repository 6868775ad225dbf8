#include "probes.hpp"

#include <barrier>
#include <cstring>
#include <filesystem>
#include <functional>
#include <mutex>
#include <stdexcept>

#include "cluster/runtime.hpp"
#include "comm/comm.hpp"
#include "gcm/decomp.hpp"
#include "gcm/elliptic.hpp"
#include "gcm/grid.hpp"
#include "gcm/kernels.hpp"
#include "gcm/state.hpp"
#include "gcm/tile_ckpt.hpp"
#include "net/arctic_model.hpp"
#include "support/rng.hpp"

namespace perfbench {

using namespace hyades;

namespace {

// Plausible prognostic values (currents ~0.1 m/s, tracers around their
// reference) so value-dependent branches such as DST-3 upwinding take
// both sides; land cells are masked by the grid whatever they hold.
void fill_state(const gcm::ModelConfig& cfg, std::uint64_t seed,
                gcm::State& s) {
  SplitMix64 rng(seed);
  const auto fill = [&](Array3D<double>& a, double lo, double hi) {
    for (std::size_t i = 0; i < a.size(); ++i) a.data()[i] = rng.next_in(lo, hi);
  };
  fill(s.u, -0.1, 0.1);
  fill(s.v, -0.1, 0.1);
  fill(s.w, -1e-5, 1e-5);
  fill(s.theta, cfg.theta0 - 5.0, cfg.theta0 + 5.0);
  fill(s.salt, cfg.salt0 * 0.98, cfg.salt0 * 1.02);
  fill(s.phi, -1.0, 1.0);
}

cluster::MachineConfig machine(const net::ArcticModel& arctic, int smps,
                               int ppp) {
  cluster::MachineConfig mc;
  mc.smp_count = smps;
  mc.procs_per_smp = ppp;
  mc.interconnect = &arctic;
  return mc;
}

}  // namespace

CommProbe probe_comm(const GcmSpec& spec, int reps) {
  const int n = spec.nranks();
  const net::ArcticModel arctic(spec.smp_count);
  cluster::Runtime rt(machine(arctic, spec.smp_count, spec.procs_per_smp));
  std::barrier<> sync(n);
  std::mutex mu;
  std::vector<double> gsum_us, xchg_us, xchg2_us, bar_us;
  Usage u0, u1;

  rt.run([&](cluster::RankContext& ctx) {
    const Component& comp = spec.components[spec.component_index(ctx.rank())];
    comm::Comm comm(ctx, comp.rank_base, comp.nranks);
    const gcm::Decomp dec(comp.cfg, comm.group_rank());
    const auto h = static_cast<std::size_t>(dec.halo);
    const auto nz = static_cast<std::size_t>(comp.cfg.nz);
    const std::size_t ew = h * static_cast<std::size_t>(dec.sny) * nz;
    const std::size_t ns = h * static_cast<std::size_t>(dec.ext_x()) * nz;
    // Halo strips of a 3-D state field, and the one-cell 2-D strips the
    // CG solver exchanges.
    comm::Buffers buf, buf2;
    for (int d = 0; d < comm::kDirections; ++d) {
      const auto dd = static_cast<std::size_t>(d);
      if (dec.neighbors[dd] < 0) continue;
      const std::size_t len = d < comm::kNorth ? ew : ns;
      buf.out[dd].assign(len, 1.0);
      buf.in[dd].assign(len, 0.0);
      const std::size_t len2 = d < comm::kNorth
                                   ? static_cast<std::size_t>(dec.sny)
                                   : static_cast<std::size_t>(dec.snx + 2);
      buf2.out[dd].assign(len2, 1.0);
      buf2.in[dd].assign(len2, 0.0);
    }
    std::vector<double> g, x, x2, b;
    const auto timed = [&](std::vector<double>& out, auto&& call) {
      for (int i = 0; i < reps; ++i) {
        const double t = host_now_s();
        call();
        out.push_back((host_now_s() - t) * 1e6);
      }
    };
    const bool lead = ctx.rank() == 0;
    sync.arrive_and_wait();
    if (lead) u0 = usage_self();
    sync.arrive_and_wait();
    double acc = 0;
    timed(g, [&] { acc += comm.global_sum(1.0); });
    sync.arrive_and_wait();
    if (lead) u1 = usage_self();
    timed(x, [&] { comm.exchange(dec.neighbors, buf); });
    timed(x2, [&] { comm.exchange(dec.neighbors, buf2); });
    timed(b, [&] { comm.barrier(); });
    if (acc != static_cast<double>(reps) * comp.nranks) {
      throw std::runtime_error("comm probe: global sum returned a wrong total");
    }
    std::lock_guard<std::mutex> lock(mu);
    gsum_us.insert(gsum_us.end(), g.begin(), g.end());
    xchg_us.insert(xchg_us.end(), x.begin(), x.end());
    xchg2_us.insert(xchg2_us.end(), x2.begin(), x2.end());
    bar_us.insert(bar_us.end(), b.begin(), b.end());
  });

  CommProbe p;
  p.gsum_us = summarize(gsum_us);
  p.exchange_us = summarize(xchg_us);
  p.exchange2d_us = summarize(xchg2_us);
  p.barrier_us = summarize(bar_us);
  p.vcsw_per_gsum = static_cast<double>((u1 - u0).vcsw) / reps;
  return p;
}

std::vector<KernelStat> probe_kernels(const gcm::ModelConfig& cfg,
                                      std::uint64_t seed, double budget_s) {
  const gcm::Decomp dec(cfg, 0);
  const gcm::TileGrid grid(cfg, dec);
  gcm::State st;
  st.allocate(dec, cfg.nz);
  fill_state(cfg, seed, st);
  const gcm::EllipticOperator op(cfg, dec, grid);
  const auto ex = static_cast<std::size_t>(dec.ext_x());
  const auto ey = static_cast<std::size_t>(dec.ext_y());
  Array2D<double> p(ex, ey, 0.0), out(ex, ey, 0.0), z(ex, ey, 0.0);
  SplitMix64 rng(seed ^ 0x5bd1e995u);
  for (std::size_t i = 0; i < p.size(); ++i) p.data()[i] = rng.next_in(-1, 1);

  // Same windows as Timestepper::step: hydrostatics over the 2-cell
  // extension, tendencies over the 1-cell one, DS over the interior.
  const gcm::kernels::Range r2 = gcm::kernels::extended(dec, 2);
  const gcm::kernels::Range r1 = gcm::kernels::extended(dec, 1);
  const auto cells = [](const gcm::kernels::Range& r) {
    return static_cast<double>(r.i1 - r.i0) * (r.j1 - r.j0);
  };
  const double nz = cfg.nz;
  const double interior = static_cast<double>(dec.snx) * dec.sny;
  const double kv = cfg.implicit_vertical_mixing ? 0.0 : cfg.diff_v;
  const double av = cfg.implicit_vertical_mixing ? 0.0 : cfg.visc_v;

  struct Case {
    const char* name;
    double arrays;  // arrays read or written, each over `points`
    double points;
    std::function<double()> call;
  };
  const std::vector<Case> cases = {
      {"momentum_tendencies", 6, cells(r1) * nz,
       [&] {
         return gcm::kernels::momentum_tendencies(cfg, grid, st.u, st.v, st.w,
                                                  st.phi, st.gu, st.gv, av, r1);
       }},
      {"tracer_tendency", 5, cells(r1) * nz,
       [&] {
         return gcm::kernels::tracer_tendency(cfg, grid, st.u, st.v, st.w,
                                              st.theta, st.gt, cfg.diff_h, kv,
                                              r1);
       }},
      {"hydrostatic", 3, cells(r2) * nz,
       [&] {
         return gcm::kernels::hydrostatic(cfg, grid, st.theta, st.salt, st.phi,
                                          r2);
       }},
      // p, out and the three operator weight arrays.
      {"elliptic_apply", 5, interior, [&] { return op.apply(p, out); }},
      // r, z and the four line-factor arrays.
      {"precondition", 6, interior, [&] { return op.precondition(p, z); }},
  };

  std::vector<KernelStat> stats;
  const double per_kernel = budget_s / static_cast<double>(cases.size());
  for (const Case& c : cases) {
    std::vector<double> us;
    double flops = 0;
    const double t_end = host_now_s() + per_kernel;
    while (us.size() < 5 || (host_now_s() < t_end && us.size() < 2000)) {
      const double t = host_now_s();
      flops = c.call();
      us.push_back((host_now_s() - t) * 1e6);
    }
    KernelStat k;
    k.name = c.name;
    k.us = median(us);
    k.n = us.size();
    k.gflops = k.us > 0 ? flops / (k.us * 1e3) : 0.0;
    k.flops_per_byte = flops / (c.arrays * c.points * sizeof(double));
    stats.push_back(k);
  }
  return stats;
}

CkptProbe probe_ckpt(const gcm::ModelConfig& cfg, std::uint64_t seed,
                     const std::string& dir, int reps) {
  const gcm::Decomp dec(cfg, 0);
  gcm::State saved;
  saved.allocate(dec, cfg.nz);
  fill_state(cfg, seed, saved);
  gcm::State loaded;
  loaded.allocate(dec, cfg.nz);
  std::filesystem::create_directories(dir);
  const std::string prefix = dir + "/ckpt_probe";
  const std::string path =
      gcm::tile_ckpt::rank_path(gcm::tile_ckpt::slot_prefix(prefix, 0), 0);

  CkptProbe p;
  std::vector<double> save_ms, load_ms, verify_ms;
  for (int i = 0; i < reps; ++i) {
    double t = host_now_s();
    gcm::tile_ckpt::save(path, cfg, saved);
    save_ms.push_back((host_now_s() - t) * 1e3);
    t = host_now_s();
    gcm::tile_ckpt::load(path, cfg, &loaded);
    load_ms.push_back((host_now_s() - t) * 1e3);
    t = host_now_s();
    const bool good = gcm::tile_ckpt::verify(path, cfg);
    verify_ms.push_back((host_now_s() - t) * 1e3);
    p.ok = p.ok && good &&
           std::memcmp(saved.theta.data(), loaded.theta.data(),
                       saved.theta.size() * sizeof(double)) == 0 &&
           std::memcmp(saved.u.data(), loaded.u.data(),
                       saved.u.size() * sizeof(double)) == 0;
  }
  p.bytes = static_cast<double>(std::filesystem::file_size(path));
  gcm::tile_ckpt::remove_slots(prefix, 1);
  p.save_ms = summarize(save_ms);
  p.load_ms = summarize(load_ms);
  p.verify_ms = summarize(verify_ms);
  return p;
}

}  // namespace perfbench
