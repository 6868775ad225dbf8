#include "gcm_run.hpp"

#include <atomic>
#include <cstdio>
#include <exception>
#include <mutex>
#include <optional>

#include "cluster/runtime.hpp"
#include "comm/comm.hpp"
#include "gcm/coupler.hpp"
#include "gcm/model.hpp"
#include "net/arctic_model.hpp"

namespace perfbench {

using namespace hyades;

double GcmSpec::cells_per_step() const {
  double cells = 0;
  for (const Component& c : components) {
    cells += static_cast<double>(c.cfg.nx) * c.cfg.ny * c.cfg.nz;
  }
  return cells;
}

std::size_t GcmSpec::component_index(int rank) const {
  std::size_t ci = 0;
  while (rank >= components[ci].rank_base + components[ci].nranks) ++ci;
  return ci;
}

std::string hexfloat(double v) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

GcmEpisode run_gcm_episode(const GcmSpec& spec, bool setup_only, SpanLog* log,
                           int run_id) {
  GcmEpisode ep;
  const int n = spec.nranks();
  const auto nz = static_cast<std::size_t>(n);
  // The last rank to finish set-up stamps the boundary between set-up
  // and work; Runtime::run's join publishes it to this thread.
  std::atomic<int> ready{0};
  double t_ready = 0;
  Usage u_ready;
  std::mutex mu;
  std::vector<std::string> comp_digest(spec.components.size());
  std::vector<double> rank_flops(nz, 0.0);
  std::vector<RankTrace> traces(log ? nz : 0);
  bool converged = true;

  SpanScope episode_span(log, "episode", -1, run_id, -1);
  const double t0 = host_now_s();
  const Usage u0 = usage_self();
  const net::ArcticModel arctic(spec.smp_count);
  cluster::MachineConfig mc;
  mc.smp_count = spec.smp_count;
  mc.procs_per_smp = spec.procs_per_smp;
  mc.interconnect = &arctic;
  mc.faults = spec.faults;
  std::optional<cluster::Runtime> rt_slot;
  {
    SpanScope cs(log, "runtime_construct", episode_span.id(), run_id, -1);
    rt_slot.emplace(mc);
  }
  cluster::Runtime& rt = *rt_slot;

  double t_run0 = 0;
  try {
    SpanScope run_span(log, "runtime_run", episode_span.id(), run_id, -1);
    t_run0 = host_now_s();
    rt.run([&](cluster::RankContext& ctx) {
      const int rank = ctx.rank();
      const auto ri = static_cast<std::size_t>(rank);
      RankTrace* tr = log ? &traces[ri] : nullptr;
      const double b0 = host_now_s();
      const Usage c0 = tr ? usage_thread() : Usage{};
      SpanScope body(log, "rank_body", run_span.id(), run_id, rank);

      const std::size_t ci = spec.component_index(rank);
      const Component& comp = spec.components[ci];
      std::optional<SpanScope> setup_span;
      setup_span.emplace(log, "rank_setup", body.id(), run_id, rank);
      comm::Comm comm(ctx, comp.rank_base, comp.nranks);
      gcm::Model model(comp.cfg, comm);
      model.initialize(spec.init_seed);
      std::optional<gcm::Coupler> coupler;
      if (spec.coupled()) {
        coupler.emplace(ctx, spec.components[0].rank_base,
                        spec.components[1].rank_base,
                        spec.components[0].nranks);
      }
      setup_span.reset();
      if (tr) tr->init_s = host_now_s() - b0;
      if (ready.fetch_add(1, std::memory_order_acq_rel) + 1 == n) {
        t_ready = host_now_s();
        u_ready = usage_self();
      }

      if (!setup_only) {
        gcm::SurfaceForcing forcing;
        const std::uint64_t g0 = comm.gsums_done();
        const std::uint64_t x0 = comm.exchanges_done();
        long iters = 0;
        double flops = 0;
        bool conv = true;
        for (int s = 0; s < spec.steps; ++s) {
          if (coupler && s % spec.couple_every == 0) {
            const double c0s = tr ? host_now_s() : 0.0;
            SpanScope cs(log, "coupler", body.id(), run_id, rank);
            coupler->exchange_boundary(model, forcing);
            if (tr) tr->coupler_s.push_back(host_now_s() - c0s);
          }
          const double s0 = tr ? host_now_s() : 0.0;
          const Usage sc0 = tr ? usage_thread() : Usage{};
          gcm::StepStats st;
          {
            SpanScope ss(log, "step", body.id(), run_id, rank);
            st = model.step(coupler ? &forcing : nullptr);
          }
          if (tr) {
            const double dt = host_now_s() - s0;
            tr->step_s.push_back(dt);
            tr->step_cpu_s += (usage_thread() - sc0).cpu_s();
          }
          iters += st.cg_iterations;
          flops += st.ps_flops + st.ds_flops;
          conv = conv && st.cg_converged && st.cg3_converged;
        }
        const std::uint64_t gs = comm.gsums_done() - g0;
        const std::uint64_t xs = comm.exchanges_done() - x0;
        double ke = 0;
        double mt = 0;
        {
          SpanScope ds(log, "diagnostics", body.id(), run_id, rank);
          ke = model.kinetic_energy();
          mt = model.mean_theta();
        }
        rank_flops[ri] = flops;
        std::lock_guard<std::mutex> lock(mu);
        converged = converged && conv;
        if (comm.group_rank() == 0) {
          comp_digest[ci] = "KE=" + hexfloat(ke) + " theta=" + hexfloat(mt);
          ep.gsums += gs;
          ep.exchanges += xs;
          ep.cg_iters += iters;
        }
      }
      if (tr) {
        tr->body_wall_s = host_now_s() - b0;
        tr->body_cpu_s = (usage_thread() - c0).cpu_s();
      }
    });
  } catch (const std::exception& e) {
    ep.ok = false;
    ep.error = e.what();
  }
  const double t_end = host_now_s();
  const Usage u_end = usage_self();

  ep.run_wall_s = t_end - t_run0;
  ep.setup_s = t_ready - t0;
  ep.work_s = t_end - t_ready;
  ep.work_usage = u_end - u_ready;
  ep.run_usage = u_end - u0;
  ep.ok = ep.ok && converged;
  if (!converged && ep.error.empty()) ep.error = "a CG solve did not converge";
  for (double f : rank_flops) ep.flops += f;
  for (const cluster::Accounting& a : rt.accounting()) {
    ep.retransmits += a.retransmits;
    ep.crc_rejects += a.crc_rejects;
  }
  if (!setup_only) {
    for (const std::string& d : comp_digest) ep.digest += d + "\n";
    ep.digest += "clocks=";
    for (double c : rt.final_clocks()) ep.digest += hexfloat(c) + ",";
  }
  ep.ranks = std::move(traces);
  {
    SpanScope ds(log, "runtime_destroy", episode_span.id(), run_id, -1);
    rt_slot.reset();
  }
  return ep;
}

}  // namespace perfbench
