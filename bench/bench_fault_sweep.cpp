// Fault sweep: recovery overhead of the end-to-end reliability protocol.
//
// A closed-basin (gyre) ocean run is repeated under increasing per-
// message fault probability.  Every fault is recovered by the sequence-
// numbered NAK/timeout retransmit protocol, so the final model state is
// bit-identical across the whole sweep (asserted here); what moves is
// virtual time: the per-step wall time grows by the recovery cost, which
// the accounting isolates in the retrans bucket.  The table reports, per
// corruption rate, the retransmit counts, the recovery time charged, and
// the step-time overhead versus the fault-free run.
#include <cmath>
#include <cstring>
#include <iostream>
#include <vector>

#include "bench/bench_util.hpp"
#include "cluster/fault.hpp"
#include "cluster/runtime.hpp"
#include "comm/comm.hpp"
#include "gcm/model.hpp"
#include "net/arctic_model.hpp"
#include "support/table.hpp"

namespace {

using namespace hyades;

constexpr int kSmps = 8;
constexpr int kPpp = 2;
constexpr int kSteps = 40;

gcm::ModelConfig make_cfg() {
  gcm::ModelConfig cfg;
  cfg.isomorph = gcm::Isomorph::kOcean;
  cfg.nx = 64;
  cfg.ny = 32;
  cfg.nz = 10;
  cfg.px = 4;
  cfg.py = 4;
  cfg.halo = 2;
  cfg.dt = 400.0;
  cfg.visc_h = 1.0e6;
  cfg.diff_h = 1.0e5;
  cfg.cg_tol = 1.0e-6;
  cfg.topography = gcm::ModelConfig::Topography::kBasin;
  cfg.validate();
  return cfg;
}

struct SweepPoint {
  double step_us = 0;          // max-clock per step
  std::int64_t retransmits = 0;
  std::int64_t crc_rejects = 0;
  std::int64_t drops = 0;
  double retrans_us = 0;       // summed over ranks
  double theta_hash = 0;       // bitwise fingerprint of rank 0's theta
};

SweepPoint run_point(const cluster::FaultPlan& plan) {
  const net::ArcticModel net;
  cluster::MachineConfig mc;
  mc.smp_count = kSmps;
  mc.procs_per_smp = kPpp;
  mc.interconnect = &net;
  mc.faults = &plan;
  cluster::Runtime rt(mc);
  const gcm::ModelConfig cfg = make_cfg();
  SweepPoint out;
  rt.run([&](cluster::RankContext& ctx) {
    comm::Comm comm(ctx);
    gcm::Model m(cfg, comm);
    m.initialize();
    m.run(kSteps);
    if (ctx.rank() == 0) {
      // A cheap bitwise fingerprint: the sweep must not change the state.
      const double* d = m.state().theta.data();
      double h = 0;
      for (std::size_t i = 0; i < m.state().theta.size(); ++i) {
        h += d[i] * static_cast<double>(i % 97 + 1);
      }
      out.theta_hash = h;
    }
  });
  for (const cluster::Accounting& a : rt.accounting()) {
    out.retransmits += a.retransmits;
    out.crc_rejects += a.crc_rejects;
    out.drops += a.drops_detected;
    out.retrans_us += a.retrans_us;
  }
  out.step_us = rt.max_clock() / kSteps;
  return out;
}

}  // namespace

int main() {
  bench::banner("Fault sweep: retransmit recovery overhead (gyre, Arctic)");

  const double rates[] = {0.0, 1e-4, 1e-3, 1e-2};
  SweepPoint base;
  Table t({"corrupt/pkt", "step (us)", "retransmits", "crc rejects", "drops",
           "retrans (us)", "overhead"});
  for (double rate : rates) {
    cluster::FaultPlan plan;
    plan.seed = 2026;
    plan.corrupt_prob = rate;
    plan.drop_prob = rate / 5.0;
    const SweepPoint p = run_point(plan);
    if (rate == 0.0) base = p;
    if (std::memcmp(&p.theta_hash, &base.theta_hash, sizeof(double)) != 0) {
      std::cerr << "FAULT SWEEP BROKE BIT-IDENTITY at rate " << rate << "\n";
      return 1;
    }
    t.add_row({Table::fmt(rate, 4), Table::fmt(p.step_us, 0),
               Table::fmt_int(static_cast<long>(p.retransmits)),
               Table::fmt_int(static_cast<long>(p.crc_rejects)),
               Table::fmt_int(static_cast<long>(p.drops)),
               Table::fmt(p.retrans_us, 0),
               Table::fmt(100.0 * (p.step_us / base.step_us - 1.0), 2) + "%"});
  }
  t.print(std::cout, "64x32x10 basin ocean, 16 procs / 8 SMPs, " +
                         std::to_string(kSteps) + " steps, per-step times");

  std::cout
      << "\nreading: the final state is bit-identical across the whole "
         "sweep (checked above) -- recoverable faults cost only virtual "
         "time.  At the paper-plausible 1e-3/packet corruption rate the "
         "recovery overhead stays small: each NAK'd transfer costs one "
         "small-message round trip plus backoff plus the retransfer, and "
         "those episodes overlap with the waits the bulk-synchronous "
         "steps already contain.  Drops are costlier per event (the "
         "500 us watchdog timeout dominates), which shows in the 1e-2 "
         "row.\n";
  return 0;
}
