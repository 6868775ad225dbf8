#include "farm/executor.hpp"

#include <cstdio>
#include <mutex>
#include <optional>
#include <stdexcept>

#include "cluster/runtime.hpp"
#include "comm/comm.hpp"
#include "gcm/model.hpp"
#include "gcm/resilient.hpp"
#include "gcm/tile_ckpt.hpp"
#include "net/arctic_model.hpp"

namespace hyades::farm {

namespace {

// Sum the cost side of the outcome out of the runtime's last run(),
// valid for completed and aborted runs alike (Runtime::run captures
// per-rank accounting even when a rank unwound with an exception).
void charge_costs(const cluster::Runtime& rt, JobResult* r) {
  r->busy_us = rt.max_clock();
  r->retransmits = 0;
  r->restarts = 0;
  for (const cluster::Accounting& a : rt.accounting()) {
    r->retransmits += a.retransmits;
    r->restarts += a.restarts;
  }
}

}  // namespace

ExecutionOutcome execute_job(const JobSpec& spec,
                             const std::string& scratch_prefix) {
  if (spec.machine.nranks() != spec.config.tiles()) {
    throw std::invalid_argument(
        "execute_job: machine ranks (" + std::to_string(spec.machine.nranks()) +
        ") != config tiles (" + std::to_string(spec.config.tiles()) + ")");
  }
  if (spec.steps < 1) {
    throw std::invalid_argument("execute_job: steps must be >= 1");
  }
  spec.config.validate();

  const net::ArcticModel arctic(spec.machine.smp_count);
  cluster::MachineConfig mc;
  mc.smp_count = spec.machine.smp_count;
  mc.procs_per_smp = spec.machine.procs_per_smp;
  mc.interconnect = &arctic;
  if (spec.faults.enabled()) mc.faults = &spec.faults;
  cluster::Runtime rt(mc);

  ExecutionOutcome out;
  std::mutex mu;

  if (spec.faults.has_node_kills()) {
    // Hard-failure members ride the resilient restart driver; its
    // durable checkpoints live under the farm's scratch prefix.
    gcm::ResilientConfig rcfg;
    rcfg.ckpt_prefix = scratch_prefix;
    rcfg.ckpt_every = spec.ckpt_every;
    rcfg.max_restarts = spec.max_restarts;
    rcfg.init_seed = spec.seed;
    rcfg.recovery = spec.recovery;
    rcfg.on_complete = [&](cluster::RankContext& ctx, gcm::Model& m) {
      // Collective diagnostics: every rank participates, rank 0 records.
      const double ke = m.kinetic_energy();
      const double mt = m.mean_theta();
      if (ctx.rank() == 0) {
        std::lock_guard<std::mutex> lock(mu);
        out.result.kinetic_energy = ke;
        out.result.mean_theta = mt;
      }
    };
    std::optional<Microseconds> gave_up_us;
    try {
      const gcm::ResilientStats st =
          gcm::run_resilient(rt, spec.config, spec.steps, rcfg);
      out.ok = true;
      out.result.steps_committed = spec.steps;
      out.result.migrations = st.migrations;
      out.result.rebalances = st.rebalances;
      for (const gcm::RecoveryEvent& ev : st.ladder) {
        out.result.downgrades += ev.downgrades();
      }
    } catch (const gcm::RecoveryError& e) {
      // Typed give-up (RestartExhausted, RecoveryExhausted): a failed
      // member with full context in the message, not a failed farm.
      out.ok = false;
      out.error = e.what();
      out.result.steps_committed = 0;  // every epoch aborted: nothing kept
      gave_up_us = e.gave_up_us;
    } catch (const std::runtime_error& e) {
      out.ok = false;
      out.error = e.what();
      out.result.steps_committed = 0;
    }
    charge_costs(rt, &out.result);
    // The final epoch's ranks stopped wherever a peer's exit ended their
    // waits, so the max rank clock says how far that epoch ran, not when
    // the run gave up: a given-up member is charged the error's plan-pure
    // give-up time instead.
    if (gave_up_us) out.result.busy_us = *gave_up_us;
    gcm::tile_ckpt::remove_slots(scratch_prefix, mc.nranks());
    return out;
  }

  try {
    rt.run([&](cluster::RankContext& ctx) {
      comm::Comm comm(ctx);
      gcm::Model model(spec.config, comm);
      model.initialize(spec.seed);
      model.run(spec.steps);
      const double ke = model.kinetic_energy();
      const double mt = model.mean_theta();
      if (comm.group_rank() == 0) {
        std::lock_guard<std::mutex> lock(mu);
        out.result.kinetic_energy = ke;
        out.result.mean_theta = mt;
      }
    });
    out.ok = true;
    out.result.steps_committed = spec.steps;
  } catch (const std::runtime_error& e) {
    // Solver divergence, a transfer out of retries (DeliveryFailure): a
    // failed member, not a failed farm.
    out.ok = false;
    out.error = e.what();
  }
  charge_costs(rt, &out.result);
  return out;
}

}  // namespace hyades::farm
