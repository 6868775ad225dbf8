// Ablation: surviving hard failures -- degraded-fabric bandwidth and
// kill-schedule recovery overhead.
//
// Part 1 drives the Arctic fabric simulator in adaptive (random
// uproute) mode with disjoint-pair traffic while permanent link kills
// accumulate: degraded up*/down* routing keeps every pair connected
// (the fat tree's path diversity), but each dead up port shrinks the
// diversity the adaptive mode spreads load over, so delivered
// bandwidth falls and completion time stretches.
//
// Part 2 runs a basin-gyre ocean under whole kill schedules -- dead
// links, node fail-stops, repeated fail-stops across epochs -- through
// the membership/restart machinery.  The invariant that makes the table
// meaningful: every survivable schedule finishes with final prognostic
// state bit-identical to the failure-free run (checked bitwise here;
// the bench exits nonzero on any mismatch).  What failures cost is
// virtual time, itemized by the accounting as reroute and restart.
#include <cstring>
#include <iostream>
#include <map>
#include <mutex>
#include <vector>

#include "arctic/fabric.hpp"
#include "arctic/fault.hpp"
#include "bench/bench_util.hpp"
#include "cluster/fault.hpp"
#include "cluster/runtime.hpp"
#include "comm/comm.hpp"
#include "gcm/model.hpp"
#include "gcm/resilient.hpp"
#include "gcm/tile_ckpt.hpp"
#include "net/arctic_model.hpp"
#include "sim/scheduler.hpp"
#include "support/table.hpp"

namespace {

using namespace hyades;

// ---- part 1: fabric bandwidth vs dead links ---------------------------

constexpr int kEndpoints = 16;
constexpr int kPacketsPerPair = 96;
constexpr int kPayloadWords = 22;  // max-size packets

struct FabricPoint {
  double completion_us = 0;
  double mbytes_per_sec = 0;
  std::uint64_t degraded_routes = 0;
};

FabricPoint fabric_point(int dead_links) {
  sim::Scheduler sched;
  arctic::FabricConfig cfg;
  cfg.random_uproute = true;  // adaptive: bandwidth tracks live diversity
  cfg.seed = 4242;
  arctic::Fabric fabric(sched, kEndpoints, cfg);
  fabric.set_delivery_handler([](int, arctic::Packet&&) {});
  const int rpl = kEndpoints / arctic::kRadix;
  for (const arctic::KillEvent& k : arctic::seeded_link_kills(
           /*seed=*/99, dead_links, fabric.levels(), rpl, /*window_us=*/1.0)) {
    fabric.apply_kill(k);
  }
  for (int p = 0; p < kPacketsPerPair; ++p) {
    for (int src = 0; src < kEndpoints / 2; ++src) {
      arctic::Packet pkt;
      pkt.payload.assign(kPayloadWords, 0u);
      fabric.inject(src, src + kEndpoints / 2, std::move(pkt));
    }
  }
  sched.run();
  FabricPoint out;
  out.completion_us = sim::to_us(sched.now());
  const double bytes = static_cast<double>(kPacketsPerPair) *
                       (kEndpoints / 2) * kPayloadWords * 4.0;
  out.mbytes_per_sec = bytes / out.completion_us;  // MB/s == bytes/us
  out.degraded_routes = fabric.stats().degraded_routes;
  return out;
}

// ---- part 2: gyre recovery overhead per kill schedule -----------------

constexpr int kSmps = 4;
constexpr int kSteps = 24;

gcm::ModelConfig gyre_cfg() {
  gcm::ModelConfig cfg;
  cfg.isomorph = gcm::Isomorph::kOcean;
  cfg.nx = 32;
  cfg.ny = 16;
  cfg.nz = 6;
  cfg.px = 2;
  cfg.py = 2;
  cfg.halo = 2;
  cfg.dt = 400.0;
  cfg.visc_h = 1.0e6;
  cfg.diff_h = 1.0e5;
  cfg.topography = gcm::ModelConfig::Topography::kBasin;
  cfg.validate();
  return cfg;
}

struct SchedulePoint {
  int restarts = 0;
  std::int64_t degraded_sends = 0;
  double reroute_us = 0;
  double restart_us = 0;
  double makespan_us = 0;
  std::map<int, std::vector<double>> theta;  // per-rank final field, bitwise
};

SchedulePoint run_schedule(const cluster::FaultPlan* plan) {
  const net::ArcticModel net;
  cluster::MachineConfig mc;
  mc.smp_count = kSmps;
  mc.procs_per_smp = 1;
  mc.interconnect = &net;
  mc.faults = plan;
  cluster::Runtime rt(mc);

  gcm::ResilientConfig rcfg;
  rcfg.ckpt_prefix = bench::private_tmp("hyades_bench_degraded_ckpt");
  rcfg.ckpt_every = 6;
  rcfg.max_restarts = 4;
  SchedulePoint out;
  std::mutex mu;
  rcfg.on_complete = [&](cluster::RankContext& ctx, gcm::Model& m) {
    const double* d = m.state().theta.data();
    std::lock_guard<std::mutex> lock(mu);
    out.theta.emplace(ctx.rank(),
                      std::vector<double>(d, d + m.state().theta.size()));
  };
  const gcm::ResilientStats st = gcm::run_resilient(rt, gyre_cfg(), kSteps, rcfg);
  gcm::tile_ckpt::remove_slots(rcfg.ckpt_prefix, mc.nranks());
  out.restarts = static_cast<int>(st.ladder.size());
  for (const cluster::Accounting& a : rt.accounting()) {
    out.degraded_sends += a.degraded_sends;
    out.reroute_us += a.reroute_us;
  }
  // rt.accounting() snapshots only the final epoch; the total restart
  // charge across all aborted epochs is plan-pure.
  out.restart_us = plan != nullptr
                       ? out.restarts * plan->restart_cost_us * kSmps
                       : 0.0;
  out.makespan_us = rt.max_clock();
  return out;
}

bool theta_bits_equal(const SchedulePoint& a, const SchedulePoint& b) {
  if (a.theta.size() != b.theta.size()) return false;
  for (const auto& [rank, va] : a.theta) {
    const auto it = b.theta.find(rank);
    if (it == b.theta.end() || it->second.size() != va.size()) return false;
    if (std::memcmp(va.data(), it->second.data(),
                    va.size() * sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

}  // namespace

int run_bench() {
  bench::banner("Ablation: hard failures -- degraded fabric and restart "
                "recovery");

  {
    Table t({"dead links", "completion (us)", "bandwidth (MB/s)",
             "degraded routes", "slowdown"});
    FabricPoint base;
    for (int dead : {0, 1, 2, 4}) {
      const FabricPoint p = fabric_point(dead);
      if (dead == 0) base = p;
      t.add_row({Table::fmt_int(dead), Table::fmt(p.completion_us, 1),
                 Table::fmt(p.mbytes_per_sec, 1),
                 Table::fmt_int(static_cast<long>(p.degraded_routes)),
                 Table::fmt(p.completion_us / base.completion_us, 2) + "x"});
    }
    t.print(std::cout,
            "8 disjoint pairs x " + std::to_string(kPacketsPerPair) +
                " max-size packets, 16-endpoint fat tree; seeded permanent "
                "link kills (at most one up port per router, so every pair "
                "stays connected)");
  }

  struct Schedule {
    const char* name;
    cluster::FaultPlan plan;
  };
  std::vector<Schedule> schedules;
  schedules.push_back({"no failures", {}});
  {
    Schedule s{"2 link kills (t=0)", {}};
    s.plan.link_kills.push_back({0, 1, 0.0});
    s.plan.link_kills.push_back({2, 3, 0.0});
    schedules.push_back(s);
  }
  {
    Schedule s{"1 node kill", {}};
    s.plan.node_kills.push_back({/*rank=*/3, /*at_us=*/200.0, /*epoch=*/0});
    schedules.push_back(s);
  }
  {
    Schedule s{"2 node kills (2 epochs)", {}};
    s.plan.node_kills.push_back({/*rank=*/3, /*at_us=*/200.0, /*epoch=*/0});
    s.plan.node_kills.push_back({/*rank=*/1, /*at_us=*/400.0, /*epoch=*/1});
    schedules.push_back(s);
  }
  {
    Schedule s{"2 links + 1 node kill", {}};
    s.plan.link_kills.push_back({0, 1, 0.0});
    s.plan.link_kills.push_back({2, 3, 0.0});
    s.plan.node_kills.push_back({/*rank=*/3, /*at_us=*/200.0, /*epoch=*/0});
    schedules.push_back(s);
  }

  Table t({"kill schedule", "restarts", "degraded sends", "reroute (us)",
           "restart (us)", "makespan (us)", "overhead"});
  SchedulePoint base;
  for (std::size_t i = 0; i < schedules.size(); ++i) {
    const SchedulePoint p = run_schedule(&schedules[i].plan);
    if (i == 0) base = p;
    if (!theta_bits_equal(base, p)) {
      std::cerr << "KILL SCHEDULE BROKE BIT-IDENTITY: " << schedules[i].name
                << "\n";
      return 1;
    }
    t.add_row({schedules[i].name, Table::fmt_int(p.restarts),
               Table::fmt_int(static_cast<long>(p.degraded_sends)),
               Table::fmt(p.reroute_us, 0), Table::fmt(p.restart_us, 0),
               Table::fmt(p.makespan_us, 0),
               Table::fmt(100.0 * (p.makespan_us / base.makespan_us - 1.0),
                          1) +
                   "%"});
  }
  t.print(std::cout,
          "32x16x6 basin ocean, 4 ranks / 4 SMPs, " + std::to_string(kSteps) +
              " steps, checkpoint every 6; every schedule above ends "
              "bit-identical to the failure-free run (checked)");

  std::cout
      << "\nreading: dead links are absorbed by rerouting -- the run never "
         "stops, it just pays the route-around penalty on every transfer "
         "that crosses the dead pair.  A node kill costs an epoch: the "
         "work since the last checkpoint is discarded, survivors agree on "
         "the verdict after the heartbeat deadline, and the restart "
         "(relaunch + reload) is charged to every rank.  Repeated kills "
         "compound per epoch, which is why the restart budget exists.\n";
  return 0;
}

int main() { return bench::run_main("bench_ablation_degraded", run_bench); }
