// Chaos soak: 200 seeded fault schedules thrown at the resilient
// driver, composed from one SplitMix64-derived draw each -- multi-node
// kills (concurrent and cascading across epochs), kills fired during
// recovery, post-commit checkpoint corruption, permanent link deaths,
// hot node joins, and both ring depths, under both recovery modes.
//
// The soak asserts the robustness contract, not a performance number:
// every schedule the driver survives must finish bit-identical to the
// failure-free run, and every schedule it cannot survive must end in a
// typed gcm::RecoveryError subclass -- never a hang (the soak finishing
// at all is the hang check: every epoch is bounded by max_restarts),
// never an untyped escape.  Any violation exits nonzero.  Emits
// BENCH_chaos.json with the survival rate, the landed-rung histogram,
// and per-rung recovery clocks.
#include <algorithm>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "bench/bench_json.hpp"
#include "bench/bench_util.hpp"
#include "cluster/fault.hpp"
#include "cluster/runtime.hpp"
#include "gcm/model.hpp"
#include "gcm/resilient.hpp"
#include "gcm/tile_ckpt.hpp"
#include "net/arctic_model.hpp"
#include "support/rng.hpp"
#include "support/table.hpp"

namespace {

using namespace hyades;

constexpr int kSmps = 4;
constexpr int kPpp = 1;
constexpr int kSteps = 12;
constexpr int kCkptEvery = 3;
constexpr int kMaxRestarts = 4;
constexpr int kDraws = 200;
constexpr std::uint64_t kSoakSeed = 0xC4A0C4A0u;

gcm::ModelConfig make_cfg() {
  gcm::ModelConfig cfg;
  cfg.isomorph = gcm::Isomorph::kOcean;
  cfg.nx = 16;
  cfg.ny = 8;
  cfg.nz = 4;
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

struct RunOut {
  gcm::ResilientStats stats;
  std::map<int, gcm::State> state;  // by rank
  double busy_us = 0;
};

RunOut run_draw(const cluster::FaultPlan* plan, gcm::RecoveryMode mode,
                int ring_depth, const std::string& ckpt_prefix,
                std::function<void(int, const cluster::NodeDownVerdict&)>
                    pre_recovery) {
  const net::ArcticModel net;
  cluster::MachineConfig mc;
  mc.smp_count = kSmps;
  mc.procs_per_smp = kPpp;
  mc.interconnect = &net;
  mc.faults = plan;
  cluster::Runtime rt(mc);

  gcm::ResilientConfig rcfg;
  rcfg.ckpt_prefix = ckpt_prefix;
  rcfg.ckpt_every = kCkptEvery;
  rcfg.max_restarts = kMaxRestarts;
  rcfg.ring_depth = ring_depth;
  rcfg.recovery = mode;
  rcfg.pre_recovery = std::move(pre_recovery);

  RunOut out;
  std::mutex mu;
  rcfg.on_complete = [&](cluster::RankContext& ctx, gcm::Model& m) {
    std::lock_guard<std::mutex> lock(mu);
    out.state.emplace(ctx.rank(), m.state());
  };
  try {
    out.stats = gcm::run_resilient(rt, make_cfg(), kSteps, rcfg);
    // lint:allow(catch-all): driver-thread slot cleanup; rethrows intact
  } catch (...) {
    gcm::tile_ckpt::remove_slots(ckpt_prefix, mc.nranks());
    throw;
  }
  out.busy_us = rt.max_clock();
  gcm::tile_ckpt::remove_slots(ckpt_prefix, mc.nranks());
  return out;
}

bool states_bit_identical(const RunOut& a, const RunOut& b) {
  if (a.state.size() != b.state.size()) return false;
  for (const auto& [rank, sa] : a.state) {
    const gcm::State& sb = b.state.at(rank);
    const auto same = [](const double* x, const double* y, std::size_t n) {
      return std::memcmp(x, y, n * sizeof(double)) == 0;
    };
    if (!same(sa.u.data(), sb.u.data(), sa.u.size()) ||
        !same(sa.v.data(), sb.v.data(), sa.v.size()) ||
        !same(sa.theta.data(), sb.theta.data(), sa.theta.size()) ||
        !same(sa.salt.data(), sb.salt.data(), sa.salt.size()) ||
        sa.step != sb.step) {
      return false;
    }
  }
  return true;
}

// Flip one payload byte of a committed checkpoint file: post-commit bit
// rot.  The header stays intact, so only deep verification can tell.
void rot_payload(const std::string& path) {
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  if (!f.good()) return;
  f.seekg(0, std::ios::end);
  const std::streamoff size = f.tellg();
  if (size <= 0) return;
  f.seekg(size - 1);
  char byte = 0;
  f.read(&byte, 1);
  byte = static_cast<char>(byte ^ 0x5a);
  f.seekp(size - 1);
  f.write(&byte, 1);
}

}  // namespace

int run_bench() {
  bench::banner("Chaos soak: " + std::to_string(kDraws) +
                " seeded cascading-failure schedules");

  // The failure-free baseline every survivor's bits must match.
  // Recovery mode, ring depth, link kills and joins are all
  // bits-neutral, so one baseline covers every draw.
  const RunOut clean =
      run_draw(nullptr, gcm::RecoveryMode::kMigrate, 2,
               bench::private_tmp("hyades_bch_clean"), nullptr);

  int survived = 0;
  int failed_typed = 0;
  int untyped_escapes = 0;
  int bits_broken = 0;
  int total_events = 0;
  std::int64_t total_downgrades = 0;
  std::map<std::string, int> failure_kinds;
  // Landed-rung histogram and summed recovery clocks, indexed by rung.
  std::map<std::string, int> rung_count;
  std::map<std::string, double> rung_rec_us;

  for (int d = 0; d < kDraws; ++d) {
    SplitMix64 rng(kSoakSeed + 977u * static_cast<std::uint64_t>(d));

    cluster::FaultPlan plan;
    const int n_kills = 1 + static_cast<int>(rng.next_below(3));
    std::vector<int> ranks = {0, 1, 2, 3};
    for (int i = 0; i < n_kills; ++i) {
      // Draw distinct victim ranks; the first kill always lands in
      // epoch 0 so every draw exercises at least one recovery.
      const std::size_t pick =
          static_cast<std::size_t>(rng.next_below(ranks.size()));
      const int victim = ranks[pick];
      ranks.erase(ranks.begin() + static_cast<std::ptrdiff_t>(pick));
      const int epoch = (i == 0) ? 0 : static_cast<int>(rng.next_below(2));
      plan.node_kills.push_back(
          {victim, clean.busy_us * rng.next_in(0.15, 0.85), epoch});
    }
    if (rng.next_double() < 0.25) {
      const int a = static_cast<int>(rng.next_below(kSmps));
      const int b = (a + 1 + static_cast<int>(rng.next_below(kSmps - 1))) %
                    kSmps;
      plan.link_kills.push_back({a, b, clean.busy_us * rng.next_double()});
    }
    if (rng.next_double() < 0.25) {
      plan.node_joins.push_back({plan.node_kills.front().rank / kPpp,
                                 static_cast<long>(
                                     kCkptEvery *
                                     (2 + static_cast<long>(
                                              rng.next_below(2))))});
    }
    const int ring_depth = 2 + static_cast<int>(rng.next_below(2));
    const gcm::RecoveryMode mode = rng.next_double() < 0.25
                                       ? gcm::RecoveryMode::kEpochRestart
                                       : gcm::RecoveryMode::kMigrate;
    const bool corrupt = rng.next_double() < 0.3;
    bool rotted = false;
    const std::string prefix =
        bench::private_tmp("hyades_bch_d" + std::to_string(d));
    auto pre_recovery = [&](int, const cluster::NodeDownVerdict& v) {
      // Post-commit bit rot on the first recovery's primary casualty:
      // its newest durable tile decays between commit and adoption.
      if (rotted || !corrupt || v.rank < 0) return;
      rotted = true;
      const gcm::tile_ckpt::TileHit newest =
          gcm::tile_ckpt::newest_rank_ckpt(prefix, v.rank, kSteps);
      if (newest.step >= 0) rot_payload(newest.path);
    };

    try {
      const RunOut got =
          run_draw(&plan, mode, ring_depth, prefix, pre_recovery);
      ++survived;
      if (!states_bit_identical(clean, got)) {
        ++bits_broken;
        std::cerr << "BENCH_chaos: draw " << d
                  << " survived but broke bit-identity with the "
                     "failure-free run\n";
      }
      for (const gcm::RecoveryEvent& ev : got.stats.ladder) {
        ++total_events;
        total_downgrades += ev.downgrades();
        const std::string rung = gcm::to_string(ev.landed());
        ++rung_count[rung];
        rung_rec_us[rung] += ev.recovery_us;
      }
    } catch (const gcm::RecoveryExhausted& e) {
      ++failed_typed;
      ++failure_kinds["RecoveryExhausted"];
      // The exhausted ladder must carry its full history: every rung
      // tried, every failure explained.
      if (e.history.empty() ||
          std::any_of(e.history.begin(), e.history.end(),
                      [](const gcm::RungAttempt& a) {
                        return a.reason.empty();
                      })) {
        ++untyped_escapes;
        std::cerr << "BENCH_chaos: draw " << d
                  << " RecoveryExhausted without a full ladder history\n";
      }
    } catch (const gcm::RestartExhausted&) {
      ++failed_typed;
      ++failure_kinds["RestartExhausted"];
    } catch (const gcm::RecoveryError& e) {
      ++failed_typed;
      ++failure_kinds["RecoveryError"];
      if (std::string(e.what()).empty()) ++untyped_escapes;
    } catch (const std::exception& e) {
      ++untyped_escapes;
      std::cerr << "BENCH_chaos: draw " << d
                << " escaped with an untyped exception: " << e.what() << "\n";
      // lint:allow(catch-all): the soak's contract detector -- a
      // non-exception throw reaching the driver IS the violation being
      // counted (RankFailStop never crosses out of run_resilient).
    } catch (...) {
      ++untyped_escapes;
      std::cerr << "BENCH_chaos: draw " << d
                << " escaped with a non-exception throw\n";
    }
  }

  Table t({"landed rung", "recoveries", "mean recovery (us)"});
  bench::Json rungs = bench::Json::array();
  for (const auto& [rung, count] : rung_count) {
    const double mean = count > 0 ? rung_rec_us[rung] / count : 0.0;
    t.add_row({rung, Table::fmt_int(count), Table::fmt(mean, 0)});
    rungs.push(bench::Json::object()
                   .set("rung", rung)
                   .set("recoveries", count)
                   .set("mean_recovery_us", mean));
  }
  t.print(std::cout,
          std::to_string(kDraws) + " draws, 16x8x4 basin ocean, 4 tiles / " +
              std::to_string(kSmps) + " SMPs, " + std::to_string(kSteps) +
              " steps, ckpt every " + std::to_string(kCkptEvery));

  std::cout << "\nsurvived " << survived << "/" << kDraws << " ("
            << failed_typed << " typed give-ups";
  for (const auto& [kind, count] : failure_kinds) {
    std::cout << ", " << count << " " << kind;
  }
  std::cout << "), " << total_events << " recovery events, "
            << total_downgrades << " ladder downgrades, " << untyped_escapes
            << " untyped escapes, " << bits_broken << " bit-identity breaks\n";
  std::cout
      << "\nreading: the soak's contract is binary -- a schedule is either "
         "survivable (bits must match the failure-free run exactly) or it "
         "is not (the error must be a typed RecoveryError subclass whose "
         "ladder history says what was tried and why each rung fell "
         "through).  The rung histogram shows the degradation ladder "
         "doing its job: most recoveries land on the first rung, bit rot "
         "pushes some to the older cut, and cornered schedules fall back "
         "to restarting the world before any of them is allowed to "
         "become a crash.\n";

  bench::Json failures = bench::Json::array();
  for (const auto& [kind, count] : failure_kinds) {
    failures.push(
        bench::Json::object().set("kind", kind).set("count", count));
  }
  bench::Json root = bench::Json::object();
  root.set("bench", "chaos")
      .set("config", bench::Json::object()
                         .set("seed", static_cast<double>(kSoakSeed))
                         .set("draws", kDraws)
                         .set("nx", 16)
                         .set("ny", 8)
                         .set("nz", 4)
                         .set("tiles", 4)
                         .set("smps", kSmps)
                         .set("procs_per_smp", kPpp)
                         .set("steps", kSteps)
                         .set("ckpt_every", kCkptEvery)
                         .set("max_restarts", kMaxRestarts))
      .set("survived", survived)
      .set("failed_typed", failed_typed)
      .set("failures", std::move(failures))
      .set("recovery_events", total_events)
      .set("ladder_downgrades", static_cast<double>(total_downgrades))
      .set("untyped_escapes", untyped_escapes)
      .set("bit_identity_breaks", bits_broken)
      .set("rungs", std::move(rungs));
  bench::write_json("BENCH_chaos.json", root);

  if (untyped_escapes > 0 || bits_broken > 0) {
    std::cerr << "BENCH_chaos: robustness contract violated\n";
    return 1;
  }
  return 0;
}

int main() { return bench::run_main("bench_chaos", run_bench); }
