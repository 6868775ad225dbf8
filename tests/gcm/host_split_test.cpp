// Model goldens for the host pool's column split (DESIGN.md "Host
// kernels").
//
// 5-step ocean and atmosphere runs on one rank and on two, with the
// overlap path on and off.  On a host with two or more cores the 1-rank
// run splits every column kernel across the rank's helpers; with four or
// more, so does the 2-rank run.  Each run folds every step's StepStats,
// then KE, mean theta and every rank's final clock, into one 64-bit
// FNV-1a digest of their bit patterns.  The goldens were captured with
// every kernel running serially on one thread: a split that recomputes a
// seam column, drops one, or reorders a flop sum moves them.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "cluster/runtime.hpp"
#include "comm/comm.hpp"
#include "gcm/model.hpp"
#include "support/host_pool.hpp"
#include "tests/gcm/gcm_test_util.hpp"

namespace hyades::gcm {
namespace {

class Digest {
 public:
  void add_bits(std::uint64_t w) {
    for (int b = 0; b < 64; b += 8) {
      h_ ^= (w >> b) & 0xffU;
      h_ *= 0x100000001b3ULL;
    }
  }
  void add(double x) { add_bits(std::bit_cast<std::uint64_t>(x)); }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

struct Golden {
  const char* name;
  std::uint64_t digest;
  double max_clock;
};

// Runs `cfg` for 5 steps on px ranks of one-processor SMPs.
Golden run(const char* name, ModelConfig cfg, int px, bool overlap) {
  cfg.nx = 32;
  cfg.ny = 16;
  cfg.px = px;
  cfg.py = 1;
  cfg.topography = ModelConfig::Topography::kContinents;
  cfg.overlap_comm = overlap;
  cfg.validate();
  cluster::MachineConfig mc;
  mc.smp_count = px;
  mc.procs_per_smp = 1;
  mc.interconnect = &testing::test_net();
  cluster::Runtime rt(mc);
  Digest d;
  rt.run([&](cluster::RankContext& ctx) {
    comm::Comm comm(ctx);
    Model m(cfg, comm);
    m.initialize();
    std::vector<StepStats> steps;
    for (int s = 0; s < 5; ++s) steps.push_back(m.step());
    const double ke = m.kinetic_energy();
    const double theta = m.mean_theta();
    if (ctx.rank() != 0) return;
    for (const StepStats& st : steps) {
      for (const double x : {st.tps_us, st.tps_exch_us, st.tps_interior_us,
                             st.overlap_us, st.tds_us, st.cg_residual,
                             st.ps_flops, st.ds_flops}) {
        d.add(x);
      }
      d.add_bits(static_cast<std::uint64_t>(st.cg_iterations));
      d.add_bits(st.cg_converged ? 1U : 0U);
    }
    d.add(ke);
    d.add(theta);
  });
  for (const double c : rt.final_clocks()) d.add(c);
  return {name, d.value(), rt.max_clock()};
}

void check(const Golden& want, const Golden& got) {
  EXPECT_EQ(got.digest, want.digest)
      << want.name << ": measured {\"" << got.name << "\", 0x" << std::hex
      << got.digest << "ULL, " << std::hexfloat << got.max_clock << "}";
  EXPECT_EQ(got.max_clock, want.max_clock) << want.name;
}

// Captured with every kernel running serially on one thread.
const Golden kOceanOneRank = {
    "ocean.1rank", 0x9157c9d3e9d9274dULL, 0x1.979a4c28f5bb1p+19};
const Golden kOceanOneRankOverlap = {
    "ocean.1rank.overlap", 0x524da64877bb6006ULL, 0x1.a1334c28f5bb6p+19};
const Golden kOceanTwoRanks = {
    "ocean.2ranks", 0xf4cbeefc170fa259ULL, 0x1.dd074b8f0cca4p+18};
const Golden kOceanTwoRanksOverlap = {
    "ocean.2ranks.overlap", 0x965ece533aca1800ULL, 0x1.dff2b258bf36bp+18};
const Golden kAtmosOneRank = {
    "atmos.1rank", 0xe9e9dbb566250087ULL, 0x1.28c75851eb8cfp+18};
const Golden kAtmosOneRankOverlap = {
    "atmos.1rank.overlap", 0x8f7ea3e66d0fa04cULL, 0x1.2f2d5851eb8cbp+18};
const Golden kAtmosTwoRanks = {
    "atmos.2ranks", 0x378af8c3c6f3e1ecULL, 0x1.70b07de7cbd4dp+17};
const Golden kAtmosTwoRanksOverlap = {
    "atmos.2ranks.overlap", 0x5238df06049f6822ULL, 0x1.721234355f3a8p+17};

TEST(HostSplit, OceanOneRank) {
  check(kOceanOneRank, run("ocean.1rank", ocean_preset(1, 1), 1, false));
  check(kOceanOneRankOverlap,
        run("ocean.1rank.overlap", ocean_preset(1, 1), 1, true));
}

TEST(HostSplit, OceanTwoRanks) {
  check(kOceanTwoRanks, run("ocean.2ranks", ocean_preset(2, 1), 2, false));
  check(kOceanTwoRanksOverlap,
        run("ocean.2ranks.overlap", ocean_preset(2, 1), 2, true));
}

TEST(HostSplit, AtmosphereOneRank) {
  check(kAtmosOneRank, run("atmos.1rank", atmosphere_preset(1, 1), 1, false));
  check(kAtmosOneRankOverlap,
        run("atmos.1rank.overlap", atmosphere_preset(1, 1), 1, true));
}

// The 2-rank goldens with the calling thread confined to one CPU: both
// ranks run as fibers on it.
TEST(HostSplit, TwoRanksOnOneCpu) {
  const support::CpuConfinement one({support::allowed_cpus().front()});
  check(kOceanTwoRanks, run("ocean.2ranks", ocean_preset(2, 1), 2, false));
  check(kOceanTwoRanksOverlap,
        run("ocean.2ranks.overlap", ocean_preset(2, 1), 2, true));
  check(kAtmosTwoRanks,
        run("atmos.2ranks", atmosphere_preset(2, 1), 2, false));
  check(kAtmosTwoRanksOverlap,
        run("atmos.2ranks.overlap", atmosphere_preset(2, 1), 2, true));
}

TEST(HostSplit, AtmosphereTwoRanks) {
  check(kAtmosTwoRanks,
        run("atmos.2ranks", atmosphere_preset(2, 1), 2, false));
  check(kAtmosTwoRanksOverlap,
        run("atmos.2ranks.overlap", atmosphere_preset(2, 1), 2, true));
}

}  // namespace
}  // namespace hyades::gcm
