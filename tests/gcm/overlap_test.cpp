// Compute/communication overlap in the PS (ModelConfig::overlap_comm).
//
// Two regression surfaces:
//   1. Both modes must reproduce their golden StepStats *exactly*.  For
//      overlap_comm = off the blocking path is start+finish of the
//      split-phase core, and the interior/rim kernel split must not move
//      a single flop or microsecond; those hexfloat values were captured
//      from the pre-split tree on all four topography presets.  The
//      overlap_comm = on rows lock the split-phase path's virtual time
//      on two-way SMPs (four one-crossing SMP syncs per exchange_start);
//      they were captured before an SMP sync became one host crossing.
//   2. overlap_comm = on must leave the model state bitwise identical
//      (the refactor only re-orders *where* cells are computed, never
//      the per-cell arithmetic) while recovering exchange time.
#include <gtest/gtest.h>

#include <mutex>
#include <vector>

#include "gcm/model.hpp"
#include "net/arctic_model.hpp"
#include "net/ethernet.hpp"

namespace hyades::gcm {
namespace {

struct RankStats {
  double tps = 0, exch = 0, tds = 0, ps = 0, ds = 0;
  int ni = 0;
  double interior = 0, hidden = 0;  // overlap mode only; 0 when off
};

struct GoldenCase {
  ModelConfig::Topography topo;
  double max_clock;
  RankStats rank[4];
  bool overlap = false;
};

// 2 SMPs x 2 procs, ArcticModel, ocean 16x8x4, px=py=2, halo=2, dt=400,
// visc_h=1e6, diff_h=1e5, stats of the third step.  The overlap-off rows
// come from the seed (blocking-only) implementation.
const GoldenCase kGolden[] = {
    {ModelConfig::Topography::kFlat,
     0x1.36f5a4c55a4c7p+13,
     {{0x1.8093294532974p+10, 0x1.3f91d7a91d8p+9, 0x1.60d55555555f8p+10,
       0x1.5f3cp+15, 0x1.d37p+13, 10},
      {0x1.8093294532974p+10, 0x1.3f91d7a91d8p+9, 0x1.60d55555555f8p+10,
       0x1.5f3cp+15, 0x1.d37p+13, 10},
      {0x1.85d3dc013dc2cp+10, 0x1.3679a3879a3d8p+9, 0x1.5b94a2994a34p+10,
       0x1.6e8cp+15, 0x1.d13p+13, 10},
      {0x1.85d3dc013dc2cp+10, 0x1.3679a3879a3d8p+9, 0x1.5b94a2994a34p+10,
       0x1.6e8cp+15, 0x1.d13p+13, 10}}},
    {ModelConfig::Topography::kRidge,
     0x1.82ff97bcf97adp+13,
     {{0x1.75a35fe235f7p+10, 0x1.3fa2e8ba2e7dp+9, 0x1.39e03b9403c2cp+11,
       0x1.4e18p+15, 0x1.78d8p+14, 19},
      {0x1.74613dc013d48p+10, 0x1.3f91d7a91d6cp+9, 0x1.3a814ca514d4p+11,
       0x1.4c2ep+15, 0x1.78f8p+14, 19},
      {0x1.7a625db625d4p+10, 0x1.36822c1022b2p+9, 0x1.3780bcaa0bd4p+11,
       0x1.5ca4p+15, 0x1.77c8p+14, 19},
      {0x1.79203b9403b2p+10, 0x1.36711aff11a1p+9, 0x1.3821cdbb1ce5p+11,
       0x1.5abap+15, 0x1.77e8p+14, 19}}},
    {ModelConfig::Topography::kContinents,
     0x1.7dbabacd6bab7p+13,
     {{0x1.4a3403b94034p+10, 0x1.4b7c8253c816p+9, 0x1.25e8c6980c728p+11,
       0x1.00f8p+15, 0x1.2064p+14, 18},
      {0x1.4e3470f34708p+10, 0x1.3f91d7a91d6cp+9, 0x1.23c6f6616f6fp+11,
       0x1.1088p+15, 0x1.35cp+14, 18},
      {0x1.4c61f07c1f01p+10, 0x1.422009ee0091p+9, 0x1.24d1d0369d0c4p+11,
       0x1.0bbp+15, 0x1.1fc4p+14, 18},
      {0x1.50e4129e4123p+10, 0x1.363de7cbde6fp+9, 0x1.226f258bf2618p+11,
       0x1.1c04p+15, 0x1.351p+14, 18}}},
    {ModelConfig::Topography::kBasin,
     0x1.5c7fed61bed6ap+13,
     {{0x1.4f2b7b30b7b5p+10, 0x1.3f91d7a91d7ep+9, 0x1.0ad138c913948p+11,
       0x1.120ap+15, 0x1.2d3p+14, 16},
      {0x1.544736ec73708p+10, 0x1.3fd61bed61c2p+9, 0x1.08435aeb35b6cp+11,
       0x1.19dp+15, 0x1.2cbp+14, 16},
      {0x1.52655a4c55a68p+10, 0x1.36578165781ap+9, 0x1.0934493b449bcp+11,
       0x1.1e4ap+15, 0x1.2c5p+14, 16},
      {0x1.578116081162p+10, 0x1.369bc5a9bc5ep+9, 0x1.06a66b5d66bdcp+11,
       0x1.261p+15, 0x1.2bdp+14, 16}}},
    {ModelConfig::Topography::kFlat,
     0x1.1c0355f4355ddp+13,
     {{0x1.338bb6c4bb6dcp+10, 0x1.4b05e5505e5bp+8, 0x1.64fe9099e90a8p+10,
       0x1.5f3cp+15, 0x1.d37p+13, 10, 0x1.01eb851eb852p+7,
       0x1.a1e500ee50102p+9},
      {0x1.338bb6c4bb6dcp+10, 0x1.4b05e5505e5bp+8, 0x1.64fe9099e90a8p+10,
       0x1.5f3cp+15, 0x1.d37p+13, 10, 0x1.01eb851eb852p+7,
       0x1.a1e500ee50102p+9},
      {0x1.3d788391883a8p+10, 0x1.4b85e5505e5bp+8, 0x1.5b11c3cd1c3dcp+10,
       0x1.6e8cp+15, 0x1.d13p+13, 10, 0x1.1e147ae147aep+7,
       0x1.a2e500ee50102p+9},
      {0x1.3d788391883a8p+10, 0x1.4b85e5505e5bp+8, 0x1.5b11c3cd1c3dcp+10,
       0x1.6e8cp+15, 0x1.d13p+13, 10, 0x1.1e147ae147aep+7,
       0x1.a2e500ee50102p+9}},
     /*overlap=*/true},
    {ModelConfig::Topography::kRidge,
     0x1.67df4fbf74fbap+13,
     {{0x1.289bed61bed7p+10, 0x1.4b280772807bp+8, 0x1.3bb843068439cp+11,
       0x1.4e18p+15, 0x1.78d8p+14, 19, 0x1.01eb851eb852p+7,
       0x1.a1e500ee500eap+9},
      {0x1.2759cb3f9cb4cp+10, 0x1.4b05e5505e58p+8, 0x1.3c595417954acp+11,
       0x1.4c2ep+15, 0x1.78f8p+14, 19, 0x1.01eb851eb852p+7,
       0x1.a1e500ee500eap+9},
      {0x1.320b498ab4994p+10, 0x1.4ba80772807ap+8, 0x1.370094f209588p+11,
       0x1.5ca4p+15, 0x1.77c8p+14, 19, 0x1.1e147ae147aep+7,
       0x1.a2e500ee500eap+9},
      {0x1.30c9276892774p+10, 0x1.4b85e5505e58p+8, 0x1.37a1a6031a698p+11,
       0x1.5abap+15, 0x1.77e8p+14, 19, 0x1.1e147ae147aep+7,
       0x1.a2e500ee500eap+9}},
     /*overlap=*/true},
    {ModelConfig::Topography::kContinents,
     0x1.61e4b0408b03bp+13,
     {{0x1.015e7cbde7ccp+10, 0x1.73a2e8ba2e8cp+8, 0x1.24b9c3cd1c46p+11,
       0x1.00f8p+15, 0x1.2064p+14, 18, 0x1.219999999998p+6,
       0x1.a1e500ee50092p+9},
      {0x1.012cfe72cfe74p+10, 0x1.4b05e5505e55p+8, 0x1.24b0e9590e9ecp+11,
       0x1.1088p+15, 0x1.35cp+14, 18, 0x1.64b851eb852p+6,
       0x1.a1e500ee50092p+9},
      {0x1.0937a91d7a928p+10, 0x1.7796f6616f68p+8, 0x1.20cd2d9d52e2cp+11,
       0x1.0bbp+15, 0x1.1fc4p+14, 18, 0x1.2fae147ae148p+6,
       0x1.a2e500ee500bp+9},
      {0x1.08a6980c69814p+10, 0x1.4b85e5505e56p+8, 0x1.20f41c8c41d18p+11,
       0x1.1c04p+15, 0x1.351p+14, 18, 0x1.80e147ae147cp+6,
       0x1.a2e500ee500bp+9}},
     /*overlap=*/true},
    {ModelConfig::Topography::kBasin,
     0x1.40d5b9df1b9e3p+13,
     {{0x1.022408b0408c8p+10, 0x1.4b05e5505e5bp+8, 0x1.0bf37dac37e26p+11,
       0x1.120ap+15, 0x1.2d3p+14, 16, 0x1.01eb851eb852p+7,
       0x1.a1e500ee50102p+9},
      {0x1.073fc46bfc484p+10, 0x1.4b8e6dd8e6e3p+8, 0x1.09659fce5a048p+11,
       0x1.19dp+15, 0x1.2cbp+14, 16, 0x1.01eb851eb852p+7,
       0x1.a1e500ee50102p+9},
      {0x1.0a1b12edb1304p+10, 0x1.4b85e5505e5bp+8, 0x1.07f7f88d7f908p+11,
       0x1.1e4ap+15, 0x1.2c5p+14, 16, 0x1.1e147ae147aep+7,
       0x1.a2e500ee50102p+9},
      {0x1.0f36cea96cecp+10, 0x1.4c0e6dd8e6e3p+8, 0x1.056a1aafa1b26p+11,
       0x1.261p+15, 0x1.2bdp+14, 16, 0x1.1e147ae147aep+7,
       0x1.a2e500ee50102p+9}},
     /*overlap=*/true},
};

ModelConfig golden_cfg(ModelConfig::Topography topo, bool overlap) {
  ModelConfig cfg;
  cfg.isomorph = Isomorph::kOcean;
  cfg.nx = 16;
  cfg.ny = 8;
  cfg.nz = 4;
  cfg.px = 2;
  cfg.py = 2;
  cfg.halo = 2;
  cfg.dt = 400.0;
  cfg.visc_h = 1.0e6;
  cfg.diff_h = 1.0e5;
  cfg.topography = topo;
  cfg.overlap_comm = overlap;
  cfg.validate();
  return cfg;
}

void expect_golden(const GoldenCase& gc) {
  const net::ArcticModel net;
  cluster::MachineConfig mc;
  mc.smp_count = 2;
  mc.procs_per_smp = 2;
  mc.interconnect = &net;
  cluster::Runtime rt(mc);
  const ModelConfig cfg = golden_cfg(gc.topo, gc.overlap);
  std::mutex mu;
  rt.run([&](cluster::RankContext& ctx) {
    comm::Comm comm(ctx);
    Model m(cfg, comm);
    m.initialize();
    StepStats st{};
    for (int s = 0; s < 3; ++s) st = m.step();
    std::lock_guard<std::mutex> lock(mu);
    const RankStats& g = gc.rank[ctx.rank()];
    // EXPECT_EQ on doubles: bit-identical to the golden, not merely close.
    EXPECT_EQ(st.tps_us, g.tps) << "rank " << ctx.rank();
    EXPECT_EQ(st.tps_exch_us, g.exch) << "rank " << ctx.rank();
    EXPECT_EQ(st.tds_us, g.tds) << "rank " << ctx.rank();
    EXPECT_EQ(st.ps_flops, g.ps) << "rank " << ctx.rank();
    EXPECT_EQ(st.ds_flops, g.ds) << "rank " << ctx.rank();
    EXPECT_EQ(st.cg_iterations, g.ni) << "rank " << ctx.rank();
    // The overlap-only observables; off mode never reports them (the
    // off rows hold zeros).
    EXPECT_EQ(st.tps_interior_us, g.interior) << "rank " << ctx.rank();
    EXPECT_EQ(st.overlap_us, g.hidden) << "rank " << ctx.rank();
    if (!gc.overlap) {
      EXPECT_EQ(ctx.accounting().overlap_us, 0.0);
    }
  });
  EXPECT_EQ(rt.max_clock(), gc.max_clock);
}

TEST(OverlapOff, ReproducesSeedStepStatsExactly) {
  for (const GoldenCase& gc : kGolden) {
    if (!gc.overlap) expect_golden(gc);
  }
}

TEST(OverlapOn, ReproducesSplitPhaseStepStatsExactly) {
  for (const GoldenCase& gc : kGolden) {
    if (gc.overlap) expect_golden(gc);
  }
}

struct RunOut {
  StepStats st{};
  double max_clock = 0;
  std::vector<double> state;
};

void run_model(bool overlap, const net::Interconnect& net,
               std::array<RunOut, 4>& out) {
  cluster::MachineConfig mc;
  mc.smp_count = 2;
  mc.procs_per_smp = 2;
  mc.interconnect = &net;
  cluster::Runtime rt(mc);
  ModelConfig cfg = golden_cfg(ModelConfig::Topography::kRidge, overlap);
  cfg.nx = 32;
  cfg.ny = 16;
  cfg.validate();
  std::mutex mu;
  rt.run([&](cluster::RankContext& ctx) {
    comm::Comm comm(ctx);
    Model m(cfg, comm);
    m.initialize();
    StepStats st{};
    for (int s = 0; s < 3; ++s) st = m.step();
    std::lock_guard<std::mutex> lock(mu);
    RunOut& o = out[static_cast<std::size_t>(ctx.rank())];
    o.st = st;
    o.max_clock = ctx.clock().now();
    const State& state = m.state();
    for (const Array3D<double>* f :
         {&state.u, &state.v, &state.w, &state.theta, &state.salt}) {
      const std::size_t n = f->nx() * f->ny() * f->nz();
      o.state.insert(o.state.end(), f->data(), f->data() + n);
    }
  });
}

// The interior/rim split changes only *when* cells are computed, never
// the arithmetic: all five state fields must be bitwise identical after
// three steps with overlap on vs off, on both interconnects.
TEST(Overlap, StateBitwiseIdenticalOnAndOff) {
  const net::ArcticModel arctic;
  const net::EthernetModel fe = net::fast_ethernet();
  const net::Interconnect* nets[] = {&arctic, &fe};
  for (const net::Interconnect* net : nets) {
    std::array<RunOut, 4> off, on;
    run_model(false, *net, off);
    run_model(true, *net, on);
    for (int r = 0; r < 4; ++r) {
      ASSERT_EQ(off[static_cast<std::size_t>(r)].state,
                on[static_cast<std::size_t>(r)].state)
          << "rank " << r;
      EXPECT_EQ(off[static_cast<std::size_t>(r)].st.cg_iterations,
                on[static_cast<std::size_t>(r)].st.cg_iterations);
    }
  }
}

// On Fast Ethernet -- exchange-dominated -- overlap must actually hide
// communication: overlap_us > 0, a shorter PS, and a shorter run.
TEST(Overlap, HidesExchangeTimeOnEthernet) {
  const net::EthernetModel fe = net::fast_ethernet();
  std::array<RunOut, 4> off, on;
  run_model(false, fe, off);
  run_model(true, fe, on);
  for (int r = 0; r < 4; ++r) {
    const RunOut& o = off[static_cast<std::size_t>(r)];
    const RunOut& n = on[static_cast<std::size_t>(r)];
    EXPECT_GT(n.st.overlap_us, 0.0) << "rank " << r;
    EXPECT_GT(n.st.tps_interior_us, 0.0) << "rank " << r;
    EXPECT_LT(n.st.tps_us, o.st.tps_us) << "rank " << r;
    EXPECT_LT(n.max_clock, o.max_clock) << "rank " << r;
    // overlap_us is credited per collective, so the five concurrent
    // exchanges may each count the same hidden wall-clock window; the
    // total is still bounded by five times the blocking PS.
    EXPECT_LT(n.st.overlap_us, 5.0 * o.st.tps_us);
  }
}

}  // namespace
}  // namespace hyades::gcm
