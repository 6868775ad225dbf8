// Kernel goldens: the bits every host kernel produces, locked.
//
// Each PS and DS kernel the time-stepper calls runs once on a copy of a
// two-step-old state, on every rank of a 2x2 tiling of a small
// continents grid (land, shelves, neighbour halos and the overlap
// path's rim windows all occur), under the ocean and the atmosphere
// presets' physics: DST-3 and centered advection, biharmonic mixing,
// implicit vertical and Richardson mixing, radiation, moisture and
// convection.  The bit patterns of every output array (halos included,
// so a stray write shows too) and the returned flops are folded, rank
// by rank, into one 64-bit FNV-1a digest per kernel; the flops are also
// kept as a hexfloat total.  The third step's StepStats and the state
// after it close each table.
//
// The goldens were captured before the kernels' loops were
// restructured.  Any change to one cell's arithmetic -- an operand
// swapped, a sum reassociated, a product and a sum contracted into an
// FMA -- moves a digest.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "gcm/cg.hpp"
#include "gcm/halo.hpp"
#include "gcm/kernels.hpp"
#include "gcm/model.hpp"
#include "gcm/physics.hpp"
#include "tests/gcm/gcm_test_util.hpp"

namespace hyades::gcm {
namespace {

using kernels::Range;
using testing::run_ranks;

class Digest {
 public:
  void add_bits(std::uint64_t w) {
    for (int b = 0; b < 64; b += 8) {
      h_ ^= (w >> b) & 0xffU;
      h_ *= 0x100000001b3ULL;
    }
  }
  void add(double x) { add_bits(std::bit_cast<std::uint64_t>(x)); }
  template <typename Array>
  void add_array(const Array& f) {
    for (const double x : f) add(x);
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

struct Record {
  std::string name;
  std::uint64_t digest;
  double flops;
};

Array3D<double> zeros3(const Array3D<double>& like) {
  return Array3D<double>(like.nx(), like.ny(), like.nz(), 0.0);
}

// The overlap path's windows: the interior sub-window, then the rim.
std::vector<Range> split(const Decomp& dec, const Range& r) {
  const Range ri = kernels::interior(dec, r);
  std::array<Range, 4> slabs{};
  const int n = kernels::rim(r, ri, slabs);
  std::vector<Range> out{ri};
  out.insert(out.end(), slabs.begin(), slabs.begin() + n);
  return out;
}

// Runs every kernel on copies of m's state and records one digest per
// kernel, then steps once more and records the step.
std::vector<Record> run_kernels(Model& m, comm::Comm& comm) {
  const ModelConfig& cfg = m.config();
  const Decomp& dec = m.decomp();
  const TileGrid& g = m.grid();
  State& st = m.state();
  const int h = dec.halo;
  // Fresh halos, as the step's PS sees them (the step repeats these
  // exchanges, so the model's own trajectory is unchanged).
  for (Array3D<double>* f : {&st.u, &st.v, &st.w, &st.theta, &st.salt}) {
    exchange3d(comm, dec, *f, h);
  }
  const State& s = st;
  const Range r2 = kernels::extended(dec, 2);
  const Range r1 = kernels::extended(dec, 1);
  const Range ri = kernels::extended(dec, 0);
  const Range rc{h, h + dec.snx + 1, h, h + dec.sny + 1};
  const std::vector<Range> r1_split = split(dec, r1);
  const auto over = [](const std::vector<Range>& ws, const auto& fn) {
    double fl = 0;
    for (const Range& w : ws) fl += fn(w);
    return fl;
  };

  std::vector<Record> out;
  const auto rec = [&](const char* name, double flops, const auto&... fs) {
    Digest d;
    (d.add_array(fs), ...);
    d.add(flops);
    out.push_back({name, d.value(), flops});
  };

  {
    Array3D<double> phi = s.phi;
    const double fl =
        kernels::hydrostatic(cfg, g, s.theta, s.salt, phi, r2);
    rec("hydrostatic", fl, phi);
  }
  {
    Array3D<double> gu = s.gu, gv = s.gv;
    const double fl = kernels::momentum_tendencies(cfg, g, s.u, s.v, s.w,
                                                   s.phi, gu, gv, 0.0, r1);
    rec("momentum_tendencies", fl, gu, gv);
  }
  {
    Array3D<double> gu = s.gu, gv = s.gv;
    const double fl = over(r1_split, [&](const Range& w) {
      return kernels::momentum_tendencies(cfg, g, s.u, s.v, s.w, s.phi, gu,
                                          gv, cfg.visc_v, w);
    });
    rec("momentum_tendencies.visc_v.split", fl, gu, gv);
  }
  {
    Array3D<double> gt = s.gt;
    const double fl = kernels::tracer_tendency(cfg, g, s.u, s.v, s.w, s.theta,
                                               gt, cfg.diff_h, 0.0, r1);
    rec("tracer_tendency.dst3", fl, gt);
  }
  {
    Array3D<double> gs = s.gs;
    const double fl = over(r1_split, [&](const Range& w) {
      return kernels::tracer_tendency(cfg, g, s.u, s.v, s.w, s.salt, gs,
                                      cfg.diff_h, cfg.diff_v, w);
    });
    rec("tracer_tendency.dst3.kappa_v.split", fl, gs);
  }
  {
    ModelConfig c2 = cfg;
    c2.advection = ModelConfig::Advection::kCentered2;
    Array3D<double> gt = s.gt;
    const double fl = kernels::tracer_tendency(c2, g, s.u, s.v, s.w, s.theta,
                                               gt, cfg.diff_h, cfg.diff_v, r1);
    rec("tracer_tendency.centered2.kappa_v", fl, gt);
  }
  {
    Array3D<double> lap = zeros3(s.theta);
    const double fl =
        kernels::masked_laplacian(cfg, g, s.theta, g.hFacC, lap, r1);
    rec("masked_laplacian.theta", fl, lap);
  }
  {
    Array3D<double> lap = zeros3(s.u);
    const double fl = over(r1_split, [&](const Range& w) {
      return kernels::masked_laplacian(cfg, g, s.u, g.hFacW, lap, w);
    });
    rec("masked_laplacian.u.split", fl, lap);
  }
  {
    Array3D<double> scratch = zeros3(s.u), gu = s.gu;
    const double fl = kernels::biharmonic_tendency(cfg, g, s.u, g.hFacW,
                                                   scratch, gu, cfg.visc_4, r1);
    rec("biharmonic_tendency.u", fl, scratch, gu);
  }
  {
    Array3D<double> scratch = zeros3(s.v), gv = s.gv;
    const double fl = kernels::biharmonic_tendency(cfg, g, s.v, g.hFacS,
                                                   scratch, gv, cfg.visc_4, r1);
    rec("biharmonic_tendency.v", fl, scratch, gv);
  }
  {
    Array3D<double> scratch = zeros3(s.theta), gt = s.gt;
    const double fl = over(r1_split, [&](const Range& w) {
      return kernels::biharmonic_tendency(cfg, g, s.theta, g.hFacC, scratch,
                                          gt, cfg.diff_4, w);
    });
    rec("biharmonic_tendency.theta.split", fl, scratch, gt);
  }
  {
    Array3D<double> theta = s.theta;
    const double fl = kernels::ab2_update(cfg, g.hFacC, theta, s.gt, s.gt_nm1,
                                          false, r1);
    rec("ab2_update.theta", fl, theta);
  }
  {
    Array3D<double> u = s.u;
    const double fl =
        kernels::ab2_update(cfg, g.hFacW, u, s.gu, s.gu_nm1, true, r1);
    rec("ab2_update.u.first", fl, u);
  }
  {
    Array3D<double> theta = s.theta;
    const double fl = kernels::implicit_vertical_diffusion(
        cfg, g, theta, g.hFacC, cfg.diff_v, r1);
    rec("implicit_vertical_diffusion.theta", fl, theta);
  }
  {
    Array3D<double> u = s.u;
    const double fl = kernels::implicit_vertical_diffusion(
        cfg, g, u, g.hFacW, cfg.visc_v, r1);
    rec("implicit_vertical_diffusion.u", fl, u);
  }
  {
    State p = s;
    const SurfaceForcing none;
    const double fl = apply_physics(cfg, g, dec, p, none, r1);
    rec("apply_physics", fl, p.gu, p.gv, p.gt, p.gs);
  }
  {
    Array3D<double> theta = s.theta;
    const double fl = convective_adjustment(cfg, g, theta, r1);
    rec("convective_adjustment", fl, theta);
  }
  {
    Array3D<double> w = s.w;
    const double fl = kernels::diagnose_w(cfg, g, s.u, s.v, w, ri);
    rec("diagnose_w", fl, w);
  }
  Array2D<double> rhs(s.ps.nx(), s.ps.ny(), 0.0);
  {
    const double fl = kernels::ps_rhs(cfg, g, s.u, s.v, rhs, ri);
    rec("ps_rhs", fl, rhs);
  }
  {
    Array3D<double> u = s.u, v = s.v;
    const double fl = kernels::correct_velocity(cfg, g, s.ps, u, v, rc);
    rec("correct_velocity", fl, u, v);
  }
  {
    // Tracers stand in for velocities so that closed faces hold values.
    Array3D<double> u = s.theta, v = s.salt;
    kernels::apply_velocity_masks(g, u, v, r1);
    rec("apply_velocity_masks", 0.0, u, v);
  }

  ModelConfig cj = cfg;
  cj.cg_jacobi = true;
  const EllipticOperator& line = m.stepper().elliptic();
  const EllipticOperator jacobi(cj, dec, g);
  Array2D<double> lp(s.ps.nx(), s.ps.ny(), 0.0);
  {
    const double fl = line.apply(s.ps, lp);
    rec("elliptic.apply", fl, lp);
  }
  {
    Array2D<double> z(s.ps.nx(), s.ps.ny(), 0.0);
    const double fl = line.precondition(lp, z);
    rec("elliptic.precondition.line", fl, z);
  }
  {
    Array2D<double> z(s.ps.nx(), s.ps.ny(), 0.0);
    const double fl = jacobi.precondition(lp, z);
    rec("elliptic.precondition.jacobi", fl, z);
  }
  Array2D<double> b = rhs;
  for (double& x : b) x = -x;
  for (const EllipticOperator* op : {&line, &jacobi}) {
    Array2D<double> p(s.ps.nx(), s.ps.ny(), 0.0);
    const CgResult res =
        cg_solve(comm, dec, *op, b, p, cfg.cg_tol, cfg.cg_max_iter);
    Digest d;
    d.add_array(p);
    d.add_bits(static_cast<std::uint64_t>(res.iterations));
    d.add(res.residual);
    d.add(res.rhs_norm);
    d.add_bits(res.converged ? 1U : 0U);
    d.add(res.flops);
    out.push_back({op == &line ? "cg_solve.line" : "cg_solve.jacobi",
                   d.value(), res.flops});
  }

  const StepStats ss = m.step();
  {
    Digest d;
    for (const double x : {ss.tps_us, ss.tps_exch_us, ss.tps_interior_us,
                           ss.overlap_us, ss.tds_us, ss.cg_residual,
                           ss.ps_flops, ss.ds_flops}) {
      d.add(x);
    }
    d.add_bits(static_cast<std::uint64_t>(ss.cg_iterations));
    d.add_bits(ss.cg_converged ? 1U : 0U);
    out.push_back({"step3.stats", d.value(), ss.ps_flops + ss.ds_flops});
  }
  rec("step3.state", 0.0, s.u, s.v, s.w, s.theta, s.salt, s.phi, s.ps, s.gu,
      s.gv, s.gt, s.gs, s.gu_nm1, s.gv_nm1, s.gt_nm1, s.gs_nm1);
  return out;
}

struct Golden {
  const char* name;
  std::uint64_t digest;
  double flops;
};

// Runs the kernels on all four ranks and compares the per-kernel
// digests, folded over ranks in rank order, with `want`.  On a mismatch
// the whole measured table is printed in this file's syntax.
void check(ModelConfig cfg, std::span<const Golden> want) {
  cfg.nx = 32;
  cfg.ny = 16;
  cfg.topography = ModelConfig::Topography::kContinents;
  cfg.validate();
  std::vector<std::vector<Record>> ranks(4);
  run_ranks(4, [&](cluster::RankContext&, comm::Comm& comm) {
    Model m(cfg, comm);
    m.initialize();
    m.step();
    m.step();
    ranks[static_cast<std::size_t>(comm.group_rank())] = run_kernels(m, comm);
  });

  const std::size_t n = ranks[0].size();
  std::vector<Golden> got;
  for (std::size_t i = 0; i < n; ++i) {
    Digest d;
    double flops = 0;
    for (const auto& rank : ranks) {
      ASSERT_EQ(rank.size(), n);
      d.add_bits(rank[i].digest);
      flops += rank[i].flops;
    }
    got.push_back({ranks[0][i].name.c_str(), d.value(), flops});
  }

  bool same = got.size() == want.size();
  for (std::size_t i = 0; same && i < got.size(); ++i) {
    same = std::string(got[i].name) == want[i].name &&
           got[i].digest == want[i].digest && got[i].flops == want[i].flops;
  }
  if (!same) {
    std::string table;
    for (const Golden& e : got) {
      char line[160];
      std::snprintf(line, sizeof line, "    {\"%s\", 0x%016llxULL, %a},\n",
                    e.name, static_cast<unsigned long long>(e.digest),
                    e.flops);
      table += line;
    }
    ADD_FAILURE() << "kernel digests moved; measured table:\n" << table;
  }
  for (std::size_t i = 0; i < std::min(got.size(), want.size()); ++i) {
    EXPECT_EQ(got[i].name, std::string(want[i].name));
    EXPECT_EQ(got[i].digest, want[i].digest) << want[i].name;
    EXPECT_EQ(got[i].flops, want[i].flops) << want[i].name;
  }
}

// The digests hold only while the compiler rounds a product and a sum
// separately.  (1 + 2^-30)^2 = 1 + 2^-29 + 2^-60 rounds to 1 + 2^-29, so
// a*b + c is exactly 0; contracted into a fused multiply-add it is 2^-60.
// The volatile loads keep the compiler from folding the constants.
TEST(FpContract, ProductPlusSumRoundsTwice) {
  volatile double va = 1.0 + 0x1p-30;
  volatile double vb = 1.0 + 0x1p-30;
  volatile double vc = -(1.0 + 0x1p-29);
  const double a = va, b = vb, c = vc;
  EXPECT_EQ(a * b + c, 0.0);
}

// Captured from the kernels before their loops were restructured.
const Golden kOcean[] = {
    {"hydrostatic", 0x5d321cb79ded3489ULL, 0x1.826p+17},
    {"momentum_tendencies", 0x5cc2292a7aa12129ULL, 0x1.17e6p+20},
    {"momentum_tendencies.visc_v.split", 0x17114830df75deeeULL, 0x1.17e6p+20},
    {"tracer_tendency.dst3", 0x18d5b9c5ccd22229ULL, 0x1.6104p+20},
    {"tracer_tendency.dst3.kappa_v.split", 0xf9f74e02e437cf02ULL, 0x1.6104p+20},
    {"tracer_tendency.centered2.kappa_v", 0x7626234936a3db1cULL, 0x1.75c8p+19},
    {"masked_laplacian.theta", 0x4e675f286f862cafULL, 0x1.67fp+18},
    {"masked_laplacian.u.split", 0x960d5c851d2f221eULL, 0x1.529cp+18},
    {"biharmonic_tendency.u", 0xa6e9d62d1c976a57ULL, 0x1.8e74p+19},
    {"biharmonic_tendency.v", 0xf1d3f2c0e3caf6d2ULL, 0x1.7e36p+19},
    {"biharmonic_tendency.theta.split", 0x8ae23f552ba97e10ULL, 0x1.ea94p+19},
    {"ab2_update.theta", 0xca3b2fb848cfec0bULL, 0x1.14ep+16},
    {"ab2_update.u.first", 0x69499bced45746d6ULL, 0x1.0478p+16},
    {"implicit_vertical_diffusion.theta", 0xbb357de556a95e7dULL, 0x1.b904p+17},
    {"implicit_vertical_diffusion.u", 0x6b7ca065ddbf9e25ULL, 0x1.9eep+17},
    {"apply_physics", 0x1dbcf2e30eabff56ULL, 0x1.c515p+19},
    {"convective_adjustment", 0x4ecadf218a364f4eULL, 0x0p+0},
    {"diagnose_w", 0x476fd88c5e4643a8ULL, 0x1.fc8p+16},
    {"ps_rhs", 0x4b4a8bf72d0f2812ULL, 0x1.d42p+16},
    {"correct_velocity", 0x37c342cbc43afe9cULL, 0x1.7fdp+15},
    {"apply_velocity_masks", 0x3159f243d1c4f089ULL, 0x0p+0},
    {"elliptic.apply", 0x590e16da296a779aULL, 0x1.b9p+11},
    {"elliptic.precondition.line", 0xcef707e7fa7ca1d0ULL, 0x1.17p+12},
    {"elliptic.precondition.jacobi", 0x5a91a7a690c8764bULL, 0x1p+9},
    {"cg_solve.line", 0x1ba0fbdc94d54d2bULL, 0x1.491p+19},
    {"cg_solve.jacobi", 0xb5e5ba66dd17c42eULL, 0x1.ae5fp+19},
    {"step3.stats", 0x82fb3afe4aab5471ULL, 0x1.3cb1f8p+23},
    {"step3.state", 0x00d7b53d49d81741ULL, 0x0p+0},
};

const Golden kAtmosphere[] = {
    {"hydrostatic", 0x637678739fd40c31ULL, 0x1.028p+16},
    {"momentum_tendencies", 0x5bdf545a24130cfdULL, 0x1.76dcp+18},
    {"momentum_tendencies.visc_v.split", 0x37037e85d3c5a495ULL, 0x1.76dcp+18},
    {"tracer_tendency.dst3", 0xcd45a1e5bbf778b8ULL, 0x1.d88cp+18},
    {"tracer_tendency.dst3.kappa_v.split", 0x93c853f599705fe2ULL, 0x1.d88cp+18},
    {"tracer_tendency.centered2.kappa_v", 0xd9dd5c6cfb4e355eULL, 0x1.f458p+17},
    {"masked_laplacian.theta", 0xd10292bcc856a283ULL, 0x1.e1dp+16},
    {"masked_laplacian.u.split", 0xbd1969f199e2db8cULL, 0x1.c56p+16},
    {"biharmonic_tendency.u", 0x4345ae8676c0ab61ULL, 0x1.0abp+18},
    {"biharmonic_tendency.v", 0xb38a50ccae36eb19ULL, 0x1.ffdcp+17},
    {"biharmonic_tendency.theta.split", 0xfc35cc1a9b886f36ULL, 0x1.486p+18},
    {"ab2_update.theta", 0x5dbab4b08422453dULL, 0x1.72ap+14},
    {"ab2_update.u.first", 0xd018e428d010852aULL, 0x1.5ccp+14},
    {"implicit_vertical_diffusion.theta", 0xc1599a9bae41dba8ULL, 0x1.2488p+16},
    {"implicit_vertical_diffusion.u", 0x7700527ace0f790fULL, 0x1.134p+16},
    {"apply_physics", 0x340d0008218ed39dULL, 0x1.ecbp+17},
    {"convective_adjustment", 0x189b6d4b93f6ac2dULL, 0x1.288p+14},
    {"diagnose_w", 0x0117121e252ee862ULL, 0x1.548p+15},
    {"ps_rhs", 0x4d27d3b2adfae8a0ULL, 0x1.3c2p+15},
    {"correct_velocity", 0x3f33d669e9f90cebULL, 0x1.274p+14},
    {"apply_velocity_masks", 0xd99a88ebee1c4914ULL, 0x0p+0},
    {"elliptic.apply", 0xf3ab897b02a2dcd5ULL, 0x1.b9p+11},
    {"elliptic.precondition.line", 0xda942fc43879d3a6ULL, 0x1.17p+12},
    {"elliptic.precondition.jacobi", 0x51ec6be02ae346ccULL, 0x1p+9},
    {"cg_solve.line", 0xb31ad239b400402cULL, 0x1.491p+19},
    {"cg_solve.jacobi", 0xf0e0f8fa1176a9f3ULL, 0x1.ae5fp+19},
    {"step3.stats", 0xa730e860c00771adULL, 0x1.ce758p+21},
    {"step3.state", 0xd324d07f46c9c004ULL, 0x0p+0},
};

TEST(KernelGolden, OceanPreset) { check(ocean_preset(2, 2), kOcean); }

TEST(KernelGolden, AtmospherePreset) {
  check(atmosphere_preset(2, 2), kAtmosphere);
}

// ---- the i-chunk split (kernels::split_i), one thread ----------------

// f(chunk) summed over the n i-chunks of r, in chunk order; n = 1 is the
// unsplit call.
template <typename F>
double over_chunks(const Range& r, int n, const F& f) {
  double fl = 0;
  for (int c = 0; c < n; ++c) fl += f(kernels::i_chunk(r, c, n));
  return fl;
}

template <typename Array>
bool same_bits(const Array& a, const Array& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}
bool same_bits(const State& a, const State& b) {
  return same_bits(a.gu, b.gu) && same_bits(a.gv, b.gv) &&
         same_bits(a.gt, b.gt) && same_bits(a.gs, b.gs);
}

// run(n, outs...) runs a kernel over its window in n chunks on copies of
// `init`; 2, 3 and 4 chunks must give the unsplit outputs and flops.
template <typename Run, typename... Outs>
void expect_cuts_exact(const std::string& name, const Run& run,
                       const Outs&... init) {
  std::tuple<Outs...> whole(init...);
  const double want =
      std::apply([&](Outs&... o) { return run(1, o...); }, whole);
  for (const int n : {2, 3, 4}) {
    std::tuple<Outs...> cut(init...);
    const double got =
        std::apply([&](Outs&... o) { return run(n, o...); }, cut);
    EXPECT_EQ(got, want) << name << " in " << n << " chunks: flops";
    const bool same = std::apply(
        [&](const Outs&... a) {
          return std::apply(
              [&](const Outs&... b) { return (same_bits(a, b) && ...); },
              whole);
        },
        cut);
    EXPECT_TRUE(same) << name << " in " << n << " chunks: output bits";
  }
}

// Every kernel the step splits, over the step's windows, on every rank
// of the golden's 2x2 tiling after two steps.
void check_cuts(ModelConfig cfg) {
  cfg.nx = 32;
  cfg.ny = 16;
  cfg.topography = ModelConfig::Topography::kContinents;
  cfg.validate();
  run_ranks(4, [&](cluster::RankContext&, comm::Comm& comm) {
    Model m(cfg, comm);
    m.initialize();
    m.step();
    m.step();
    const Decomp& dec = m.decomp();
    const TileGrid& g = m.grid();
    State& st = m.state();
    const int h = dec.halo;
    for (Array3D<double>* f : {&st.u, &st.v, &st.w, &st.theta, &st.salt}) {
      exchange3d(comm, dec, *f, h);
    }
    const State& s = st;
    const Range r2 = kernels::extended(dec, 2);
    const Range r1 = kernels::extended(dec, 1);
    const Range ri = kernels::extended(dec, 0);
    const Range rc{h, h + dec.snx + 1, h, h + dec.sny + 1};

    expect_cuts_exact(
        "hydrostatic",
        [&](int n, Array3D<double>& phi) {
          return over_chunks(r2, n, [&](const Range& c) {
            return kernels::hydrostatic(cfg, g, s.theta, s.salt, phi, c);
          });
        },
        s.phi);
    for (const double av : {0.0, cfg.visc_v}) {
      expect_cuts_exact(
          "momentum_tendencies",
          [&](int n, Array3D<double>& gu, Array3D<double>& gv) {
            return over_chunks(r1, n, [&](const Range& c) {
              return kernels::momentum_tendencies(cfg, g, s.u, s.v, s.w,
                                                  s.phi, gu, gv, av, c);
            });
          },
          s.gu, s.gv);
    }
    for (const double kv : {0.0, cfg.diff_v}) {
      expect_cuts_exact(
          "tracer_tendency",
          [&](int n, Array3D<double>& gt) {
            return over_chunks(r1, n, [&](const Range& c) {
              return kernels::tracer_tendency(cfg, g, s.u, s.v, s.w, s.theta,
                                              gt, cfg.diff_h, kv, c);
            });
          },
          s.gt);
    }
    // The biharmonic's two passes: the first over the widened window in
    // chunks of its own, then the second.
    const auto biharmonic = [&](const char* name, const Array3D<double>& f,
                                const Array3D<double>& mask,
                                const Array3D<double>& g0, double a4) {
      expect_cuts_exact(
          name,
          [&](int n, Array3D<double>& scratch, Array3D<double>& gf) {
            const double fl =
                over_chunks(kernels::widen(r1, 1), n, [&](const Range& c) {
                  return kernels::masked_laplacian(cfg, g, f, mask, scratch,
                                                   c);
                });
            return fl + over_chunks(r1, n, [&](const Range& c) {
                     return kernels::biharmonic_second_pass(cfg, g, scratch,
                                                            mask, gf, a4, c);
                   });
          },
          zeros3(f), g0);
    };
    biharmonic("biharmonic.u", s.u, g.hFacW, s.gu, cfg.visc_4);
    biharmonic("biharmonic.v", s.v, g.hFacS, s.gv, cfg.visc_4);
    biharmonic("biharmonic.theta", s.theta, g.hFacC, s.gt, cfg.diff_4);
    expect_cuts_exact(
        "apply_physics",
        [&](int n, State& p) {
          const SurfaceForcing none;
          return over_chunks(r1, n, [&](const Range& c) {
            return apply_physics(cfg, g, dec, p, none, c);
          });
        },
        s);
    for (const bool first : {false, true}) {
      expect_cuts_exact(
          "ab2_update",
          [&](int n, Array3D<double>& u) {
            return over_chunks(r1, n, [&](const Range& c) {
              return kernels::ab2_update(cfg, g.hFacW, u, s.gu, s.gu_nm1,
                                         first, c);
            });
          },
          s.u);
    }
    expect_cuts_exact(
        "implicit_vertical_diffusion",
        [&](int n, Array3D<double>& theta, Array3D<double>& v) {
          return over_chunks(r1, n, [&](const Range& c) {
            return kernels::implicit_vertical_diffusion(
                       cfg, g, theta, g.hFacC, cfg.diff_v, c) +
                   kernels::implicit_vertical_diffusion(cfg, g, v, g.hFacS,
                                                        cfg.visc_v, c);
          });
        },
        s.theta, s.v);
    expect_cuts_exact(
        "convective_adjustment",
        [&](int n, Array3D<double>& theta) {
          return over_chunks(r1, n, [&](const Range& c) {
            return convective_adjustment(cfg, g, theta, c);
          });
        },
        s.theta);
    expect_cuts_exact(
        "ps_rhs",
        [&](int n, Array2D<double>& rhs) {
          return over_chunks(ri, n, [&](const Range& c) {
            return kernels::ps_rhs(cfg, g, s.u, s.v, rhs, c);
          });
        },
        Array2D<double>(s.ps.nx(), s.ps.ny(), 0.0));
    expect_cuts_exact(
        "correct_velocity",
        [&](int n, Array3D<double>& u, Array3D<double>& v) {
          return over_chunks(rc, n, [&](const Range& c) {
            return kernels::correct_velocity(cfg, g, s.ps, u, v, c);
          });
        },
        s.u, s.v);
    expect_cuts_exact(
        "diagnose_w",
        [&](int n, Array3D<double>& w) {
          return over_chunks(ri, n, [&](const Range& c) {
            return kernels::diagnose_w(cfg, g, s.u, s.v, w, c);
          });
        },
        s.w);
  });
}

TEST(KernelSplit, OceanPresetChunksReproduceTheUnsplitCall) {
  check_cuts(ocean_preset(2, 2));
}

TEST(KernelSplit, AtmospherePresetChunksReproduceTheUnsplitCall) {
  check_cuts(atmosphere_preset(2, 2));
}

}  // namespace
}  // namespace hyades::gcm
