// Non-hydrostatic mode (Section 3.1): the 3-D elliptic operator, its
// solver, the 3-D projection, and the hydrostatic-limit consistency the
// paper relies on ("In the hydrostatic limit the non-hydrostatic
// pressure component is negligible").
#include <gtest/gtest.h>

#include <cmath>
#include <mutex>
#include <vector>

#include "gcm/cg.hpp"
#include "gcm/elliptic3.hpp"
#include "gcm/halo.hpp"
#include "gcm/kernels.hpp"
#include "gcm/model.hpp"
#include "support/rng.hpp"
#include "tests/gcm/gcm_test_util.hpp"

namespace hyades::gcm {
namespace {

using testing::run_ranks;
using testing::small_ocean;

Array3D<double> field3(const Decomp& dec, int nz, double init = 0.0) {
  return Array3D<double>(static_cast<std::size_t>(dec.ext_x()),
                         static_cast<std::size_t>(dec.ext_y()),
                         static_cast<std::size_t>(nz), init);
}

double dot3(const Decomp& dec, int nz, const Array3D<double>& a,
            const Array3D<double>& b) {
  double s = 0;
  for (int i = dec.halo; i < dec.halo + dec.snx; ++i) {
    for (int j = dec.halo; j < dec.halo + dec.sny; ++j) {
      for (int k = 0; k < nz; ++k) {
        s += a(static_cast<std::size_t>(i), static_cast<std::size_t>(j),
               static_cast<std::size_t>(k)) *
             b(static_cast<std::size_t>(i), static_cast<std::size_t>(j),
               static_cast<std::size_t>(k));
      }
    }
  }
  return s;
}

TEST(Elliptic3, ConstantInNullSpaceAndSymmetric) {
  ModelConfig cfg = small_ocean(1, 1);
  cfg.topography = ModelConfig::Topography::kRidge;
  run_ranks(1, [&](cluster::RankContext&, comm::Comm& comm) {
    const Decomp dec(cfg, 0);
    const TileGrid grid(cfg, dec);
    const EllipticOperator3 op(cfg, dec, grid);

    Array3D<double> c = field3(dec, cfg.nz, 2.5);
    Array3D<double> out = field3(dec, cfg.nz);
    exchange3d(comm, dec, c, 1);
    op.apply(c, out);
    for (double v : out) EXPECT_NEAR(v, 0.0, 2e-4);  // weights ~ 1e9 scale

    SplitMix64 rng(3);
    Array3D<double> p = field3(dec, cfg.nz), q = field3(dec, cfg.nz);
    for (int i = dec.halo; i < dec.halo + dec.snx; ++i) {
      for (int j = dec.halo; j < dec.halo + dec.sny; ++j) {
        for (int k = 0; k < cfg.nz; ++k) {
          if (!op.is_wet(i, j, k)) continue;
          p(static_cast<std::size_t>(i), static_cast<std::size_t>(j),
            static_cast<std::size_t>(k)) = rng.next_in(-1, 1);
          q(static_cast<std::size_t>(i), static_cast<std::size_t>(j),
            static_cast<std::size_t>(k)) = rng.next_in(-1, 1);
        }
      }
    }
    Array3D<double> Lp = field3(dec, cfg.nz), Lq = field3(dec, cfg.nz);
    exchange3d(comm, dec, p, 1);
    exchange3d(comm, dec, q, 1);
    op.apply(p, Lp);
    op.apply(q, Lq);
    const double lpq = dot3(dec, cfg.nz, Lp, q);
    const double plq = dot3(dec, cfg.nz, p, Lq);
    EXPECT_NEAR(lpq, plq, 1e-9 * std::abs(lpq) + 1e-3);
    EXPECT_GE(dot3(dec, cfg.nz, Lp, p), -1e-6);  // PSD
  });
}

TEST(Cg3, SolvesManufacturedProblem) {
  const ModelConfig cfg = small_ocean(2, 2);
  run_ranks(4, [&](cluster::RankContext&, comm::Comm& comm) {
    const Decomp dec(cfg, comm.group_rank());
    const TileGrid grid(cfg, dec);
    const EllipticOperator3 op(cfg, dec, grid);
    SplitMix64 rng(static_cast<std::uint64_t>(50 + comm.group_rank()));
    Array3D<double> p_true = field3(dec, cfg.nz);
    for (int i = dec.halo; i < dec.halo + dec.snx; ++i) {
      for (int j = dec.halo; j < dec.halo + dec.sny; ++j) {
        for (int k = 0; k < cfg.nz; ++k) {
          p_true(static_cast<std::size_t>(i), static_cast<std::size_t>(j),
                 static_cast<std::size_t>(k)) = rng.next_in(-1, 1);
        }
      }
    }
    Array3D<double> b = field3(dec, cfg.nz);
    exchange3d(comm, dec, p_true, 1);
    op.apply(p_true, b);

    Array3D<double> p = field3(dec, cfg.nz);
    const CgResult res = cg_solve(comm, dec, op, b, p, 1e-10, 3000);
    EXPECT_TRUE(res.converged);

    // Compare gradients (the constant offset is unconstrained): check
    // L p == b directly.
    Array3D<double> check = field3(dec, cfg.nz);
    exchange3d(comm, dec, p, 1);
    op.apply(p, check);
    double num = 0, den = 0;
    for (int i = dec.halo; i < dec.halo + dec.snx; ++i) {
      for (int j = dec.halo; j < dec.halo + dec.sny; ++j) {
        for (int k = 0; k < cfg.nz; ++k) {
          const double bb =
              b(static_cast<std::size_t>(i), static_cast<std::size_t>(j),
                static_cast<std::size_t>(k));
          const double cc =
              check(static_cast<std::size_t>(i), static_cast<std::size_t>(j),
                    static_cast<std::size_t>(k));
          num += (bb - cc) * (bb - cc);
          den += bb * bb;
        }
      }
    }
    std::vector<double> sums{num, den};
    comm.global_sum(sums);
    EXPECT_LT(std::sqrt(sums[0] / std::max(sums[1], 1e-300)), 1e-8);
  });
}

ModelConfig nh_config(int px, int py) {
  ModelConfig cfg = small_ocean(px, py);
  cfg.nonhydrostatic = true;
  return cfg;
}

TEST(NonHydro, Full3DDivergenceVanishesAfterStep) {
  run_ranks(4, [&](cluster::RankContext&, comm::Comm& comm) {
    Model m(nh_config(2, 2), comm);
    m.initialize();
    StepStats st{};
    for (int s = 0; s < 5; ++s) {
      st = m.step();
      ASSERT_TRUE(st.cg_converged);
      ASSERT_TRUE(st.cg3_converged);
    }
    EXPECT_GT(st.cg3_iterations, 0);
    // Per-cell 3-D divergence after the projection.
    const ModelConfig& cfg = m.config();
    const Decomp& dec = m.decomp();
    Array3D<double> div(static_cast<std::size_t>(dec.ext_x()),
                        static_cast<std::size_t>(dec.ext_y()),
                        static_cast<std::size_t>(cfg.nz), 0.0);
    kernels::nh_rhs(cfg, m.grid(), m.state().u, m.state().v, m.state().w,
                    div, kernels::extended(dec, 0));
    double worst = 0;
    for (double v : div) worst = std::max(worst, std::abs(v));
    // rhs units: m^3/s^2 over ~1e10 m^2 cells; the solver's 1e-7 relative
    // target leaves a tiny residual.
    const double scaled = worst * cfg.dt / m.grid().rAc[4];
    EXPECT_LT(scaled, 1e-10);
  });
}

// Locks the 3-D solve bit for bit: KE and mean theta in hexfloat, the
// per-step CG iteration counts and the final virtual clock of a 5-step
// non-hydrostatic run.  The ||b|| dot product that sets the stopping
// target is not flop-charged, in 3-D as in 2-D; charging its
// 2 * snx * sny * nz = 256 flops per step, as the former separate 3-D
// solver did, puts the clock exactly 5 x 256 / fds_mflops = 21.33 us
// later with the same state.
TEST(NonHydro, FiveStepGoldenLocksSolverPath) {
  const ModelConfig cfg = nh_config(2, 2);
  std::mutex mu;
  std::vector<int> ni3;
  double ke = 0, mean_theta = 0, max_clock = 0;
  run_ranks(4, [&](cluster::RankContext& ctx, comm::Comm& comm) {
    Model m(cfg, comm);
    m.initialize();
    std::vector<int> its;
    for (int s = 0; s < 5; ++s) its.push_back(m.step().cg3_iterations);
    const double clock = ctx.clock().now();
    const double k = m.kinetic_energy();
    const double t = m.mean_theta();
    std::lock_guard<std::mutex> lock(mu);
    max_clock = std::max(max_clock, clock);
    if (comm.group_rank() == 0) {
      ni3 = its;
      ke = k;
      mean_theta = t;
    }
  });
  EXPECT_EQ(ke, 0x1.d2b579d99cc5cp+47);
  EXPECT_EQ(mean_theta, 0x1.fbd824774d6cp+3);
  EXPECT_EQ(ni3, (std::vector<int>{22, 7, 3, 1, 1}));
  EXPECT_EQ(max_clock, 0x1.e67ef97bcf932p+14);
  const double bnorm_flops = 2.0 * 8 * 4 * cfg.nz;  // snx = 8, sny = 4
  const double clock_charging_bnorm = 0x1.e6d44ed124e87p+14;
  EXPECT_NEAR(clock_charging_bnorm - max_clock,
              5 * bnorm_flops / cfg.fds_mflops, 1e-9);
}

TEST(NonHydro, HydrostaticLimitMatchesHydrostaticModel) {
  // At climate aspect ratios (dx ~ 10^6 m >> dz ~ 10^3 m) the
  // non-hydrostatic pressure is negligible: both formulations must give
  // nearly identical evolutions.
  Array2D<double> theta_h, theta_nh;
  double w_h = 0, w_nh = 0;
  std::mutex mu;
  run_ranks(4, [&](cluster::RankContext&, comm::Comm& comm) {
    Model m(small_ocean(2, 2), comm);
    m.initialize();
    m.run(8);
    const double w = m.max_abs_w();
    auto g = m.gather_theta(0);
    std::lock_guard<std::mutex> lock(mu);
    w_h = w;
    if (comm.group_rank() == 0) theta_h = std::move(g);
  });
  run_ranks(4, [&](cluster::RankContext&, comm::Comm& comm) {
    Model m(nh_config(2, 2), comm);
    m.initialize();
    m.run(8);
    const double w = m.max_abs_w();
    auto g = m.gather_theta(0);
    std::lock_guard<std::mutex> lock(mu);
    w_nh = w;
    if (comm.group_rank() == 0) theta_nh = std::move(g);
  });
  ASSERT_FALSE(theta_h.empty());
  double max_dt = 0, scale = 0;
  for (std::size_t i = 0; i < theta_h.nx(); ++i) {
    for (std::size_t j = 0; j < theta_h.ny(); ++j) {
      max_dt = std::max(max_dt, std::abs(theta_h(i, j) - theta_nh(i, j)));
      scale = std::max(scale, std::abs(theta_h(i, j)));
    }
  }
  EXPECT_LT(max_dt, 1e-6 * scale);
  // Vertical velocities agree to a few percent of their (tiny) scale.
  EXPECT_LT(std::abs(w_h - w_nh), 0.1 * std::max(w_h, 1e-12));
}

TEST(NonHydro, StableWithTopography) {
  ModelConfig cfg = nh_config(2, 2);
  cfg.nx = 32;
  cfg.ny = 16;
  cfg.topography = ModelConfig::Topography::kRidge;
  cfg.validate();
  run_ranks(4, [&](cluster::RankContext&, comm::Comm& comm) {
    Model m(cfg, comm);
    m.initialize();
    for (int s = 0; s < 8; ++s) {
      const StepStats st = m.step();
      ASSERT_TRUE(st.cg3_converged);
    }
    EXPECT_TRUE(std::isfinite(m.kinetic_energy()));
    EXPECT_LT(m.max_cfl(), 0.5);
  });
}

}  // namespace
}  // namespace hyades::gcm
