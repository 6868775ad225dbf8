#include <gtest/gtest.h>

#include <cmath>
#include <mutex>
#include <vector>

#include "gcm/cg.hpp"
#include "gcm/elliptic.hpp"
#include "gcm/halo.hpp"
#include "gcm/model.hpp"
#include "support/rng.hpp"
#include "tests/gcm/gcm_test_util.hpp"

namespace hyades::gcm {
namespace {

using testing::run_ranks;
using testing::small_ocean;

Array2D<double> field(const Decomp& dec, double init = 0.0) {
  return Array2D<double>(static_cast<std::size_t>(dec.ext_x()),
                         static_cast<std::size_t>(dec.ext_y()), init);
}

void fill_random_interior(const Decomp& dec, const TileGrid& grid,
                          Array2D<double>& f, std::uint64_t seed) {
  SplitMix64 rng(seed);
  for (int i = dec.halo; i < dec.halo + dec.snx; ++i) {
    for (int j = dec.halo; j < dec.halo + dec.sny; ++j) {
      if (grid.depth(static_cast<std::size_t>(i), static_cast<std::size_t>(j)) >
          0) {
        f(static_cast<std::size_t>(i), static_cast<std::size_t>(j)) =
            rng.next_in(-1.0, 1.0);
      }
    }
  }
}

double dot(const Decomp& dec, const Array2D<double>& a,
           const Array2D<double>& b) {
  double s = 0;
  for (int i = dec.halo; i < dec.halo + dec.snx; ++i) {
    for (int j = dec.halo; j < dec.halo + dec.sny; ++j) {
      s += a(static_cast<std::size_t>(i), static_cast<std::size_t>(j)) *
           b(static_cast<std::size_t>(i), static_cast<std::size_t>(j));
    }
  }
  return s;
}

TEST(Elliptic, ConstantIsInNullSpace) {
  const ModelConfig cfg = small_ocean(1, 1);
  run_ranks(1, [&](cluster::RankContext&, comm::Comm& comm) {
    const Decomp dec(cfg, 0);
    const TileGrid grid(cfg, dec);
    const EllipticOperator op(cfg, dec, grid);
    Array2D<double> p = field(dec, 3.7);
    Array2D<double> out = field(dec);
    exchange2d(comm, dec, p, 1);
    op.apply(p, out);
    for (int i = dec.halo; i < dec.halo + dec.snx; ++i) {
      for (int j = dec.halo; j < dec.halo + dec.sny; ++j) {
        EXPECT_NEAR(out(static_cast<std::size_t>(i),
                        static_cast<std::size_t>(j)),
                    0.0, 1e-6)
            << i << "," << j;
      }
    }
  });
}

TEST(Elliptic, SymmetricAndPositiveSemidefinite) {
  ModelConfig cfg = small_ocean(1, 1);
  cfg.topography = ModelConfig::Topography::kRidge;  // nontrivial H
  run_ranks(1, [&](cluster::RankContext&, comm::Comm& comm) {
    const Decomp dec(cfg, 0);
    const TileGrid grid(cfg, dec);
    const EllipticOperator op(cfg, dec, grid);
    Array2D<double> p = field(dec), q = field(dec);
    fill_random_interior(dec, grid, p, 11);
    fill_random_interior(dec, grid, q, 22);
    Array2D<double> Lp = field(dec), Lq = field(dec);
    exchange2d(comm, dec, p, 1);
    exchange2d(comm, dec, q, 1);
    op.apply(p, Lp);
    op.apply(q, Lq);
    // <Lp, q> == <p, Lq> (symmetry across the periodic seam included).
    EXPECT_NEAR(dot(dec, Lp, q), dot(dec, p, Lq),
                1e-9 * std::abs(dot(dec, Lp, q)) + 1e-6);
    // <Lp, p> >= 0.
    EXPECT_GE(dot(dec, Lp, p), -1e-9);
  });
}

TEST(Elliptic, DiagonalPositiveOnWetZeroOnLand) {
  ModelConfig cfg = small_ocean(1, 1);
  cfg.nx = 32;
  cfg.ny = 16;
  cfg.topography = ModelConfig::Topography::kContinents;
  cfg.validate();
  run_ranks(1, [&](cluster::RankContext&, comm::Comm&) {
    const Decomp dec(cfg, 0);
    const TileGrid grid(cfg, dec);
    const EllipticOperator op(cfg, dec, grid);
    int wet = 0, dry = 0;
    for (int i = dec.halo; i < dec.halo + dec.snx; ++i) {
      for (int j = dec.halo; j < dec.halo + dec.sny; ++j) {
        const bool is_wet = grid.depth(static_cast<std::size_t>(i),
                                       static_cast<std::size_t>(j)) > 0;
        if (is_wet) {
          EXPECT_GT(op.diagonal()(static_cast<std::size_t>(i),
                                  static_cast<std::size_t>(j)),
                    0.0);
          ++wet;
        } else {
          EXPECT_EQ(op.diagonal()(static_cast<std::size_t>(i),
                                  static_cast<std::size_t>(j)),
                    0.0);
          ++dry;
        }
      }
    }
    EXPECT_GT(wet, 0);
    EXPECT_GT(dry, 0);
  });
}

TEST(Cg, SolvesManufacturedProblem) {
  const ModelConfig cfg = small_ocean(2, 2);
  run_ranks(4, [&](cluster::RankContext&, comm::Comm& comm) {
    const Decomp dec(cfg, comm.group_rank());
    const TileGrid grid(cfg, dec);
    const EllipticOperator op(cfg, dec, grid);
    // Build b = L p_true for a random p_true; then solve from zero.
    Array2D<double> p_true = field(dec);
    fill_random_interior(dec, grid, p_true,
                         static_cast<std::uint64_t>(100 + comm.group_rank()));
    Array2D<double> b = field(dec);
    exchange2d(comm, dec, p_true, 1);
    op.apply(p_true, b);

    Array2D<double> p = field(dec);
    const CgResult res = cg_solve(comm, dec, op, b, p, 1e-10, 2000);
    EXPECT_TRUE(res.converged);
    EXPECT_GT(res.iterations, 0);

    // p and p_true may differ by a constant: compare after removing the
    // mean difference (computed globally).
    std::vector<double> sums{0.0, 0.0};
    for (int i = dec.halo; i < dec.halo + dec.snx; ++i) {
      for (int j = dec.halo; j < dec.halo + dec.sny; ++j) {
        if (!op.is_wet(i, j)) continue;
        sums[0] += p(static_cast<std::size_t>(i), static_cast<std::size_t>(j)) -
                   p_true(static_cast<std::size_t>(i),
                          static_cast<std::size_t>(j));
        sums[1] += 1.0;
      }
    }
    comm.global_sum(sums);
    const double shift = sums[0] / sums[1];
    for (int i = dec.halo; i < dec.halo + dec.snx; ++i) {
      for (int j = dec.halo; j < dec.halo + dec.sny; ++j) {
        if (!op.is_wet(i, j)) continue;
        EXPECT_NEAR(p(static_cast<std::size_t>(i), static_cast<std::size_t>(j)) -
                        shift,
                    p_true(static_cast<std::size_t>(i),
                           static_cast<std::size_t>(j)),
                    1e-5);
      }
    }
  });
}

TEST(Cg, ZeroRhsConvergesImmediately) {
  const ModelConfig cfg = small_ocean(1, 1);
  run_ranks(1, [&](cluster::RankContext&, comm::Comm& comm) {
    const Decomp dec(cfg, 0);
    const TileGrid grid(cfg, dec);
    const EllipticOperator op(cfg, dec, grid);
    Array2D<double> b = field(dec), p = field(dec);
    const CgResult res = cg_solve(comm, dec, op, b, p, 1e-8, 100);
    EXPECT_TRUE(res.converged);
    EXPECT_EQ(res.iterations, 0);
  });
}

TEST(Cg, WarmStartNeedsFewerIterations) {
  const ModelConfig cfg = small_ocean(2, 2);
  run_ranks(4, [&](cluster::RankContext&, comm::Comm& comm) {
    const Decomp dec(cfg, comm.group_rank());
    const TileGrid grid(cfg, dec);
    const EllipticOperator op(cfg, dec, grid);
    Array2D<double> p_true = field(dec);
    fill_random_interior(dec, grid, p_true,
                         static_cast<std::uint64_t>(500 + comm.group_rank()));
    Array2D<double> b = field(dec);
    exchange2d(comm, dec, p_true, 1);
    op.apply(p_true, b);

    Array2D<double> cold = field(dec);
    const int cold_iters =
        cg_solve(comm, dec, op, b, cold, 1e-10, 2000).iterations;

    Array2D<double> warm = cold;  // restart from the converged answer
    const int warm_iters =
        cg_solve(comm, dec, op, b, warm, 1e-10, 2000).iterations;
    EXPECT_LT(warm_iters, cold_iters / 4 + 1);
  });
}

// Locks the Jacobi-preconditioned path (ModelConfig::cg_jacobi) bit for
// bit through a model run: KE in hexfloat, per-step iteration counts and
// the final virtual clock.
TEST(Cg, JacobiModelRunGolden) {
  ModelConfig cfg = small_ocean(2, 2);
  cfg.cg_jacobi = true;
  std::mutex mu;
  std::vector<int> ni;
  double ke = 0, max_clock = 0;
  run_ranks(4, [&](cluster::RankContext& ctx, comm::Comm& comm) {
    Model m(cfg, comm);
    m.initialize();
    std::vector<int> its;
    for (int s = 0; s < 5; ++s) its.push_back(m.step().cg_iterations);
    const double clock = ctx.clock().now();
    const double k = m.kinetic_energy();
    std::lock_guard<std::mutex> lock(mu);
    max_clock = std::max(max_clock, clock);
    if (comm.group_rank() == 0) {
      ni = its;
      ke = k;
    }
  });
  EXPECT_EQ(ke, 0x1.d2b586a711008p+47);
  EXPECT_EQ(ni, (std::vector<int>{29, 7, 6, 6, 6}));
  EXPECT_EQ(max_clock, 0x1.236f7d0d57cf9p+14);
}

TEST(Cg, IterationCountsIdenticalOnAllRanks) {
  const ModelConfig cfg = small_ocean(2, 2);
  run_ranks(4, [&](cluster::RankContext& ctx, comm::Comm& comm) {
    const Decomp dec(cfg, comm.group_rank());
    const TileGrid grid(cfg, dec);
    const EllipticOperator op(cfg, dec, grid);
    Array2D<double> b = field(dec);
    fill_random_interior(dec, grid, b,
                         static_cast<std::uint64_t>(7 + comm.group_rank()));
    // Make b compatible: subtract the global mean over wet cells.
    std::vector<double> sums{0.0, 0.0};
    for (int i = dec.halo; i < dec.halo + dec.snx; ++i) {
      for (int j = dec.halo; j < dec.halo + dec.sny; ++j) {
        sums[0] += b(static_cast<std::size_t>(i), static_cast<std::size_t>(j));
        sums[1] += 1.0;
      }
    }
    comm.global_sum(sums);
    for (int i = dec.halo; i < dec.halo + dec.snx; ++i) {
      for (int j = dec.halo; j < dec.halo + dec.sny; ++j) {
        b(static_cast<std::size_t>(i), static_cast<std::size_t>(j)) -=
            sums[0] / sums[1];
      }
    }
    Array2D<double> p = field(dec);
    const CgResult res = cg_solve(comm, dec, op, b, p, 1e-8, 2000);
    // Convergence decisions flow through bitwise-identical global sums;
    // cross-check by summing the iteration counts.
    const double total = comm.global_sum(static_cast<double>(res.iterations));
    EXPECT_DOUBLE_EQ(total, 4.0 * res.iterations);
    (void)ctx;
  });
}

}  // namespace
}  // namespace hyades::gcm
