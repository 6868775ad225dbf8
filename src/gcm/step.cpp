#include "gcm/step.hpp"

#include "cluster/trace.hpp"

#include "gcm/halo.hpp"
#include "gcm/kernels.hpp"

namespace hyades::gcm {

Timestepper::Timestepper(const ModelConfig& cfg, comm::Comm& comm,
                         const Decomp& dec, const TileGrid& grid,
                         State& state)
    : cfg_(cfg),
      comm_(comm),
      dec_(dec),
      grid_(grid),
      state_(state),
      op_(cfg, dec, grid),
      rhs_(static_cast<std::size_t>(dec.ext_x()),
           static_cast<std::size_t>(dec.ext_y()), 0.0),
      scratch_(static_cast<std::size_t>(dec.ext_x()),
               static_cast<std::size_t>(dec.ext_y()),
               static_cast<std::size_t>(cfg.nz), 0.0) {
  if (cfg.halo < 2) {
    throw std::invalid_argument(
        "Timestepper: halo >= 2 required for PS overcomputation");
  }
  if ((cfg.visc_4 > 0 || cfg.diff_4 > 0) && cfg.halo < 3) {
    throw std::invalid_argument(
        "Timestepper: biharmonic mixing needs halo >= 3");
  }
  if (cfg.advection == ModelConfig::Advection::kDst3 && cfg.halo < 3) {
    throw std::invalid_argument("Timestepper: DST-3 advection needs halo >= 3");
  }
  if (cfg.nonhydrostatic) {
    op3_ = std::make_unique<EllipticOperator3>(cfg, dec, grid);
    rhs3_ = Array3D<double>(static_cast<std::size_t>(dec.ext_x()),
                            static_cast<std::size_t>(dec.ext_y()),
                            static_cast<std::size_t>(cfg.nz), 0.0);
    wmask_ = rhs3_;
    for (int i = 0; i < dec.ext_x(); ++i) {
      for (int j = 0; j < dec.ext_y(); ++j) {
        for (int k = 1; k < cfg.nz; ++k) {
          const bool open =
              grid.hFacC(static_cast<std::size_t>(i),
                         static_cast<std::size_t>(j),
                         static_cast<std::size_t>(k)) > 0 &&
              grid.hFacC(static_cast<std::size_t>(i),
                         static_cast<std::size_t>(j),
                         static_cast<std::size_t>(k - 1)) > 0;
          wmask_(static_cast<std::size_t>(i), static_cast<std::size_t>(j),
                 static_cast<std::size_t>(k)) = open ? 1.0 : 0.0;
        }
      }
    }
  }
}

StepStats Timestepper::step(const SurfaceForcing* forcing) {
  auto& ctx = comm_.ctx();
  StepStats st;
  const int h = dec_.halo;
  const SurfaceForcing& f = forcing ? *forcing : no_forcing_;

  // ======================= PS: prognostic step =======================
  const Microseconds t_ps = ctx.clock().now();
  const Microseconds overlap0 = ctx.accounting().overlap_us;

  // Overcomputed windows: with the halos fresh, every PS term for this
  // tile comes from tile-local data.
  const kernels::Range r2 = kernels::extended(dec_, 2);
  const kernels::Range r1 = kernels::extended(dec_, 1);
  const kernels::Range ri = kernels::extended(dec_, 0);

  // With implicit vertical mixing the explicit vertical coefficients are
  // zeroed here and the column solves run after the state update.
  const double kv_exp = cfg_.implicit_vertical_mixing ? 0.0 : cfg_.diff_v;
  const double av_exp = cfg_.implicit_vertical_mixing ? 0.0 : cfg_.visc_v;

  // Every column kernel below runs as kernel(args..., chunk) on the
  // i-chunks of its window, split across the rank's host pool
  // (kernels::split_i).  A region runs one kernel and reads only what
  // earlier regions finished writing, so the bits and the flops are the
  // serial step's.
  support::HostPool& pool = ctx.host_pool();
  const auto split = [&pool](const kernels::Range& r, const auto& kernel,
                             auto&... args) {
    return kernels::split_i(pool, r, [&](const kernels::Range& c) {
      return kernel(args..., c);
    });
  };
  // The biharmonic's first pass writes scratch_ over the widened window,
  // in chunks of their own; the second pass reads it after the join.
  const auto biharmonic = [&](const Array3D<double>& fld,
                              const Array3D<double>& mask,
                              Array3D<double>& g, const double& a4,
                              const kernels::Range& r) {
    const double fl = split(kernels::widen(r, 1), kernels::masked_laplacian,
                            cfg_, grid_, fld, mask, scratch_);
    return fl + split(r, kernels::biharmonic_second_pass, cfg_, grid_,
                      scratch_, mask, g, a4);
  };

  // The PS tendency kernels over a set of hydrostatic windows `hs` and
  // tendency windows `ts` ({r2}, {r1} reproduces the seed sequence; the
  // overlap path passes interior sub-windows, then the rim slabs).  Each
  // kernel sweeps all its windows before the next kernel runs, so a
  // window's reads never depend on which decomposition produced it.
  const auto tendency_kernels = [&](const std::vector<kernels::Range>& hs,
                                    const std::vector<kernels::Range>& ts) {
    double fl = 0;
    for (const auto& rh : hs) {
      fl += split(rh, kernels::hydrostatic, cfg_, grid_, state_.theta,
                  state_.salt, state_.phi);
    }
    for (const auto& rt : ts) {
      fl += split(rt, kernels::momentum_tendencies, cfg_, grid_, state_.u,
                  state_.v, state_.w, state_.phi, state_.gu, state_.gv,
                  av_exp);
    }
    for (const auto& rt : ts) {
      fl += split(rt, kernels::tracer_tendency, cfg_, grid_, state_.u,
                  state_.v, state_.w, state_.theta, state_.gt, cfg_.diff_h,
                  kv_exp);
    }
    for (const auto& rt : ts) {
      fl += split(rt, kernels::tracer_tendency, cfg_, grid_, state_.u,
                  state_.v, state_.w, state_.salt, state_.gs, cfg_.diff_h,
                  kv_exp);
    }
    // Biharmonic horizontal mixing (scale-selective dissipation).
    if (cfg_.visc_4 > 0) {
      for (const auto& rt : ts) {
        fl += biharmonic(state_.u, grid_.hFacW, state_.gu, cfg_.visc_4, rt);
      }
      for (const auto& rt : ts) {
        fl += biharmonic(state_.v, grid_.hFacS, state_.gv, cfg_.visc_4, rt);
      }
    }
    if (cfg_.diff_4 > 0) {
      for (const auto& rt : ts) {
        fl += biharmonic(state_.theta, grid_.hFacC, state_.gt, cfg_.diff_4,
                         rt);
      }
      for (const auto& rt : ts) {
        fl += biharmonic(state_.salt, grid_.hFacC, state_.gs, cfg_.diff_4,
                         rt);
      }
    }
    if (cfg_.enable_forcing) {
      for (const auto& rt : ts) {
        fl += split(rt, apply_physics, cfg_, grid_, dec_, state_, f);
      }
    }
    if (cfg_.nonhydrostatic) {
      for (const auto& rt : ts) {
        fl += kernels::w_tendencies(cfg_, grid_, state_.u, state_.v,
                                    state_.w, state_.gw, av_exp, rt);
      }
    }
    return fl;
  };

  double ps_flops = 0;   // total, for StepStats
  double deferred = 0;   // flops accumulated but not yet charged

  if (!cfg_.overlap_comm) {
    // One exchange per 3-D state field per step (Section 4): u, v, w,
    // theta, salt -- the paper's five texchxyz applications.
    exchange3d(comm_, dec_, state_.u, h);
    exchange3d(comm_, dec_, state_.v, h);
    exchange3d(comm_, dec_, state_.w, h);
    exchange3d(comm_, dec_, state_.theta, h);
    exchange3d(comm_, dec_, state_.salt, h);
    st.tps_exch_us = ctx.clock().now() - t_ps;

    deferred += tendency_kernels({r2}, {r1});
  } else {
    // Split-phase PS: post the five exchanges, compute the interior
    // while the strips are in flight, complete the exchanges, then
    // compute the halo rim.  Interior kernels read only tile-owned
    // cells (kernels::interior), which the exchange never modifies, so
    // the state after the step is bitwise identical to the blocking
    // path -- only virtual timing (and the biharmonic scratch
    // recomputation flops along the interior/rim seam) differ.
    std::array<HaloExchange3, 5> hx{{{comm_, dec_, state_.u, h},
                                     {comm_, dec_, state_.v, h},
                                     {comm_, dec_, state_.w, h},
                                     {comm_, dec_, state_.theta, h},
                                     {comm_, dec_, state_.salt, h}}};
    for (auto& x : hx) x.start();
    Microseconds exch_us = ctx.clock().now() - t_ps;

    const kernels::Range r1i = kernels::interior(dec_, r1);
    const kernels::Range r2i = kernels::interior(dec_, r2, 1);
    const Microseconds t_int = ctx.clock().now();
    const double fl_int = tendency_kernels({r2i}, {r1i});
    ctx.compute(fl_int, cfg_.fps_mflops);
    ps_flops += fl_int;
    st.tps_interior_us = ctx.clock().now() - t_int;
    if (ctx.tracer()) {
      cluster::SpanCounters ctr;
      ctr.flops = fl_int;
      ctx.tracer()->record("ps_interior", cluster::SpanCat::kPhase, t_int,
                           ctx.clock().now(), ctr);
    }

    // Stage 2 (north/south) depends on stage-1 strips, so it is posted
    // here and drained immediately; its latency still pipelines across
    // the five fields' NIU transfers.
    const Microseconds t_wait = ctx.clock().now();
    for (auto& x : hx) x.progress();
    for (auto& x : hx) x.finish();
    exch_us += ctx.clock().now() - t_wait;
    st.tps_exch_us = exch_us;

    std::array<kernels::Range, 4> slabs1{};
    std::array<kernels::Range, 4> slabs2{};
    const int n1 = kernels::rim(r1, r1i, slabs1);
    const int n2 = kernels::rim(r2, r2i, slabs2);
    const std::vector<kernels::Range> hs(slabs2.begin(), slabs2.begin() + n2);
    const std::vector<kernels::Range> ts(slabs1.begin(), slabs1.begin() + n1);
    deferred += tendency_kernels(hs, ts);
  }

  const bool first = (state_.step == 0);
  deferred += split(r1, kernels::ab2_update, cfg_, grid_.hFacW, state_.u,
                    state_.gu, state_.gu_nm1, first);
  deferred += split(r1, kernels::ab2_update, cfg_, grid_.hFacS, state_.v,
                    state_.gv, state_.gv_nm1, first);
  deferred += split(r1, kernels::ab2_update, cfg_, grid_.hFacC, state_.theta,
                    state_.gt, state_.gt_nm1, first);
  deferred += split(r1, kernels::ab2_update, cfg_, grid_.hFacC, state_.salt,
                    state_.gs, state_.gs_nm1, first);
  if (cfg_.nonhydrostatic) {
    deferred += split(r1, kernels::ab2_update, cfg_, wmask_, state_.w,
                      state_.gw, state_.gw_nm1, first);
  }
  if (cfg_.implicit_vertical_mixing) {
    const auto column_solve = [&](Array3D<double>& fld,
                                  const Array3D<double>& mask,
                                  const double& kv) {
      return kv > 0 ? split(r1, kernels::implicit_vertical_diffusion, cfg_,
                            grid_, fld, mask, kv)
                    : 0.0;
    };
    deferred += column_solve(state_.theta, grid_.hFacC, cfg_.diff_v);
    deferred += column_solve(state_.salt, grid_.hFacC, cfg_.diff_v);
    deferred += column_solve(state_.u, grid_.hFacW, cfg_.visc_v);
    deferred += column_solve(state_.v, grid_.hFacS, cfg_.visc_v);
  }
  if (cfg_.enable_convection && cfg_.isomorph == Isomorph::kAtmosphere) {
    deferred += split(r1, convective_adjustment, cfg_, grid_, state_.theta);
  }

  std::swap(state_.gu, state_.gu_nm1);
  std::swap(state_.gv, state_.gv_nm1);
  std::swap(state_.gt, state_.gt_nm1);
  std::swap(state_.gs, state_.gs_nm1);
  if (cfg_.nonhydrostatic) std::swap(state_.gw, state_.gw_nm1);

  const Microseconds t_rim = ctx.clock().now();
  ctx.compute(deferred, cfg_.fps_mflops);
  ps_flops += deferred;
  st.ps_flops = ps_flops;
  st.tps_us = ctx.clock().now() - t_ps;
  st.overlap_us = ctx.accounting().overlap_us - overlap0;
  if (ctx.tracer()) {
    if (cfg_.overlap_comm) {
      // The deferred flops charged here are the rim tendency pass plus
      // the state update (AB2 / implicit mixing / adjustment) kernels.
      cluster::SpanCounters rim_ctr;
      rim_ctr.flops = deferred;
      ctx.tracer()->record("ps_rim", cluster::SpanCat::kPhase, t_rim,
                           ctx.clock().now(), rim_ctr);
    }
    cluster::SpanCounters ctr;
    ctr.flops = ps_flops;
    ctr.overlap_us = st.overlap_us;
    ctx.tracer()->record("ps", cluster::SpanCat::kPhase, t_ps,
                         ctx.clock().now(), ctr);
  }

  // ======================= DS: diagnostic step =======================
  const Microseconds t_ds = ctx.clock().now();
  double ds_flops = 0;

  // rhs of eq. (3); the solver works with L = -A, so b = -rhs.
  ds_flops += split(ri, kernels::ps_rhs, cfg_, grid_, state_.u, state_.v, rhs_);
  for (int i = ri.i0; i < ri.i1; ++i) {
    for (int j = ri.j0; j < ri.j1; ++j) {
      auto& x = rhs_(static_cast<std::size_t>(i), static_cast<std::size_t>(j));
      x = -x;
    }
  }

  const CgResult cg = cg_solve(comm_, dec_, op_, rhs_, state_.ps, cfg_.cg_tol,
                               cfg_.cg_max_iter);
  ds_flops += cg.flops;
  st.cg_iterations = cg.iterations;
  st.cg_residual = cg.residual;
  st.cg_converged = cg.converged;

  // Refresh the pressure halo, then project the velocities (including the
  // shared faces on the interior's high edge, which both neighbouring
  // tiles compute identically).
  exchange2d(comm_, dec_, state_.ps, 1);
  const kernels::Range rc{h, h + dec_.snx + 1, h, h + dec_.sny + 1};
  ds_flops += split(rc, kernels::correct_velocity, cfg_, grid_, state_.ps,
                    state_.u, state_.v);
  kernels::apply_velocity_masks(grid_, state_.u, state_.v, r1);

  if (!cfg_.nonhydrostatic) {
    // Hydrostatic limit: w is diagnostic (eq. (2) vertically integrated).
    ds_flops += split(ri, kernels::diagnose_w, cfg_, grid_, state_.u,
                      state_.v, state_.w);
  } else {
    // Non-hydrostatic pressure: a 3-D elliptic solve removes the
    // remaining 3-D divergence from (u, v, w*).
    ds_flops += kernels::nh_rhs(cfg_, grid_, state_.u, state_.v, state_.w,
                                rhs3_, ri);
    for (int i = ri.i0; i < ri.i1; ++i) {
      for (int j = ri.j0; j < ri.j1; ++j) {
        for (int k = 0; k < cfg_.nz; ++k) {
          auto& x = rhs3_(static_cast<std::size_t>(i),
                          static_cast<std::size_t>(j),
                          static_cast<std::size_t>(k));
          x = -x;
        }
      }
    }
    const CgResult cg3 = cg_solve(comm_, dec_, *op3_, rhs3_, state_.phi_nh,
                                  cfg_.cg3_tol, cfg_.cg3_max_iter);
    ds_flops += cg3.flops;
    st.cg3_iterations = cg3.iterations;
    st.cg3_converged = cg3.converged;
    exchange3d(comm_, dec_, state_.phi_nh, 1);
    const kernels::Range rc3{h, h + dec_.snx + 1, h, h + dec_.sny + 1};
    ds_flops += kernels::correct_velocity_nh(cfg_, grid_, state_.phi_nh,
                                             state_.u, state_.v, state_.w,
                                             rc3);
    kernels::apply_velocity_masks(grid_, state_.u, state_.v, r1);
  }

  ctx.compute(ds_flops, cfg_.fds_mflops);
  st.ds_flops = ds_flops;
  st.tds_us = ctx.clock().now() - t_ds;
  if (ctx.tracer()) {
    cluster::SpanCounters ctr;
    ctr.flops = ds_flops;
    ctr.cg_iterations = st.cg_iterations + st.cg3_iterations;
    ctx.tracer()->record("ds", cluster::SpanCat::kPhase, t_ds,
                         ctx.clock().now(), ctr);
  }

  ++state_.step;
  ++obs_.steps;
  obs_.ps_flops += st.ps_flops;
  obs_.ds_flops += st.ds_flops;
  obs_.cg_iterations += st.cg_iterations;
  obs_.tps_us += st.tps_us;
  obs_.tps_exch_us += st.tps_exch_us;
  obs_.tps_interior_us += st.tps_interior_us;
  obs_.overlap_us += st.overlap_us;
  obs_.tds_us += st.tds_us;
  return st;
}

}  // namespace hyades::gcm
