#include "gcm/coupler.hpp"

#include <cmath>
#include <stdexcept>

#include "gcm/halo.hpp"

namespace hyades::gcm {

namespace {
constexpr int kTagSst = 4000;
constexpr int kTagFlux = 4001;
}  // namespace

Coupler::Coupler(cluster::RankContext& ctx, int ocean_base, int atmos_base,
                 int group_n)
    : ctx_(ctx),
      rel_(ctx),
      ocean_base_(ocean_base),
      atmos_base_(atmos_base),
      group_n_(group_n) {
  const int r = ctx.rank();
  const bool in_ocean = r >= ocean_base_ && r < ocean_base_ + group_n_;
  const bool in_atmos = r >= atmos_base_ && r < atmos_base_ + group_n_;
  if (in_ocean == in_atmos) {
    throw std::invalid_argument("Coupler: rank must be in exactly one group");
  }
}

bool Coupler::is_ocean() const {
  return ctx_.rank() >= ocean_base_ && ctx_.rank() < ocean_base_ + group_n_;
}

void Coupler::exchange_boundary(Model& model, SurfaceForcing& forcing) {
  const Decomp& dec = model.decomp();
  const int h = dec.halo;
  const auto ex = static_cast<std::size_t>(dec.ext_x());
  const auto ey = static_cast<std::size_t>(dec.ext_y());
  const std::size_t n =
      static_cast<std::size_t>(dec.snx) * static_cast<std::size_t>(dec.sny);
  const auto bytes = static_cast<std::int64_t>(n * sizeof(double));
  const Microseconds xfer = ctx_.net().transfer_time(bytes);
  const State& s = model.state();
  forcing.active = true;

  // Helper lambdas: the wire format is the flat interior (i-major);
  // receivers scatter into extended arrays and halo-exchange one ring so
  // the PS overcomputation window sees consistent forcing.
  auto pack_interior = [&](auto&& get) {
    std::vector<double> out;
    out.reserve(n);
    for (int i = 0; i < dec.snx; ++i) {
      for (int j = 0; j < dec.sny; ++j) {
        out.push_back(get(static_cast<std::size_t>(i + h),
                          static_cast<std::size_t>(j + h)));
      }
    }
    return out;
  };
  auto unpack_interior = [&](const std::vector<double>& in, std::size_t base,
                             Array2D<double>& dst) {
    dst = Array2D<double>(ex, ey, 0.0);
    std::size_t p = base;
    for (int i = 0; i < dec.snx; ++i) {
      for (int j = 0; j < dec.sny; ++j) {
        dst(static_cast<std::size_t>(i + h), static_cast<std::size_t>(j + h)) =
            in[p++];
      }
    }
  };

  if (is_ocean()) {
    const int peer = ctx_.rank() - ocean_base_ + atmos_base_;
    // Send SST (surface theta over the interior).
    rel_.send(peer, kTagSst,
              pack_interior([&](std::size_t i, std::size_t j) {
                return s.theta(i, j, 0);
              }),
              ctx_.clock().now() + xfer);

    // Receive (taux, tauy, qnet) concatenated.
    const cluster::Message m = rel_.recv(peer, kTagFlux);
    ctx_.clock().advance_to(m.stamp_us);
    if (m.data.size() != 3 * n) {
      throw std::logic_error("Coupler: flux message size mismatch");
    }
    unpack_interior(m.data, 0, forcing.taux);
    unpack_interior(m.data, n, forcing.tauy);
    unpack_interior(m.data, 2 * n, forcing.qnet);
    exchange2d(model.comm(), dec, forcing.taux, 1);
    exchange2d(model.comm(), dec, forcing.tauy, 1);
    exchange2d(model.comm(), dec, forcing.qnet, 1);
    return;
  }

  // ---- atmosphere side --------------------------------------------------
  const int peer = ctx_.rank() - atmos_base_ + ocean_base_;
  const cluster::Message m = rel_.recv(peer, kTagSst);
  ctx_.clock().advance_to(m.stamp_us);
  if (m.data.size() != n) {
    throw std::logic_error("Coupler: SST message size mismatch");
  }
  unpack_interior(m.data, 0, forcing.sst);
  exchange2d(model.comm(), dec, forcing.sst, 1);

  // Bulk fluxes from the lowest atmospheric level.  The atmosphere's
  // theta is in K, the ocean's in degC; the bulk heat formula bridges
  // the two scales.
  const int kb = model.config().nz - 1;
  Array2D<double> taux(ex, ey, 0.0), tauy(ex, ey, 0.0), qnet(ex, ey, 0.0);
  for (int i = h; i < h + dec.snx; ++i) {
    for (int j = h; j < h + dec.sny; ++j) {
      const auto si = static_cast<std::size_t>(i);
      const auto sj = static_cast<std::size_t>(j);
      const auto sk = static_cast<std::size_t>(kb);
      const double uc = 0.5 * (s.u(si, sj, sk) + s.u(si + 1, sj, sk));
      const double vc = 0.5 * (s.v(si, sj, sk) + s.v(si, sj + 1, sk));
      const double speed = std::sqrt(uc * uc + vc * vc);
      taux(si, sj) = kAirDensity * kDragCoeff * speed * uc;
      tauy(si, sj) = kAirDensity * kDragCoeff * speed * vc;
      // Heat into the ocean when the air above is warmer than the SST.
      qnet(si, sj) = kHeatCoeff * ((s.theta(si, sj, sk) - 273.15) -
                                   forcing.sst(si, sj));
    }
  }
  std::vector<double> flux;
  flux.reserve(3 * n);
  auto append = [&](const Array2D<double>& f) {
    for (int i = 0; i < dec.snx; ++i) {
      for (int j = 0; j < dec.sny; ++j) {
        flux.push_back(f(static_cast<std::size_t>(i + h),
                         static_cast<std::size_t>(j + h)));
      }
    }
  };
  append(taux);
  append(tauy);
  append(qnet);
  rel_.send(peer, kTagFlux, std::move(flux), ctx_.clock().now() + 3.0 * xfer);
}

}  // namespace hyades::gcm
