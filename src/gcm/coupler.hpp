// Ocean-atmosphere coupler (Section 5.1): "the ocean and atmosphere
// isomorphs must run concurrently, periodically exchanging boundary
// conditions".  Both components use the same lateral grid and tile
// decomposition, so tile (tx, ty) of one component pairs with the same
// tile of the other; the paired ranks swap 2-D boundary fields through
// the interconnect.
//
// Protocol per coupling interval:
//   ocean -> atmosphere : SST (surface theta)
//   atmosphere -> ocean : wind stress (bulk formula on its lowest-level
//                         winds) and net surface heat flux.
//
// Both legs ride comm/reliable like all model traffic, so a fault plan
// costs them retransmits, never corrupt boundary fields.
#pragma once

#include "cluster/runtime.hpp"
#include "comm/reliable.hpp"
#include "gcm/model.hpp"
#include "gcm/physics.hpp"

namespace hyades::gcm {

class Coupler {
 public:
  // Groups [ocean_base, ocean_base+n) and [atmos_base, atmos_base+n).
  Coupler(cluster::RankContext& ctx, int ocean_base, int atmos_base,
          int group_n);

  [[nodiscard]] bool is_ocean() const;

  // Collective over both groups.  Fills `forcing` with the peer's
  // boundary fields: SST for an atmosphere rank; taux/tauy/qnet for an
  // ocean rank.
  void exchange_boundary(Model& model, SurfaceForcing& forcing);

  // Bulk-formula constants.
  static constexpr double kAirDensity = 1.2;       // kg/m^3
  static constexpr double kDragCoeff = 1.3e-3;     // momentum exchange
  static constexpr double kHeatCoeff = 35.0;       // W/m^2/K

 private:
  cluster::RankContext& ctx_;
  comm::Reliable rel_;  // one per rank, so per-peer serials advance
  int ocean_base_, atmos_base_, group_n_;
};

}  // namespace hyades::gcm
