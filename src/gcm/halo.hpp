// Halo exchange adapters: pack tile edge strips into the comm library's
// exchange buffers and unpack the neighbours' strips into the halo.
//
// A 3-D (or 2-D) field exchange runs in two stages -- east/west first,
// then north/south over the x-extended rows -- so halo corners are
// filled without explicit diagonal communication.  This is the standard
// realization of the paper's `exchange` primitive, and each stage maps
// onto one call of comm::Comm::exchange.
#pragma once

#include "comm/comm.hpp"
#include "gcm/decomp.hpp"
#include "support/array.hpp"

namespace hyades::gcm {

// Exchange `width` halo cells of a 3-D field (width <= dec.halo).
void exchange3d(comm::Comm& comm, const Decomp& dec, Array3D<double>& f,
                int width);

// Exchange `width` halo cells of a 2-D field.
void exchange2d(comm::Comm& comm, const Decomp& dec, Array2D<double>& f,
                int width);

// Split-phase 3-D halo exchange: the two stages of exchange3d broken at
// their communication waits, so the stepper can compute while strips are
// in flight (ModelConfig::overlap_comm).  Stage 2 (north/south) packs
// x-extended rows that include stage-1 results, so it cannot be posted
// before stage 1 completes; `progress` is the pivot between them.
//
//   HaloExchange3 hx(comm, dec, f, width);
//   hx.start();     // pack + post stage 1 (east/west strips)
//   ... compute ...
//   hx.progress();  // finish stage 1, pack + post stage 2 (north/south)
//   ... compute ...
//   hx.finish();    // finish stage 2; halo fully fresh
//
// The field must not be written between start() and finish().  Several
// HaloExchange3 may be in flight at once; the comm layer finishes
// exchanges in the order it started them, so run start() on all of them,
// then progress() on all, then finish() on all, each pass in one order.
// The three calls are collective across the group.  Immovable: the
// in-flight handle points at this object's own buffers, so hold
// exchanges where they never relocate (a std::array built in place, a
// std::deque).
class HaloExchange3 {
 public:
  HaloExchange3(comm::Comm& comm, const Decomp& dec, Array3D<double>& f,
                int width);
  HaloExchange3(const HaloExchange3&) = delete;
  HaloExchange3& operator=(const HaloExchange3&) = delete;

  void start();
  void progress();
  void finish();

 private:
  comm::Comm* comm_;
  const Decomp* dec_;
  Array3D<double>* f_;
  int width_;
  int stage_ = 0;  // 0 idle, 1 stage-1 posted, 2 stage-2 posted, 3 done
  comm::Buffers buf_;
  comm::ExchangeHandle h_;
};

}  // namespace hyades::gcm
