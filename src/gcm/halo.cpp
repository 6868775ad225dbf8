#include "gcm/halo.hpp"

#include <array>
#include <stdexcept>
#include <string>
#include <vector>

namespace hyades::gcm {

namespace {

// Rectangular (i, j) window of a tile, over all levels.
struct Window {
  int i0, i1, j0, j1;
  [[nodiscard]] std::size_t cells(int nz) const {
    return static_cast<std::size_t>((i1 - i0) * (j1 - j0) * nz);
  }
};

// Generic packer over a window and nz levels.
template <typename FieldT>
void pack(const FieldT& f, const Window& w, int nz, std::vector<double>& out) {
  out.clear();
  out.reserve(w.cells(nz));
  for (int i = w.i0; i < w.i1; ++i) {
    for (int j = w.j0; j < w.j1; ++j) {
      for (int k = 0; k < nz; ++k) {
        out.push_back(f(static_cast<std::size_t>(i), static_cast<std::size_t>(j),
                        static_cast<std::size_t>(k)));
      }
    }
  }
}

template <typename FieldT>
void unpack(FieldT& f, const Window& w, int nz, const std::vector<double>& in) {
  std::size_t n = 0;
  for (int i = w.i0; i < w.i1; ++i) {
    for (int j = w.j0; j < w.j1; ++j) {
      for (int k = 0; k < nz; ++k) {
        f(static_cast<std::size_t>(i), static_cast<std::size_t>(j),
          static_cast<std::size_t>(k)) = in[n++];
      }
    }
  }
}

// Array2D adaptor so the same pack/unpack handles both ranks.
struct Flat2D {
  Array2D<double>& a;
  double operator()(std::size_t i, std::size_t j, std::size_t) const {
    return a(i, j);
  }
  double& operator()(std::size_t i, std::size_t j, std::size_t) {
    return a(i, j);
  }
};

void check_width(const Decomp& dec, int width, const char* who) {
  if (width < 1 || width > dec.halo) {
    throw std::invalid_argument(std::string(who) +
                                ": width must be in [1, halo]");
  }
}

// The interior strip a tile sends toward direction d, and the halo
// strip that d's message fills.  East/west strips span the interior
// rows; north/south strips span the x-extended rows, so the corners
// stage 1 filled are carried along.
struct Strips {
  Window send;
  Window recv;
};

Strips strips(const Decomp& dec, int d, int width) {
  const int h = dec.halo;
  const int ie = h + dec.snx;  // one past the interior in x
  const int je = h + dec.sny;
  const int xi0 = h - width;  // x-extended rows
  const int xi1 = ie + width;
  switch (d) {
    case comm::kEast:
      return {{ie - width, ie, h, je}, {ie, ie + width, h, je}};
    case comm::kWest:
      return {{h, h + width, h, je}, {h - width, h, h, je}};
    case comm::kNorth:
      return {{xi0, xi1, je - width, je}, {xi0, xi1, je, je + width}};
    default:  // kSouth
      return {{xi0, xi1, h, h + width}, {xi0, xi1, h - width, h}};
  }
}

// Stage 0 is east/west, stage 1 north/south over the x-extended rows.
constexpr std::array<std::array<int, 2>, 2> kStageDirs{
    {{comm::kEast, comm::kWest}, {comm::kNorth, comm::kSouth}}};

// Pack one stage's outgoing strips and size its receive buffers; returns
// the stage's neighbour array for the exchange call.
template <typename FieldT>
std::array<int, comm::kDirections> pack_stage(int stage, const Decomp& dec,
                                              const FieldT& f, int nz,
                                              int width, comm::Buffers& buf) {
  std::array<int, comm::kDirections> nb{-1, -1, -1, -1};
  for (const int d : kStageDirs[static_cast<std::size_t>(stage)]) {
    const auto sd = static_cast<std::size_t>(d);
    nb[sd] = dec.neighbors[sd];
    if (nb[sd] < 0) continue;
    const Strips st = strips(dec, d, width);
    pack(f, st.send, nz, buf.out[sd]);
    buf.in[sd].resize(st.recv.cells(nz));
  }
  return nb;
}

template <typename FieldT>
void unpack_stage(int stage, const Decomp& dec, FieldT& f, int nz, int width,
                  const comm::Buffers& buf) {
  for (const int d : kStageDirs[static_cast<std::size_t>(stage)]) {
    const auto sd = static_cast<std::size_t>(d);
    if (dec.neighbors[sd] < 0) continue;
    unpack(f, strips(dec, d, width).recv, nz, buf.in[sd]);
  }
}

template <typename FieldT>
void exchange_impl(comm::Comm& comm, const Decomp& dec, FieldT& f, int nz,
                   int width) {
  check_width(dec, width, "exchange");
  for (int stage = 0; stage < 2; ++stage) {
    comm::Buffers buf;
    const auto nb = pack_stage(stage, dec, f, nz, width, buf);
    comm.exchange(nb, buf);
    unpack_stage(stage, dec, f, nz, width, buf);
  }
}

}  // namespace

void exchange3d(comm::Comm& comm, const Decomp& dec, Array3D<double>& f,
                int width) {
  exchange_impl(comm, dec, f, static_cast<int>(f.nz()), width);
}

void exchange2d(comm::Comm& comm, const Decomp& dec, Array2D<double>& f,
                int width) {
  Flat2D flat{f};
  exchange_impl(comm, dec, flat, 1, width);
}

HaloExchange3::HaloExchange3(comm::Comm& comm, const Decomp& dec,
                             Array3D<double>& f, int width)
    : comm_(&comm), dec_(&dec), f_(&f), width_(width) {
  check_width(dec, width, "HaloExchange3");
}

void HaloExchange3::start() {
  if (stage_ != 0) throw std::logic_error("HaloExchange3: start() twice");
  const int nz = static_cast<int>(f_->nz());
  h_ = comm_->exchange_start(pack_stage(0, *dec_, *f_, nz, width_, buf_), buf_);
  stage_ = 1;
}

void HaloExchange3::progress() {
  if (stage_ != 1) throw std::logic_error("HaloExchange3: progress() order");
  const int nz = static_cast<int>(f_->nz());
  comm_->exchange_finish(h_);
  unpack_stage(0, *dec_, *f_, nz, width_, buf_);
  buf_ = comm::Buffers{};
  h_ = comm_->exchange_start(pack_stage(1, *dec_, *f_, nz, width_, buf_), buf_);
  stage_ = 2;
}

void HaloExchange3::finish() {
  if (stage_ != 2) throw std::logic_error("HaloExchange3: finish() order");
  comm_->exchange_finish(h_);
  unpack_stage(1, *dec_, *f_, static_cast<int>(f_->nz()), width_, buf_);
  stage_ = 3;
}

}  // namespace hyades::gcm
