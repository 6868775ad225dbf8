// Structural view of an interconnect: how many endpoints, what a route
// between two of them costs in switching hops, and what the wires are
// worth.  The timing models (Interconnect) answer "how long does this
// primitive take"; a Topology answers "what does the network look
// like", which is what the topology-at-scale study sweeps over.
//
// Implementations: the Arctic fat tree (any FatTreeShape) and the 3-D
// torus of the CP-PACS/PACS-CS family.
#pragma once

#include <string>

#include "arctic/route.hpp"
#include "arctic/router.hpp"
#include "support/units.hpp"

namespace hyades::net {

// The paper's testbed size: 16 SMP endpoints on the Arctic fabric.
inline constexpr int kPaperEndpoints = 16;
// Machines up to this size get exact all-pairs mean_hops(); larger ones
// a deterministic seeded sample.
inline constexpr int kExactMeanEndpoints = 512;

class Topology {
 public:
  virtual ~Topology() = default;

  [[nodiscard]] virtual std::string name() const = 0;
  [[nodiscard]] virtual int endpoints() const = 0;

  // Route cost: switching elements traversed from src to dst (router
  // stages in the fat tree, inter-node links in the torus).
  [[nodiscard]] virtual int hops(int src, int dst) const = 0;
  // Largest hops() over all endpoint pairs (closed form per topology).
  [[nodiscard]] virtual int diameter_hops() const = 0;

  [[nodiscard]] virtual Microseconds per_hop_latency_us() const = 0;
  [[nodiscard]] virtual double link_bandwidth_mbytes() const = 0;
  // Aggregate bandwidth across the worst-case even bisection of the
  // machine, both directions.
  [[nodiscard]] virtual double bisection_bandwidth_mbytes() const = 0;

  // Mean hops() over endpoint pairs: exact all-pairs average for small
  // machines, a deterministic seeded sample above kExactMeanEndpoints.
  [[nodiscard]] double mean_hops() const;
};

// ---- Arctic fat tree ---------------------------------------------------

class FatTreeTopology final : public Topology {
 public:
  FatTreeTopology(int endpoints, arctic::FatTreeShape shape,
                  arctic::LinkConfig link = {});

  [[nodiscard]] std::string name() const override;
  [[nodiscard]] int endpoints() const override { return endpoints_; }
  [[nodiscard]] int hops(int src, int dst) const override;
  [[nodiscard]] int diameter_hops() const override;
  [[nodiscard]] Microseconds per_hop_latency_us() const override;
  [[nodiscard]] double link_bandwidth_mbytes() const override {
    return link_.bandwidth_mbytes_per_sec;
  }
  [[nodiscard]] double bisection_bandwidth_mbytes() const override;
  [[nodiscard]] const arctic::FatTreeShape& shape() const { return shape_; }

 private:
  int endpoints_;
  arctic::FatTreeShape shape_;
  arctic::LinkConfig link_;
};

// ---- 3-D torus (CP-PACS / PACS-CS family) ------------------------------

struct TorusShape {
  int nx = 1;
  int ny = 1;
  int nz = 1;

  [[nodiscard]] int nodes() const { return nx * ny * nz; }
  // Lexicographic rank embedding: rank = x + nx*(y + ny*z).
  [[nodiscard]] int x_of(int rank) const { return rank % nx; }
  [[nodiscard]] int y_of(int rank) const { return (rank / nx) % ny; }
  [[nodiscard]] int z_of(int rank) const { return rank / (nx * ny); }
  // Minimal wrap distance along one dimension of extent n.
  static int ring_distance(int a, int b, int n);
  // Dimension-ordered minimal path length (links) between two ranks.
  [[nodiscard]] int distance(int a, int b) const;
  void check() const;  // throws std::invalid_argument on empty dims
};

// Factor `nodes` into the most nearly cubic nx >= ny >= nz (exact
// product; deterministic).
TorusShape near_cubic_torus(int nodes);

class TorusTopology final : public Topology {
 public:
  TorusTopology(TorusShape shape, Microseconds hop_latency_us,
                double link_mbytes);

  [[nodiscard]] std::string name() const override;
  [[nodiscard]] int endpoints() const override { return shape_.nodes(); }
  [[nodiscard]] int hops(int src, int dst) const override {
    return shape_.distance(src, dst);
  }
  [[nodiscard]] int diameter_hops() const override;
  [[nodiscard]] Microseconds per_hop_latency_us() const override {
    return hop_latency_us_;
  }
  [[nodiscard]] double link_bandwidth_mbytes() const override {
    return link_mbytes_;
  }
  [[nodiscard]] double bisection_bandwidth_mbytes() const override;
  [[nodiscard]] const TorusShape& shape() const { return shape_; }

 private:
  TorusShape shape_;
  Microseconds hop_latency_us_;
  double link_mbytes_;
};

}  // namespace hyades::net
