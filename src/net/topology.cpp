#include "net/topology.hpp"

#include <algorithm>
#include <stdexcept>

#include "support/rng.hpp"

namespace hyades::net {

double Topology::mean_hops() const {
  const int n = endpoints();
  if (n < 2) return 0.0;
  if (n <= kExactMeanEndpoints) {
    double sum = 0.0;
    long long pairs = 0;
    for (int src = 0; src < n; ++src) {
      for (int dst = 0; dst < n; ++dst) {
        if (src == dst) continue;
        sum += static_cast<double>(hops(src, dst));
        ++pairs;
      }
    }
    return sum / static_cast<double>(pairs);
  }
  // Deterministic seeded sample: same machine => same estimate.
  SplitMix64 rng(0x70417273ull);
  const int samples = 4096;
  double sum = 0.0;
  int used = 0;
  for (int i = 0; i < samples; ++i) {
    const int src =
        static_cast<int>(rng.next_below(static_cast<std::uint64_t>(n)));
    const int dst =
        static_cast<int>(rng.next_below(static_cast<std::uint64_t>(n)));
    if (src == dst) continue;
    sum += static_cast<double>(hops(src, dst));
    ++used;
  }
  return used > 0 ? sum / static_cast<double>(used) : 0.0;
}

// ---- fat tree ----------------------------------------------------------

FatTreeTopology::FatTreeTopology(int endpoints, arctic::FatTreeShape shape,
                                 arctic::LinkConfig link)
    : endpoints_(endpoints), shape_(shape), link_(link) {
  shape_.check();
  if (endpoints < 1 || endpoints > shape_.max_endpoints()) {
    throw std::invalid_argument("FatTreeTopology: endpoints do not fit shape");
  }
}

std::string FatTreeTopology::name() const {
  return "fat-tree r=" + std::to_string(shape_.radix) +
         " L=" + std::to_string(shape_.levels);
}

int FatTreeTopology::hops(int src, int dst) const {
  return arctic::router_hops(src, dst, shape_);
}

int FatTreeTopology::diameter_hops() const {
  // Climb to the root level and back down.
  return 2 * (shape_.levels - 1) + 1;
}

Microseconds FatTreeTopology::per_hop_latency_us() const {
  // One cut-through stage: forward the header chunk over the link, then
  // the router stage latency.
  return static_cast<double>(link_.forward_bytes) /
             link_.bandwidth_mbytes_per_sec +
         link_.prop_delay_us + link_.stage_latency_us;
}

double FatTreeTopology::bisection_bandwidth_mbytes() const {
  // Full fat tree: both directions of every endpoint's share of the root
  // cut (Section 2.2's 2 * N * link rate).
  return 2.0 * static_cast<double>(endpoints_) *
         link_.bandwidth_mbytes_per_sec;
}

// ---- torus -------------------------------------------------------------

int TorusShape::ring_distance(int a, int b, int n) {
  const int d = a > b ? a - b : b - a;
  return std::min(d, n - d);
}

int TorusShape::distance(int a, int b) const {
  return ring_distance(x_of(a), x_of(b), nx) +
         ring_distance(y_of(a), y_of(b), ny) +
         ring_distance(z_of(a), z_of(b), nz);
}

void TorusShape::check() const {
  if (nx < 1 || ny < 1 || nz < 1) {
    throw std::invalid_argument("TorusShape: empty dimension");
  }
}

TorusShape near_cubic_torus(int nodes) {
  if (nodes < 1) throw std::invalid_argument("near_cubic_torus: nodes < 1");
  const auto largest_divisor_le = [](int n, int cap) {
    for (int d = cap; d > 1; --d) {
      if (n % d == 0) return d;
    }
    return 1;
  };
  int cbrt_cap = 1;
  while ((cbrt_cap + 1) * (cbrt_cap + 1) * (cbrt_cap + 1) <= nodes) ++cbrt_cap;
  const int nz = largest_divisor_le(nodes, cbrt_cap);
  const int rest = nodes / nz;
  int sqrt_cap = 1;
  while ((sqrt_cap + 1) * (sqrt_cap + 1) <= rest) ++sqrt_cap;
  const int ny = std::max(largest_divisor_le(rest, sqrt_cap), nz);
  TorusShape s{rest / ny, ny, nz};
  if (s.nx < s.ny) std::swap(s.nx, s.ny);
  s.check();
  return s;
}

TorusTopology::TorusTopology(TorusShape shape, Microseconds hop_latency_us,
                             double link_mbytes)
    : shape_(shape), hop_latency_us_(hop_latency_us),
      link_mbytes_(link_mbytes) {
  shape_.check();
}

std::string TorusTopology::name() const {
  return "torus " + std::to_string(shape_.nx) + "x" +
         std::to_string(shape_.ny) + "x" + std::to_string(shape_.nz);
}

int TorusTopology::diameter_hops() const {
  return shape_.nx / 2 + shape_.ny / 2 + shape_.nz / 2;
}

double TorusTopology::bisection_bandwidth_mbytes() const {
  // Cut the longest dimension in half: every ring along it contributes
  // its two wrap links to the cut, each carrying both directions.
  const int longest = std::max({shape_.nx, shape_.ny, shape_.nz});
  const int rings = shape_.nodes() / longest;
  return 4.0 * static_cast<double>(rings) * link_mbytes_;
}

}  // namespace hyades::net
