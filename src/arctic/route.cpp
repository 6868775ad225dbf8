#include "arctic/route.hpp"

#include <stdexcept>

namespace hyades::arctic {

void FatTreeShape::check() const {
  if (radix < kMinShapeRadix || radix > kMaxShapeRadix) {
    throw std::invalid_argument("FatTreeShape: radix out of range");
  }
  if (levels < 1 || levels > kMaxShapeLevels) {
    throw std::invalid_argument("FatTreeShape: levels out of range");
  }
  // Both route words must fit the width-checked encoding: the uproute
  // word carries the level count plus one port per climbed level, the
  // downroute word one port per level.
  if (count_bits() + port_bits() * (levels - 1) > kRouteWordBits ||
      port_bits() * levels > kRouteWordBits) {
    throw std::invalid_argument("FatTreeShape: route words overflow encoding");
  }
}

int levels_for(int endpoints, int radix) {
  if (endpoints < 1) throw std::invalid_argument("levels_for: endpoints < 1");
  if (radix < kMinShapeRadix || radix > kMaxShapeRadix) {
    throw std::invalid_argument("levels_for: radix out of range");
  }
  int n = 1;
  long long cap = radix;
  while (cap < endpoints) {
    cap *= radix;
    ++n;
    if (n > kMaxShapeLevels) {
      throw std::invalid_argument("levels_for: too many endpoints");
    }
  }
  const FatTreeShape shape{radix, n};
  shape.check();
  return n;
}

FatTreeShape shape_for(int endpoints, int radix) {
  return FatTreeShape{radix, levels_for(endpoints, radix)};
}

std::uint32_t Route::encode_uproute() const {
  const std::uint32_t pmask = (1u << port_bits) - 1u;
  const std::uint32_t cmask = (1u << count_bits) - 1u;
  std::uint32_t bits = static_cast<std::uint32_t>(up_levels) & cmask;
  for (int l = 0; l < up_levels && l < kMaxShapeLevels; ++l) {
    bits |= (static_cast<std::uint32_t>(up_ports[static_cast<std::size_t>(l)]) &
             pmask)
            << (count_bits + port_bits * l);
  }
  return bits;
}

Route Route::decode(std::uint32_t uproute, std::uint32_t downroute,
                    const FatTreeShape& shape) {
  Route r;
  r.port_bits = static_cast<std::uint8_t>(shape.port_bits());
  r.count_bits = static_cast<std::uint8_t>(shape.count_bits());
  const std::uint32_t pmask = (1u << r.port_bits) - 1u;
  const std::uint32_t cmask = (1u << r.count_bits) - 1u;
  r.up_levels = static_cast<int>(uproute & cmask);
  for (int l = 0; l < r.up_levels && l < kMaxShapeLevels; ++l) {
    r.up_ports[static_cast<std::size_t>(l)] = static_cast<std::uint8_t>(
        (uproute >> (r.count_bits + r.port_bits * l)) & pmask);
  }
  r.downroute = downroute;
  return r;
}

Route compute_route(int src, int dst, const FatTreeShape& shape,
                    SplitMix64* rng) {
  Route r;
  r.port_bits = static_cast<std::uint8_t>(shape.port_bits());
  r.count_bits = static_cast<std::uint8_t>(shape.count_bits());
  // Highest digit position where src and dst differ determines how far up
  // the packet must climb; same-leaf-router traffic (differs only in
  // digit 0, or not at all) never leaves the level-0 router.
  int p = 0;
  for (int l = shape.levels - 1; l >= 1; --l) {
    if (shape.digit(src, l) != shape.digit(dst, l)) {
      p = l;
      break;
    }
  }
  r.up_levels = p;
  for (int l = 0; l < p; ++l) {
    // Deterministic default: a pairwise hash of source and destination
    // digits.  Any fixed function of (src, dst) preserves Arctic's FIFO
    // guarantee; folding in several digits spreads distinct flows across
    // the root routers far better than a destination-only choice.
    const int port =
        rng ? static_cast<int>(
                  rng->next_below(static_cast<std::uint64_t>(shape.radix)))
            : ((shape.digit(src, 0) + shape.digit(src, l + 1) +
                shape.digit(dst, l + 1) + shape.digit(dst, 0)) %
               shape.radix);
    r.up_ports[static_cast<std::size_t>(l)] = static_cast<std::uint8_t>(port);
  }
  // Down ports: the level-l router on the descent reads port_bits at
  // bit offset port_bits*l.
  std::uint32_t down = 0;
  for (int l = 0; l <= p; ++l) {
    down |= static_cast<std::uint32_t>(shape.digit(dst, l))
            << (r.port_bits * l);
  }
  r.downroute = down;
  return r;
}

int router_hops(int src, int dst, const FatTreeShape& shape) {
  return compute_route(src, dst, shape).router_hops();
}

TopologyHealth::TopologyHealth(const FatTreeShape& shape)
    : levels_(shape.levels),
      routers_per_level_(shape.routers_per_level()),
      radix_(shape.radix),
      router_dead_(
          static_cast<std::size_t>(shape.levels * shape.routers_per_level()),
          0),
      link_dead_(static_cast<std::size_t>(shape.levels *
                                          shape.routers_per_level() *
                                          shape.radix),
                 0) {
  shape.check();
}

void TopologyHealth::kill_router(int level, int index) {
  if (level < 0 || level >= levels_ || index < 0 ||
      index >= routers_per_level_) {
    throw std::out_of_range("TopologyHealth::kill_router: bad coordinates");
  }
  char& d =
      router_dead_[static_cast<std::size_t>(level * routers_per_level_ + index)];
  if (d == 0) {
    d = 1;
    ++dead_routers_;
  }
}

void TopologyHealth::kill_up_link(int level, int index, int up_port) {
  if (level < 0 || level >= levels_ - 1 || index < 0 ||
      index >= routers_per_level_ || up_port < 0 || up_port >= radix_) {
    throw std::out_of_range("TopologyHealth::kill_up_link: bad coordinates");
  }
  char& d = link_dead_[static_cast<std::size_t>(
      (level * routers_per_level_ + index) * radix_ + up_port)];
  if (d == 0) {
    d = 1;
    ++dead_links_;
  }
}

namespace {

// compute_route's deterministic up-port choice at level l.
int default_up_port(int src, int dst, int l, const FatTreeShape& s) {
  return (s.digit(src, 0) + s.digit(src, l + 1) + s.digit(dst, l + 1) +
          s.digit(dst, 0)) %
         s.radix;
}

// The descent from apex router (k, apex) toward dst is forced: the
// level-l router must take down port digit(dst, l).  True when every
// router and cable on the way down is live.  A down hop from (l, r)
// to (l-1, below) rides the same physical cable as `below`'s up port
// digit(r, l-1), which is how link kills are addressed.
bool descent_clear(int apex, int k, int dst, const FatTreeShape& s,
                   const TopologyHealth& h) {
  int r = apex;
  for (int l = k; l >= 1; --l) {
    const int below = s.with_digit(r, l - 1, s.digit(dst, l));
    if (h.up_link_dead(l - 1, below, s.digit(r, l - 1))) return false;
    if (h.router_dead(l - 1, below)) return false;
    r = below;
  }
  return true;
}

// Depth-first search over the up-port choice vector for climb height k.
// At each level the candidates are probed in deterministic fallback
// order: the default (or RNG-drawn) preference first, then +1, +2, ...
// mod radix -- so the route picked is a pure function of (src, dst,
// dead set, preference vector).
bool climb(int dst, int k, int level, int r,
           std::array<std::uint8_t, kMaxShapeLevels>& up, const int* pref,
           const FatTreeShape& s, const TopologyHealth& h) {
  if (level == k) return descent_clear(r, k, dst, s, h);
  for (int j = 0; j < s.radix; ++j) {
    const int u = (pref[level] + j) % s.radix;
    if (h.up_link_dead(level, r, u)) continue;
    const int above = s.with_digit(r, level, u);
    if (h.router_dead(level + 1, above)) continue;
    up[static_cast<std::size_t>(level)] = static_cast<std::uint8_t>(u);
    if (climb(dst, k, level + 1, above, up, pref, s, h)) return true;
  }
  return false;
}

}  // namespace

RoutedPath compute_route_degraded(int src, int dst, const FatTreeShape& shape,
                                  const TopologyHealth& health,
                                  SplitMix64* rng) {
  if (health.radix() != shape.radix || health.levels() != shape.levels) {
    throw std::invalid_argument(
        "compute_route_degraded: health/shape mismatch");
  }
  // Minimal climb height, exactly as compute_route finds it.
  int p = 0;
  for (int l = shape.levels - 1; l >= 1; --l) {
    if (shape.digit(src, l) != shape.digit(dst, l)) {
      p = l;
      break;
    }
  }

  // Per-level starting preference: compute_route's own choice, so a
  // fully healthy search reproduces its route bit for bit.  In
  // random-uproute mode only the minimal-climb levels draw from the
  // stream (the same p draws compute_route makes), keeping stream
  // consumption independent of the dead set; over-climb levels fall
  // back to the deterministic pairwise hash.
  std::array<int, kMaxShapeLevels + 1> pref{};
  for (int l = 0; l < shape.levels - 1; ++l) {
    pref[static_cast<std::size_t>(l)] =
        (l < p && rng != nullptr)
            ? static_cast<int>(
                  rng->next_below(static_cast<std::uint64_t>(shape.radix)))
            : default_up_port(src, dst, l, shape);
  }

  RoutedPath out;
  out.route.port_bits = static_cast<std::uint8_t>(shape.port_bits());
  out.route.count_bits = static_cast<std::uint8_t>(shape.count_bits());
  const int src_leaf = shape.leaf_of(src);
  const int dst_leaf = shape.leaf_of(dst);
  if (health.router_dead(0, src_leaf) || health.router_dead(0, dst_leaf)) {
    return out;  // an endpoint's leaf router is gone: partitioned
  }

  // Try the minimal climb first, then exploit the fat tree's extra
  // diversity by over-climbing one level at a time.
  for (int k = p; k <= shape.levels - 1; ++k) {
    std::array<std::uint8_t, kMaxShapeLevels> up{};
    if (!climb(dst, k, 0, src_leaf, up, pref.data(), shape, health)) continue;
    out.status = RouteStatus::kOk;
    out.route.up_levels = k;
    out.route.up_ports = up;
    std::uint32_t down = 0;
    for (int l = 0; l <= k; ++l) {
      down |= static_cast<std::uint32_t>(shape.digit(dst, l))
              << (out.route.port_bits * l);
    }
    out.route.downroute = down;
    return out;
  }
  return out;
}

bool route_survives(int src, int dst, const Route& route,
                    const TopologyHealth& health) {
  const FatTreeShape shape{health.radix(), health.levels()};
  int r = shape.leaf_of(src);
  if (health.router_dead(0, r)) return false;
  for (int l = 0; l < route.up_levels; ++l) {
    const int u = route.up_ports[static_cast<std::size_t>(l)];
    if (health.up_link_dead(l, r, u)) return false;
    r = shape.with_digit(r, l, u);
    if (health.router_dead(l + 1, r)) return false;
  }
  for (int l = route.up_levels; l >= 1; --l) {
    const int below = shape.with_digit(r, l - 1, route.down_port(l));
    if (health.up_link_dead(l - 1, below, shape.digit(r, l - 1))) return false;
    if (health.router_dead(l - 1, below)) return false;
    r = below;
  }
  return r == shape.leaf_of(dst) && route.down_port(0) == shape.digit(dst, 0);
}

}  // namespace hyades::arctic
