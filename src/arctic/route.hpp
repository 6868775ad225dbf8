// Up/down routing for the Arctic fat-tree (a radix-r n-tree; the paper's
// machine is the 4-ary case).
//
// Endpoints are numbered 0..r^n-1 and viewed as n base-r digits
// d_{n-1}..d_0.  Level-0 (leaf) routers attach endpoints; each level has
// r^(n-1) routers.  Router (l, r) up-port u connects to router
// (l+1, r with digit l := u); its inverse is the down wiring.  A packet
// ascends `up_levels` stages (any up port works -- this is the fat tree's
// path diversity, exploited by the "random uproute" header bit) and then
// descends following the destination digits: the level-l router on the
// down path uses down port d_l.
//
// The tree shape is carried by FatTreeShape{radix, levels}.  At the
// paper's radix 4 the route words are the paper's layout bit for bit
// (2-bit ports, 3-bit level count; the route goldens in tests/arctic
// lock it).
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "support/rng.hpp"

namespace hyades::arctic {

inline constexpr int kRadix = 4;  // the paper's Arctic router radix
inline constexpr int kMinShapeRadix = 2;
inline constexpr int kMaxShapeRadix = 8;
inline constexpr int kMaxShapeLevels = 16;  // route-word width cap (see check)
// Route words are carried in 32-bit fields; the encodings below must
// leave the top bits clear so the packet's extended header word can
// carry the overflow past the legacy Figure 1(b) field widths.
inline constexpr int kRouteWordBits = 30;

// Parameterized fat-tree shape: `levels` tree levels of radix-`radix`
// routers, attaching up to radix^levels endpoints.  Width-checked: a
// shape is valid only when its up/down route words fit the 32-bit route
// encoding (radix 2..8; e.g. >= 4096 endpoints at every radix).
struct FatTreeShape {
  int radix = kRadix;
  int levels = 1;

  // Bits per port in the route words: 1 for radix 2, 2 up to radix 4,
  // 3 up to radix 8.  Radix 4 reproduces the paper's 2-bit fields.
  [[nodiscard]] int port_bits() const {
    int bits = 0;
    for (int v = radix - 1; v > 0; v >>= 1) ++bits;
    return bits;
  }
  // Bits for the up-level count in the uproute word.  Never fewer than
  // the paper's 3, so every radix-4 encoding stays bit-identical.
  [[nodiscard]] int count_bits() const {
    int bits = 0;
    for (int v = levels - 1; v > 0; v >>= 1) ++bits;
    return bits > 3 ? bits : 3;
  }
  // Throws std::invalid_argument when the shape is out of range or its
  // route words would not fit the width-checked encoding.
  void check() const;

  // Digit l (base radix) of endpoint or router address e.
  [[nodiscard]] int digit(int e, int l) const {
    int v = e;
    for (int i = 0; i < l; ++i) v /= radix;
    return v % radix;
  }
  // Replace base-radix digit `pos` of `value` with `d`.
  [[nodiscard]] int with_digit(int value, int pos, int d) const {
    int scale = 1;
    for (int i = 0; i < pos; ++i) scale *= radix;
    return value + (d - (value / scale) % radix) * scale;
  }
  // Leaf router attaching endpoint e.
  [[nodiscard]] int leaf_of(int e) const { return e / radix; }

  [[nodiscard]] int routers_per_level() const {
    int n = 1;
    for (int l = 0; l < levels - 1; ++l) n *= radix;
    return n;
  }
  [[nodiscard]] int max_endpoints() const {
    return routers_per_level() * radix;
  }
};

// Number of tree levels (n) needed for `endpoints` nodes at `radix`;
// endpoints is rounded up to the next power of the radix.  At least 1,
// and width-checked.
int levels_for(int endpoints, int radix);
// Convenience: the checked shape covering `endpoints` at `radix`.
FatTreeShape shape_for(int endpoints, int radix);

struct Route {
  int up_levels = 0;                        // stages to ascend
  std::array<std::uint8_t, kMaxShapeLevels> up_ports{};  // up port per level
  std::uint32_t downroute = 0;  // port_bits-wide down port per level
  // Wire-encoding geometry.  Defaults are the paper's radix-4 layout
  // (2-bit ports, 3-bit level count); compute_route/decode overwrite
  // them from the shape so down_port/encode stay shape-correct.
  std::uint8_t port_bits = 2;
  std::uint8_t count_bits = 3;

  [[nodiscard]] int down_port(int level) const {
    const std::uint32_t mask = (1u << port_bits) - 1u;
    return static_cast<int>((downroute >> (port_bits * level)) & mask);
  }
  // Total router stages traversed: 2*up_levels + 1.
  [[nodiscard]] int router_hops() const { return 2 * up_levels + 1; }
  // Total link hops including endpoint links: router_hops() + 1.
  [[nodiscard]] int link_hops() const { return router_hops() + 1; }

  // Encode up_levels + up ports into the uproute word: bits
  // [count_bits-1:0] = up_levels, then port_bits per climbed level.
  // The radix-4 default (bits [2:0] = up_levels, port l at bits
  // [3+2l+1 : 3+2l]) is the paper's 14-bit layout, bit for bit.
  [[nodiscard]] std::uint32_t encode_uproute() const;
  static Route decode(std::uint32_t uproute, std::uint32_t downroute,
                      const FatTreeShape& shape);
};

// Compute the route from src to dst.  If rng is non-null the up ports
// are chosen at random (the adaptive "random uproute" mode); otherwise a
// deterministic choice (a pairwise digit hash) is made, which keeps
// every (src,dst) pair on a single path and hence preserves Arctic's
// FIFO ordering guarantee.
Route compute_route(int src, int dst, const FatTreeShape& shape,
                    SplitMix64* rng = nullptr);

// Router stages on the deterministic path between src and dst.
int router_hops(int src, int dst, const FatTreeShape& shape);

// ---- degraded-mode routing (hard failures) ----------------------------

// Health view of one fabric: which routers are dead and which
// inter-router links are dead.  A link is identified by its *lower*
// endpoint: up port `u` of router (level, index); the reverse (down)
// direction of the same physical cable dies with it.  Endpoint
// injection/delivery links are not killable -- a node that loses its
// leaf router is simply partitioned.
class TopologyHealth {
 public:
  TopologyHealth() = default;
  explicit TopologyHealth(const FatTreeShape& shape);

  void kill_router(int level, int index);
  void kill_up_link(int level, int index, int up_port);

  [[nodiscard]] bool router_dead(int level, int index) const {
    return !router_dead_.empty() &&
           router_dead_[static_cast<std::size_t>(level * routers_per_level_ +
                                                 index)] != 0;
  }
  [[nodiscard]] bool up_link_dead(int level, int index, int up_port) const {
    return !link_dead_.empty() &&
           link_dead_[static_cast<std::size_t>(
               (level * routers_per_level_ + index) * radix_ + up_port)] != 0;
  }
  [[nodiscard]] bool any_dead() const {
    return dead_routers_ + dead_links_ > 0;
  }
  [[nodiscard]] int dead_routers() const { return dead_routers_; }
  [[nodiscard]] int dead_links() const { return dead_links_; }
  [[nodiscard]] int levels() const { return levels_; }
  [[nodiscard]] int radix() const { return radix_; }

 private:
  int levels_ = 0;
  int routers_per_level_ = 0;
  int radix_ = kRadix;
  std::vector<char> router_dead_;  // [level * routers_per_level + index]
  std::vector<char> link_dead_;    // [router slot * radix + up port]
  int dead_routers_ = 0;
  int dead_links_ = 0;
};

enum class RouteStatus { kOk, kUnreachable };

struct RoutedPath {
  RouteStatus status = RouteStatus::kUnreachable;
  Route route;
};

// Topology-aware routing that excludes dead up-ports and routers using
// the fat tree's path diversity.  The search tries the minimal climb
// height first, then over-climbs one level at a time; at each level the
// candidate up ports are probed in a deterministic fallback order
// starting from the port compute_route would have picked (so with
// nothing dead the result -- and, in random-uproute mode, the RNG
// stream consumption -- is bit-identical to compute_route).  Returns
// kUnreachable exactly when the dead set disconnects src from dst under
// up*/down* routing.
RoutedPath compute_route_degraded(int src, int dst, const FatTreeShape& shape,
                                  const TopologyHealth& health,
                                  SplitMix64* rng = nullptr);

// True when `route` carries a packet from src to dst over live routers
// and links only (used by tests to validate degraded routes).  The
// shape is taken from `health` (radix) and the route's own encoding.
bool route_survives(int src, int dst, const Route& route,
                    const TopologyHealth& health);

}  // namespace hyades::arctic
