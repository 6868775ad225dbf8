#include "arctic/fabric.hpp"

#include <stdexcept>
#include <string>

namespace hyades::arctic {

UnreachableError::UnreachableError(int src_, int dst_)
    : std::runtime_error("Fabric: no surviving path from endpoint " +
                         std::to_string(src_) + " to endpoint " +
                         std::to_string(dst_)),
      src(src_),
      dst(dst_) {}

// A router stage: radix down-side outputs plus (below the top level)
// radix up-side outputs.  Input handling lives in
// Fabric::on_router_receive; the Router just owns its output ports.
struct Fabric::Router {
  std::vector<std::unique_ptr<OutputPort>> down;  // size radix
  std::vector<std::unique_ptr<OutputPort>> up;    // empty at the top level
};

Fabric::Fabric(sim::Scheduler& sched, int endpoints, FabricConfig cfg)
    : sched_(sched),
      endpoints_(endpoints),
      shape_{cfg.radix, levels_for(endpoints, cfg.radix)},
      levels_(shape_.levels),
      cfg_(cfg),
      route_rng_(cfg.seed) {
  if (endpoints < 2) {
    throw std::invalid_argument("Fabric: need at least 2 endpoints");
  }
  shape_.check();
  routers_per_level_ = shape_.routers_per_level();
  health_ = TopologyHealth(shape_);
  wire_topology();
  // Permanent kills from the fault plan fire through the virtual clock.
  for (const KillEvent& kill : cfg_.faults.kills) {
    sched_.schedule_after(sim::from_us(kill.at_us),
                          [this, kill] { apply_kill(kill); });
  }
}

Fabric::~Fabric() = default;

void Fabric::wire_topology() {
  routers_.resize(static_cast<std::size_t>(levels_));
  for (int l = 0; l < levels_; ++l) {
    auto& level = routers_[static_cast<std::size_t>(l)];
    level.reserve(static_cast<std::size_t>(routers_per_level_));
    for (int r = 0; r < routers_per_level_; ++r) {
      auto router = std::make_unique<Router>();
      // Down ports.
      for (int p = 0; p < shape_.radix; ++p) {
        OutputPort::HeaderFn fn;
        if (l == 0) {
          const int node = r * shape_.radix + p;
          fn = [this, node](Packet&& pkt) {
            deliver_to_endpoint(node, std::move(pkt));
          };
        } else {
          const int below = shape_.with_digit(r, l - 1, p);
          fn = [this, l, below](Packet&& pkt) {
            on_router_receive(l - 1, below, /*from_below=*/false,
                              std::move(pkt));
          };
        }
        router->down.push_back(
            std::make_unique<OutputPort>(sched_, cfg_.link, std::move(fn)));
      }
      // Up ports (absent at the top level).
      if (l < levels_ - 1) {
        for (int u = 0; u < shape_.radix; ++u) {
          const int above = shape_.with_digit(r, l, u);
          auto fn = [this, l, above](Packet&& pkt) {
            on_router_receive(l + 1, above, /*from_below=*/true,
                              std::move(pkt));
          };
          router->up.push_back(
              std::make_unique<OutputPort>(sched_, cfg_.link, std::move(fn)));
        }
      }
      level.push_back(std::move(router));
    }
  }

  // Endpoint injection links feed each node's leaf router.
  injection_.reserve(static_cast<std::size_t>(endpoints_));
  for (int node = 0; node < endpoints_; ++node) {
    auto fn = [this, leaf = shape_.leaf_of(node)](Packet&& pkt) {
      on_router_receive(0, leaf, /*from_below=*/true, std::move(pkt));
    };
    injection_.push_back(
        std::make_unique<OutputPort>(sched_, cfg_.link, std::move(fn)));
  }
}

void Fabric::inject(int src, int dst, Packet p) {
  if (src < 0 || src >= endpoints_ || dst < 0 || dst >= endpoints_) {
    throw std::out_of_range("Fabric::inject: bad endpoint");
  }
  if (!p.valid_format()) {
    throw std::invalid_argument("Fabric::inject: invalid packet format");
  }
  // Healthy fabrics take the fast path; with anything dead the degraded
  // search routes around the dead set (consuming the same RNG stream, so
  // the two paths are bit-identical when nothing is dead).
  Route route;
  if (health_.any_dead()) {
    const RoutedPath routed = compute_route_degraded(
        src, dst, shape_, health_,
        cfg_.random_uproute ? &route_rng_ : nullptr);
    if (routed.status == RouteStatus::kUnreachable) {
      ++stats_.unreachable_routes;
      throw UnreachableError(src, dst);
    }
    route = routed.route;
    ++stats_.degraded_routes;
  } else {
    route = compute_route(src, dst, shape_,
                          cfg_.random_uproute ? &route_rng_ : nullptr);
  }
  p.src = src;
  p.dst = dst;
  p.uproute = route.encode_uproute();
  p.random_uproute = cfg_.random_uproute;
  p.downroute = route.downroute;
  p.serial = next_serial_++;
  p.seal();
  // Link-error injection after sealing: a forced word (test hook) wins,
  // otherwise the fault plan decides per-packet and picks the word.
  int garble = corrupt_next_word_;
  corrupt_next_word_ = -1;
  if (garble < 0 && cfg_.faults.corrupt_injection(p.serial)) {
    garble = cfg_.faults.corrupt_word(p.serial, 2 + p.payload_words());
  }
  if (garble >= 0) {
    p.corrupt_word(garble);  // CRC now mismatches
    ++stats_.corrupted;
  }
  ++stats_.injected;
  injection_[static_cast<std::size_t>(src)]->submit(std::move(p));
}

void Fabric::on_router_receive(int level, int index, bool from_below,
                               Packet&& p) {
  ++stats_.router_stages;
  // A packet that reaches dead hardware is lost -- in-flight traffic
  // routed before the kill cannot be rescued, only retransmitted by the
  // end-to-end protocol above.
  if (health_.router_dead(level, index)) {
    ++stats_.dead_component_drops;
    return;
  }
  // Every stage verifies the CRC (Section 2.2); a failure is flagged, and
  // the packet continues so the endpoint's status bit reports it.
  if (!p.crc_ok()) p.crc_error = true;

  // Transient stage faults from the plan: a drop loses the packet here
  // (an overflowed input queue); a stall holds it extra time before it
  // contends for its output port.
  if (cfg_.faults.drop_at_stage(p.serial, level, index)) {
    ++stats_.dropped;
    return;
  }
  Microseconds stall_us = cfg_.faults.stall_at_stage(p.serial, level, index);
  if (stall_us > 0) ++stats_.stalled;

  Router& router = *routers_[static_cast<std::size_t>(level)]
                            [static_cast<std::size_t>(index)];
  const Route route = Route::decode(p.uproute, p.downroute, shape_);

  // Routing decision: a packet arriving from below is still climbing iff
  // its route demands more up levels than this stage.
  OutputPort* port = nullptr;
  if (from_below && route.up_levels > level) {
    const int u = route.up_ports[static_cast<std::size_t>(level)];
    if (health_.up_link_dead(level, index, u)) {
      ++stats_.dead_component_drops;  // cable died under an in-flight packet
      return;
    }
    port = router.up[static_cast<std::size_t>(u)].get();
  } else {
    const int q = route.down_port(level);
    // The down hop at level > 0 rides the cable registered as the up
    // link of the router below (endpoint links at level 0 never die).
    if (level > 0 &&
        health_.up_link_dead(level - 1, shape_.with_digit(index, level - 1, q),
                             shape_.digit(index, level - 1))) {
      ++stats_.dead_component_drops;
      return;
    }
    port = router.down[static_cast<std::size_t>(q)].get();
  }

  // The packet spends the router stage latency (< 0.15 us, Section 2.2)
  // -- plus any injected stall -- crossing the stage before contending
  // for the output port.
  sched_.schedule_after(
      sim::from_us(cfg_.link.stage_latency_us + stall_us),
      [port, pkt = std::move(p)]() mutable { port->submit(std::move(pkt)); });
}

void Fabric::deliver_to_endpoint(int node, Packet&& p) {
  // Endpoint CRC check: the NIU verifies the trailer and exposes a 1-bit
  // status to software.
  if (!p.crc_ok()) p.crc_error = true;
  ++stats_.delivered;
  if (p.crc_error) ++stats_.crc_flagged;
  if (deliver_) deliver_(node, std::move(p));
}

void Fabric::apply_kill(const KillEvent& kill) {
  if (kill.kind == KillEvent::Kind::kRouter) {
    if (!health_.router_dead(kill.level, kill.index)) {
      health_.kill_router(kill.level, kill.index);
      ++stats_.routers_killed;
    }
  } else {
    if (!health_.up_link_dead(kill.level, kill.index, kill.port)) {
      health_.kill_up_link(kill.level, kill.index, kill.port);
      ++stats_.links_killed;
    }
  }
}

}  // namespace hyades::arctic
