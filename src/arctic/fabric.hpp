// The Arctic Switch Fabric: a 4-ary n-tree of cut-through routers.
//
// Semantics reproduced from Section 2.2 of the paper:
//   * packet-switched multi-stage fat-tree, 150 MByte/sec per link per
//     direction, < 0.15 us router stage latency;
//   * FIFO ordering of messages sent between two nodes along the same
//     path (deterministic routing keeps each pair on one path);
//   * two message priorities; a high-priority message cannot be blocked
//     by queued low-priority messages;
//   * CRC verified at every router stage and at the endpoints; software
//     only checks a 1-bit status flag.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <vector>

#include "arctic/fault.hpp"
#include "arctic/packet.hpp"
#include "arctic/route.hpp"
#include "arctic/router.hpp"
#include "sim/scheduler.hpp"
#include "support/rng.hpp"

namespace hyades::arctic {

struct FabricConfig {
  LinkConfig link;
  int radix = kRadix;           // router radix (paper: 4-ary Arctic)
  bool random_uproute = false;  // adaptive up-routing (breaks FIFO pairwise order)
  std::uint64_t seed = 1;       // for random uproute (never consumed by faults)
  FaultPlan faults;             // deterministic fault injection (default: off)
};

struct FabricStats {
  std::uint64_t injected = 0;
  std::uint64_t delivered = 0;
  std::uint64_t crc_flagged = 0;   // packets delivered with the error bit set
  std::uint64_t router_stages = 0; // total stages traversed by all packets
  std::uint64_t corrupted = 0;     // words garbled by the fault plan
  std::uint64_t dropped = 0;       // packets lost at a router stage
  std::uint64_t stalled = 0;       // stages that held a packet extra time
  std::uint64_t links_killed = 0;   // permanent link deaths applied
  std::uint64_t routers_killed = 0; // permanent router deaths applied
  std::uint64_t dead_component_drops = 0;  // packets lost into dead hardware
  std::uint64_t degraded_routes = 0;   // injections routed around a dead set
  std::uint64_t unreachable_routes = 0;  // injections with no surviving path
};

// Thrown by inject() when the dead set disconnects src from dst.
class UnreachableError : public std::runtime_error {
 public:
  UnreachableError(int src, int dst);
  int src;
  int dst;
};

class Fabric {
 public:
  using DeliverFn = std::function<void(int node, Packet&&)>;

  Fabric(sim::Scheduler& sched, int endpoints, FabricConfig cfg = {});
  ~Fabric();
  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  void set_delivery_handler(DeliverFn fn) { deliver_ = std::move(fn); }

  // Inject a packet from `src` to `dst`.  Route fields and CRC are filled
  // in here; injection contends for the endpoint's uplink.  Must be
  // called from within a scheduler event (or before the run starts).
  void inject(int src, int dst, Packet p);

  // Corrupt wire word `word` of the next injected packet after it is
  // sealed (simulates a link error; routers flag it via CRC).  Word 0/1
  // are the header words -- compute_crc covers them, so a garbled
  // header is flagged just like a garbled payload; word w >= 2 flips a
  // bit of payload[w - 2].  Defaults to the first payload word.
  void corrupt_next_injection(int word = 2) { corrupt_next_word_ = word; }

  [[nodiscard]] int endpoints() const { return endpoints_; }
  [[nodiscard]] int levels() const { return levels_; }
  [[nodiscard]] int routers_per_level() const { return routers_per_level_; }
  [[nodiscard]] const FatTreeShape& shape() const { return shape_; }
  [[nodiscard]] const FabricStats& stats() const { return stats_; }

  // Apply a permanent kill immediately (plan kills are scheduled through
  // the virtual clock in the constructor; tests and operators may also
  // kill components directly).  Packets already queued toward the dead
  // component are lost when they reach it; subsequent injections route
  // around it.
  void apply_kill(const KillEvent& kill);

  [[nodiscard]] const TopologyHealth& health() const { return health_; }

 private:
  struct Router;

  void wire_topology();
  void on_router_receive(int level, int index, bool from_below, Packet&& p);
  void deliver_to_endpoint(int node, Packet&& p);

  sim::Scheduler& sched_;
  int endpoints_;
  FatTreeShape shape_;
  int levels_;
  int routers_per_level_;
  FabricConfig cfg_;
  // Routing-only RNG stream.  Fault decisions are pure hashes keyed on
  // the packet serial (see FaultPlan), so enabling faults never
  // perturbs adaptive route choices.
  SplitMix64 route_rng_;
  DeliverFn deliver_;
  FabricStats stats_;
  TopologyHealth health_;
  int corrupt_next_word_ = -1;  // -1: no forced corruption pending
  std::uint64_t next_serial_ = 0;

  std::vector<std::vector<std::unique_ptr<Router>>> routers_;  // [level][index]
  std::vector<std::unique_ptr<OutputPort>> injection_;         // per endpoint
};

}  // namespace hyades::arctic
