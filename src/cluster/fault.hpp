// Deterministic fault injection for the threaded cluster world.
//
// A FaultPlan decides, per bulk-message attempt, whether the transfer
// arrives intact, arrives CRC-flagged (Arctic's per-stage CRC marks the
// packet, the endpoint surfaces a 1-bit status), or is lost outright
// (a stalled NIU dropping its rx queue).  Decisions are *pure functions*
// of (seed, src, dst, serial, attempt) hashed through the SplitMix64
// finalizer -- no shared mutable RNG state -- so an injected fault
// pattern is bit-identical across runs regardless of host thread
// scheduling, and consuming fault decisions cannot perturb any other
// random stream (notably the fabric's random-uproute routing).
//
// The plan also carries the reliability protocol's timing parameters:
// the receiver-side virtual-clock timeout that detects a dropped
// transfer, and the capped exponential backoff applied before each
// retransmit.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "support/units.hpp"

namespace hyades::cluster {

// A permanent node fail-stop: during epoch `epoch`, the SMP node
// hosting `rank` dies -- every rank it hosts stops at its first
// communication point at or after virtual time `at_us` and never speaks
// again.  Restarted epochs (epoch > kill.epoch) run the node normally:
// the operator replaced the board.
struct NodeKill {
  int rank = -1;
  Microseconds at_us = 0.0;
  int epoch = 0;
};

// A permanent inter-SMP link death: from `at_us` on, bulk transfers
// between the two SMPs ride a longer route-around path (the fat tree's
// surviving diversity) and pay `FaultPlan::reroute_penalty_us` extra
// latency per transfer.  Timing-only: payload bits are untouched.
struct LinkKill {
  int smp_a = -1;
  int smp_b = -1;
  Microseconds at_us = 0.0;
};

// A hot node join: at the first checkpoint cut whose step is >= at_step,
// a replacement board for SMP `smp` is back in service -- ranks homed on
// that SMP but migrated elsewhere after a NodeKill return home and the
// load rebalances.  Keyed by *step*, not virtual time, so a replayed
// epoch re-applies the join identically (the application is idempotent).
struct NodeJoin {
  int smp = -1;
  long at_step = 0;
};

// The collectively agreed fail-stop verdict.  detected_us is plan-pure
// (kill time + heartbeat deadline), never a racing observer's clock, so
// every survivor derives the identical verdict.
//
// Failures overlap at scale, so the verdict carries a dead *set*, not a
// first casualty: every kill of the epoch whose heartbeat deadline has
// expired by the detection fixpoint (see coalesce_expired_kills) is
// absorbed into `ranks`, the set recovery plans from.  `rank` stays the
// primary casualty (the lowest rank of the set) for messages.
struct NodeDownVerdict {
  int rank = -1;
  std::vector<int> ranks;  // coalesced kill-named ranks, sorted ascending
  int epoch = 0;
  Microseconds detected_us = 0.0;
};

// Thrown by a rank that escalates a fail-stopped peer (see
// Membership::escalate): that rank unwinds its epoch, its exit unwinds
// the ranks waiting on it, and the resilient driver recovers from the
// verdict.
class NodeDownError : public std::runtime_error {
 public:
  explicit NodeDownError(const NodeDownVerdict& v)
      : std::runtime_error(
            "node down: rank " + std::to_string(v.rank) +
            (v.ranks.size() > 1
                 ? " (+" + std::to_string(v.ranks.size() - 1) +
                       " coalesced)"
                 : std::string()) +
            " (epoch " + std::to_string(v.epoch) + ", detected at t=" +
            std::to_string(v.detected_us) + " us)"),
        verdict(v) {}
  NodeDownVerdict verdict;
};

// Thrown inside a rank that reaches its own scheduled fail-stop point;
// deliberately NOT a std::exception so only the resilient driver's
// explicit handler treats it as "this rank went silent".
struct RankFailStop {
  NodeKill kill;
};

struct FaultPlan {
  std::uint64_t seed = 1;

  // Per-attempt fault probabilities for remote (inter-SMP) bulk
  // messages.  Intra-SMP traffic moves through shared memory and is not
  // subject to fabric faults.
  double corrupt_prob = 0.0;  // attempt arrives with the CRC bit set
  double drop_prob = 0.0;     // attempt never arrives (NIU/router stall)

  // Reliability protocol timing (virtual microseconds).
  Microseconds timeout_us = 500.0;      // drop detection watchdog
  Microseconds backoff_us = 25.0;       // base retransmit backoff
  Microseconds backoff_max_us = 800.0;  // exponential backoff cap

  // Hard cap on attempts per message: fault probabilities below 1 make
  // runaway retries astronomically unlikely, so hitting the cap means
  // the link is effectively dead and the protocol gives up (throws).
  int max_attempts = 64;

  // ---- hard failures --------------------------------------------------
  // Permanent fail-stops and link deaths (explicit schedules, same
  // determinism discipline as the probabilistic fates: everything below
  // is a pure function of the plan).
  std::vector<NodeKill> node_kills;
  std::vector<LinkKill> link_kills;

  // Hot joins consumed by the migrate-mode resilient driver: replacement
  // boards that come back mid-campaign (no effect under epoch restart,
  // which always relaunches on the home placement).
  std::vector<NodeJoin> node_joins;

  // Membership: a peer silent past `heartbeat_deadline_us` of virtual
  // time is declared down.  Before declaring, the detector pays for
  // `dead_peer_probes` heartbeat probes -- escalation, not retry-budget
  // burn.
  Microseconds heartbeat_deadline_us = 2000.0;
  int dead_peer_probes = 3;

  // Virtual cost of one collective restart-from-checkpoint (relaunch +
  // state reload), charged to every rank of the new epoch.
  Microseconds restart_cost_us = 5000.0;

  // Virtual cost of adopting one dead node's tile by live migration:
  // loading the tile's durable checkpoint on the adopter, deliberately
  // far below restart_cost_us (survivors keep their in-memory state, so
  // only the dead tiles touch disk).  Charged to adopting ranks only.
  Microseconds migrate_cost_us = 1500.0;

  // Virtual cost of handing a migrated tile back to a hot-joined
  // replacement board (state handoff at a checkpoint cut).  Charged to
  // the rebalanced rank only.
  Microseconds rebalance_cost_us = 800.0;

  // Extra per-transfer latency between SMP pairs whose direct link died
  // (the route-around path crosses more router stages).
  Microseconds reroute_penalty_us = 3.0;

  enum class Fate { kOk, kCorrupt, kDrop };

  [[nodiscard]] bool enabled() const {
    return has_fates() || has_node_kills() || has_link_kills();
  }
  // Probabilistic per-attempt fates (corrupt/drop) are configured; the
  // reliability layer runs its retransmit episode simulation only then.
  [[nodiscard]] bool has_fates() const {
    return corrupt_prob > 0.0 || drop_prob > 0.0;
  }
  [[nodiscard]] bool has_node_kills() const { return !node_kills.empty(); }
  [[nodiscard]] bool has_node_joins() const { return !node_joins.empty(); }
  [[nodiscard]] bool has_link_kills() const { return !link_kills.empty(); }

  // The kill scheduled for `rank` in `epoch`, or nullptr.
  [[nodiscard]] const NodeKill* node_kill(int rank, int epoch) const;

  // True when the direct link between the two SMPs is dead at virtual
  // time `now_us` (kills are permanent, symmetric in the SMP pair).
  [[nodiscard]] bool link_dead(int smp_a, int smp_b,
                               Microseconds now_us) const;

  // The fate of attempt number `attempt` of message `serial` from
  // src -> dst.  Pure function of the keys and the seed.
  [[nodiscard]] Fate fate(int src, int dst, std::uint64_t serial,
                          int attempt) const;

  // Capped exponential backoff before retransmit number `attempt`
  // (attempt 1 is the first retransmit): base * 2^(attempt-1), capped.
  [[nodiscard]] Microseconds backoff(int attempt) const;
};

}  // namespace hyades::cluster
