// End-to-end reliable delivery for the comm library's bulk transfers.
//
// The paper's fabric detects corruption (per-stage CRC surfaces a 1-bit
// status to software) but leaves recovery to the software layer.  This
// class is that layer: every remote message carries a per-(src, dst)
// sequence number, and the receive path checks the CRC status bit and
// discards flagged attempts -- modeling a NAK back to the sender -- so
// corrupted data can never reach halo buffers or global sums.  Dropped
// transfers are recovered by a receiver-side virtual-clock timeout.
// Retransmits apply a capped exponential backoff.
//
// Simulation mechanics: when a FaultPlan is attached to the machine, the
// *sender* precomputes the whole recovery episode (the fate of each
// attempt is a pure hash of (seed, src, dst, serial, attempt), so sender
// and tests agree without any handshake):
//
//   * a corrupted attempt is enqueued as a real message with garbled
//     payload (NaNs) and crc_error set -- the bus's FIFO-per-(src, tag)
//     guarantee delivers it before the eventual good attempt, forcing
//     the receive path to actually exercise the discard logic;
//   * a dropped attempt enqueues nothing; its cost is the timeout;
//   * the final good attempt carries the pristine payload, the total
//     recovery_us delay folded into its arrival stamp, and the attempt
//     number, from which the receiver reconstructs drop counts.
//
// With no FaultPlan every call degenerates to the raw bus operation with
// zero extra clock or accounting effects: fault-free runs stay
// bit-identical to the pre-fault-layer library (regression-locked).
//
// Recovery cost lands in Accounting::retrans_us, its events in the
// Accounting counters, plus a kFault trace span per recovered transfer.
//
// Hard failures (PR 4) hook in at the same choke point:
//
//   * every send/recv is a communication point: a rank whose scheduled
//     fail-stop time has passed dies here (Membership::maybe_fail_self);
//   * a dead inter-SMP link (FaultPlan::link_kills) adds the
//     route-around penalty to the arrival stamp and flags the message,
//     so the receiver can attribute the detour (reroute_us bucket);
//   * a blocking recv from a fail-stopped peer does not burn the retry
//     budget or wait on real time: the peer's exit wakes the receiver
//     (cluster::PeerExited), and once the plan confirms the scheduled
//     fail-stop, the receiver escalates to the membership service and
//     unwinds this epoch with the plan-pure NodeDown verdict; its own
//     exit then ends the waits of the ranks blocked on it.
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>

#include "cluster/fault.hpp"
#include "cluster/runtime.hpp"

namespace hyades::comm {

// Thrown when a transfer exhausts FaultPlan::max_attempts -- with
// per-attempt fault probability p < 1 this is a (1-p)^-64 event, i.e.
// the modeled link is effectively dead, which no retry policy fixes.
struct DeliveryFailure : std::runtime_error {
  DeliveryFailure(int on_rank, int to_peer, std::uint64_t xfer_serial,
                  int tries)
      : std::runtime_error(
            "reliable delivery: rank " + std::to_string(on_rank) + " -> " +
            std::to_string(to_peer) + " serial " +
            std::to_string(xfer_serial) + " still faulted after " +
            std::to_string(tries) + " attempts"),
        rank(on_rank), peer(to_peer), serial(xfer_serial), attempts(tries) {}
  int rank, peer;
  std::uint64_t serial;
  int attempts;
};

class Reliable {
 public:
  explicit Reliable(cluster::RankContext& ctx) : ctx_(ctx) {}

  // Send `data` to absolute rank `to` with fault-free arrival time
  // `stamp`.  Applies the fault/retransmit simulation iff a FaultPlan is
  // enabled and the destination is on another SMP.
  void send(int to, int tag, std::vector<double> data, Microseconds stamp);

  // Receive the next good message from (from, tag): drains CRC-flagged
  // ghost attempts (counting a NAK each), validates serial/attempt
  // bookkeeping (fail fast on protocol corruption), charges recovery
  // cost and records the kFault span.  If `from` exits with nothing
  // queued, escalates to NodeDownError when the plan explains the exit
  // as a scheduled fail-stop, else rethrows cluster::PeerExited.
  cluster::Message recv(int from, int tag);

 private:
  // Handle one arrived attempt.  Returns the message if it is a good
  // (unflagged) attempt, nullopt if it was a ghost that was discarded.
  std::optional<cluster::Message> accept(cluster::Message m, int from,
                                         int tag);

  cluster::RankContext& ctx_;
  // Next outbound serial per destination rank.
  std::map<int, std::uint64_t> next_serial_;
  // Serial of the ghost sequence currently being drained per
  // (src, tag) stream, for fail-fast continuity checks.
  struct StreamState {
    std::uint64_t serial = std::numeric_limits<std::uint64_t>::max();
    int last_attempt = -1;    // -1: no ghost drained for this stream
    std::int64_t ghosts = 0;  // flagged attempts seen for `serial`
  };
  std::map<std::pair<int, int>, StreamState> streams_;
};

}  // namespace hyades::comm
