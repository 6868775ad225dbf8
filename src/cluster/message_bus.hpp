// Functional transport between ranks: real data moves through in-memory
// mailboxes; virtual-time semantics ride on the `stamp_us` field that the
// comm library computes from the interconnect model.
//
// Matching is by (source, tag) with FIFO order per pair, mirroring
// Arctic's FIFO guarantee for messages on the same path.
//
// A receive ends on one of two events: a matching message is queued, or
// its sender has exited.  Queued mail always wins, so what a rank
// receives, and how far it gets before a peer's exit ends its wait,
// depends only on what its peers sent, never on when the host ran them.
// A peer's exit is also the only way a failed epoch reaches a blocked
// rank.  Each Runtime::run builds its own bus and drops it at the join,
// so mail an earlier run left unreceived never reaches a later one.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "support/sync.hpp"
#include "support/thread_annotations.hpp"
#include "support/units.hpp"

namespace hyades::cluster {

// Thrown by a blocking receive whose sender has exited (its rank body
// ended: returned, fail-stopped or threw) with nothing left queued for
// the receiver: the message can never come, so the wait ends at once.
// Collateral by nature -- the sender's own exit reason is the root
// cause (Runtime::run surfaces it first).
class PeerExited : public std::runtime_error {
 public:
  PeerExited(int on_rank, int from_peer, int on_tag)
      : std::runtime_error("MessageBus::recv: rank " + std::to_string(on_rank) +
                           " waiting on rank " + std::to_string(from_peer) +
                           " tag " + std::to_string(on_tag) +
                           ", which exited with nothing queued"),
        rank(on_rank), peer(from_peer), tag(on_tag) {}
  int rank, peer, tag;
};

// One wait of a blocked rank: a receive from `peer` on `tag`, or, with
// peer -1, a crossing of SMP `smp`'s sync.
struct WaitEdge {
  int rank = -1;
  int peer = -1;  // the sender it waits on; -1 at a barrier
  int tag = -1;   // the receive's tag; -1 at a barrier
  int smp = -1;   // the SMP whose sync it waits at; -1 on a receive
};

// Thrown by every blocked rank of a run whose ranks are fibers on one
// thread (Runtime::run on one CPU) once none of them can go on: every
// live rank waits, and nothing was sent, exited or arrived while each
// of them checked its wait in turn.  Carries the wait of every rank
// blocked at that moment.  Not collateral: it is the run's root cause.
class Deadlock : public std::runtime_error {
 public:
  Deadlock(int in_epoch, std::vector<WaitEdge> wait_edges);
  int epoch;
  std::vector<WaitEdge> edges;
};

struct Message {
  int src = -1;
  int tag = 0;
  std::vector<double> data;
  Microseconds stamp_us = 0;  // sender-computed arrival time

  // Reliability protocol metadata (comm/reliable.hpp).  A raw send
  // leaves the defaults: serial 0, attempt 0, no CRC error, no recovery
  // cost -- so the fault-free path is unchanged.
  std::uint64_t serial = 0;     // per (src -> dst) transfer sequence number
  int attempt = 0;              // 0 = first transmission
  bool crc_error = false;       // the endpoint's 1-bit CRC status
  Microseconds recovery_us = 0;  // stamp delay caused by retransmits
  Microseconds reroute_us = 0;   // stamp delay from a dead-link route-around

  // Arrival time the transfer would have had without faults; callers
  // attributing wait time use this so recovery and reroute cost land in
  // their own buckets, not in imbalance.
  [[nodiscard]] Microseconds clean_stamp() const {
    return stamp_us - recovery_us - reroute_us;
  }
};

namespace detail {
struct FiberRun;
}

class MessageBus {
 public:
  // `fibers` is the wait table of the fiber run whose ranks use this bus
  // (cluster/fiber_waits.hpp), or null when the ranks are threads.
  explicit MessageBus(int nranks, detail::FiberRun* fibers = nullptr);

  void send(int to, Message m);

  // Block until a message from (from, tag) is available for `me`.
  // Mail already queued is delivered even after the sender exited; once
  // it is drained, a receive from an exited sender throws PeerExited.
  // On a rank thread, the `timeout_ms` of real time (std::runtime_error)
  // is only a backstop for a wait cycle among live ranks; a rank fiber
  // parks instead and throws Deadlock on such a cycle, at once.
  Message recv(int me, int from, int tag, int timeout_ms = 30000);

  // ---- rank exit events -------------------------------------------------
  // Runtime::run marks a rank exited when its body ends, waking every
  // receiver blocked on it.
  void mark_exited(int rank);

 private:
  struct Mailbox {
    support::Mutex mu;
    support::CondVar cv;
    std::map<std::pair<int, int>, std::deque<Message>> queues GUARDED_BY(mu);
  };
  detail::FiberRun* const fibers_;
  std::vector<std::unique_ptr<Mailbox>> boxes_;
  std::vector<std::atomic<bool>> exited_;
};

}  // namespace hyades::cluster
