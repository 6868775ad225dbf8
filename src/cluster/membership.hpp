// Heartbeat/membership service: converts a peer's permanent silence
// into a collectively agreed NodeDown verdict.
//
// When a peer's rank exits with nothing queued for a blocked receiver
// (the bus's exit event, cluster::PeerExited), the receiver asks this
// service whether the plan explains the exit as a scheduled fail-stop.
// If it does, the receiver escalates: it pays for
// `FaultPlan::dead_peer_probes` idle-time heartbeat probes (costed
// through the virtual clock like any small message; nothing is sent,
// since no rank would ever receive them), advances to the plan-pure
// detection time and unwinds with NodeDownError carrying the verdict
// {dead set, epoch, detection time}.  Its exit wakes the ranks waiting
// on it, which escalate or unwind in turn, and the resilient driver
// recovers from the verdict Runtime::run surfaces.
//
// Verdicts are pure functions of the fault plan -- never of a racing
// observer's clock -- so every rank that escalates throws exactly the
// verdict every other survivor would have.
#pragma once

#include "cluster/fault.hpp"

namespace hyades::cluster {

class RankContext;

class Membership {
 public:
  Membership(RankContext& ctx, const FaultPlan& plan)
      : ctx_(ctx), plan_(plan) {}

  // Fail-stop self-check, called at every communication point.  If the
  // plan kills this rank in the current epoch and the virtual clock has
  // reached the kill time, the rank dies here (throws RankFailStop) --
  // it never sends or receives again.
  void maybe_fail_self();

  // The scheduled kill explaining `peer`'s exit at the current virtual
  // time, or nullptr when the plan does not explain it (the peer should
  // still be alive).  Kills are node-granular: a kill naming any rank of
  // the peer's SMP explains the peer.
  [[nodiscard]] const NodeKill* killed_peer(int peer) const;

  // The kill (if any) scheduled this epoch for the node hosting `rank`,
  // regardless of whether its time has come -- the resilient driver uses
  // this to classify collateral errors on a dying node.
  [[nodiscard]] const NodeKill* scheduled_kill(int rank) const;

  // Escalate a silent peer into the collective verdict: charge
  // `dead_peer_probes` heartbeat probes, advance to the plan-pure
  // detection time, record a kNodeDown span, and unwind this rank's epoch
  // by throwing NodeDownError.
  [[noreturn]] void escalate();

  // The canonical verdict for the current epoch: every kill whose
  // heartbeat deadline has expired at the detection fixpoint is
  // coalesced into one multi-rank dead set.  Starting from the earliest
  // kill's deadline, the detection time expands to the latest deadline
  // of the kills it covers until stable, so two boards dying inside one
  // heartbeat window yield ONE verdict naming both -- and the result is
  // a pure function of (plan, epoch), independent of which rank
  // escalates which peer first.
  [[nodiscard]] NodeDownVerdict coalesced_verdict() const;

 private:
  // The kill (if any) scheduled for the current epoch on the given SMP.
  // Node kills are SMP-granular -- a crashed node takes every rank it
  // hosts with it -- so both the self-check and peer diagnosis match on
  // the SMP, not the exact rank.
  [[nodiscard]] const NodeKill* kill_on_smp(int smp) const;

  RankContext& ctx_;
  const FaultPlan& plan_;
};

// The coalescing fixpoint as a pure function of (plan, epoch) -- what
// Membership::coalesced_verdict computes, callable without a live rank.
// The resilient driver uses it when an epoch ends with *every* rank
// silent (each board hosted a kill-named rank): no survivor existed to
// escalate, so the driver synthesizes the canonical verdict the
// survivors would have thrown.  Returns rank == -1 when the plan
// schedules no kills for the epoch.
[[nodiscard]] NodeDownVerdict coalesce_expired_kills(const FaultPlan& plan,
                                                     int epoch);

}  // namespace hyades::cluster
