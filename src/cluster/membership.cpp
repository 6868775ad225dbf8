#include "cluster/membership.hpp"

#include <algorithm>
#include <vector>

#include "cluster/runtime.hpp"
#include "cluster/trace.hpp"

namespace hyades::cluster {

const NodeKill* Membership::kill_on_smp(int smp) const {
  // Kill matching is *host*-granular: a kill naming rank R takes down
  // the physical board R's tile is hosted on right now, together with
  // every other tile hosted there.  With identity placement this is
  // exactly the old structural (rank / procs_per_smp) matching.
  for (const NodeKill& k : plan_.node_kills) {
    if (k.epoch == ctx_.epoch() && ctx_.host_smp_of(k.rank) == smp) return &k;
  }
  return nullptr;
}

void Membership::maybe_fail_self() {
  const NodeKill* kill = kill_on_smp(ctx_.host_smp());
  if (kill != nullptr && ctx_.clock().now() >= kill->at_us) {
    throw RankFailStop{*kill};
  }
}

const NodeKill* Membership::scheduled_kill(int rank) const {
  return kill_on_smp(ctx_.host_smp_of(rank));
}

const NodeKill* Membership::killed_peer(int peer) const {
  const NodeKill* kill = kill_on_smp(ctx_.host_smp_of(peer));
  if (kill == nullptr) return nullptr;
  // Failure-detector assumption: the heartbeat deadline exceeds the
  // virtual-clock skew between partners within a step, so an exited peer
  // whose kill time lies within [now, now + deadline] may already have
  // reached it on its own (slightly ahead) clock.  Without the slack a
  // receiver resting just below the kill time could not explain the
  // exit and would surface it as a bare PeerExited.
  if (ctx_.clock().now() + plan_.heartbeat_deadline_us < kill->at_us) {
    return nullptr;
  }
  return kill;
}

NodeDownVerdict coalesce_expired_kills(const FaultPlan& plan, int epoch) {
  // Collect this epoch's kills and find the earliest detection deadline.
  std::vector<const NodeKill*> kills;
  for (const NodeKill& k : plan.node_kills) {
    if (k.epoch == epoch) kills.push_back(&k);
  }
  NodeDownVerdict verdict;
  verdict.epoch = epoch;
  if (kills.empty()) return verdict;

  Microseconds t = kills.front()->at_us + plan.heartbeat_deadline_us;
  for (const NodeKill* k : kills) {
    t = std::min(t, k->at_us + plan.heartbeat_deadline_us);
  }
  // Fixpoint: any kill that fired before the current detection time is
  // part of the same casualty event, and detecting it takes until its
  // own deadline -- expand until no new kill is absorbed.
  for (;;) {
    Microseconds expanded = t;
    for (const NodeKill* k : kills) {
      if (k->at_us <= t) {
        expanded = std::max(expanded, k->at_us + plan.heartbeat_deadline_us);
      }
    }
    if (expanded == t) break;
    t = expanded;
  }
  for (const NodeKill* k : kills) {
    if (k->at_us <= t) verdict.ranks.push_back(k->rank);
  }
  std::sort(verdict.ranks.begin(), verdict.ranks.end());
  verdict.ranks.erase(
      std::unique(verdict.ranks.begin(), verdict.ranks.end()),
      verdict.ranks.end());
  verdict.rank = verdict.ranks.front();
  verdict.detected_us = t;
  return verdict;
}

NodeDownVerdict Membership::coalesced_verdict() const {
  return coalesce_expired_kills(plan_, ctx_.epoch());
}

void Membership::escalate() {
  // Idle-time heartbeats the dead peer will never answer, each costed one
  // small-message send through the virtual clock.
  const Microseconds probe_cost = ctx_.net().small_message(16).os;
  for (int i = 0; i < plan_.dead_peer_probes; ++i) {
    ctx_.clock().advance(probe_cost);
  }

  // Plan-pure verdict: the canonical coalesced dead set of this epoch,
  // with the detection fixpoint as its time -- never this rank's
  // (scheduling-dependent) clock, and never just the one peer this rank
  // happened to be talking to.  Whichever rank escalates whichever peer
  // throws the identical verdict.
  const NodeDownVerdict verdict = coalesced_verdict();

  const Microseconds began = ctx_.clock().now();
  ctx_.clock().advance_to(verdict.detected_us);
  if (ctx_.tracer() != nullptr) {
    ctx_.tracer()->record("node_down", SpanCat::kNodeDown, began,
                          ctx_.clock().now());
  }
  throw NodeDownError(verdict);
}

}  // namespace hyades::cluster
