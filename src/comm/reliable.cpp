#include "comm/reliable.hpp"

#include <cmath>
#include <limits>
#include <utility>

#include "cluster/membership.hpp"
#include "cluster/trace.hpp"

namespace hyades::comm {

namespace {
// A NAK is one small control message back to the sender.
constexpr int kNakPayloadBytes = 8;
}  // namespace

void Reliable::send(int to, int tag, std::vector<double> data,
                    Microseconds stamp) {
  const cluster::FaultPlan* plan = ctx_.faults();
  if (cluster::Membership* ms = ctx_.membership()) ms->maybe_fail_self();
  const bool remote = ctx_.host_smp_of(to) != ctx_.host_smp();

  // Dead inter-SMP link: the transfer survives on a route-around path
  // through the fat tree's remaining diversity, paying extra latency.
  // Timing-only -- the payload is untouched, so runs differ from the
  // healthy schedule purely in stamps (state stays bit-identical).
  Microseconds reroute_us = 0;
  if (plan != nullptr && remote && plan->has_link_kills() &&
      plan->link_dead(ctx_.host_smp(), ctx_.host_smp_of(to),
                      ctx_.clock().now())) {
    reroute_us = plan->reroute_penalty_us;
  }

  if (plan == nullptr || !plan->has_fates() || !remote) {
    if (reroute_us == 0) {
      // Fault-free / intra-SMP fast path: exactly the raw transport, no
      // extra clock, accounting, or metadata effects.
      ctx_.send_raw(to, tag, std::move(data), stamp);
      return;
    }
    cluster::Message m;
    m.tag = tag;
    m.data = std::move(data);
    m.stamp_us = stamp + reroute_us;
    m.reroute_us = reroute_us;
    ctx_.send_msg(to, std::move(m));
    return;
  }

  const std::uint64_t serial = next_serial_[to]++;
  const net::Interconnect& net = ctx_.net();
  const auto bytes =
      static_cast<std::int64_t>(data.size() * sizeof(double));
  const Microseconds nak_us = net.small_message(kNakPayloadBytes).half_rtt();
  const Microseconds resend_us = net.transfer_time(bytes);

  // Walk the attempt sequence; every fate is a pure function of
  // (seed, src, dst, serial, attempt), so this run of decisions is
  // reproducible independent of thread scheduling.
  const Microseconds base = stamp + reroute_us;
  Microseconds t = base;  // arrival time of the current attempt
  int attempt = 0;
  for (;; ++attempt) {
    if (attempt >= plan->max_attempts) {
      throw DeliveryFailure(ctx_.rank(), to, serial, attempt);
    }
    const cluster::FaultPlan::Fate fate =
        plan->fate(ctx_.rank(), to, serial, attempt);
    if (fate == cluster::FaultPlan::Fate::kOk) break;

    if (fate == cluster::FaultPlan::Fate::kCorrupt) {
      // The attempt arrives, CRC-flagged.  Enqueue it for real -- with
      // a garbled (all-NaN) payload -- so the receive path must
      // actually discard it; FIFO per (src, tag) puts it ahead of the
      // eventual good attempt.  If a bug ever let the ghost through,
      // NaNs would propagate into the state and trip the solver guard.
      cluster::Message ghost;
      ghost.tag = tag;
      ghost.data.assign(data.size(),
                        std::numeric_limits<double>::quiet_NaN());
      ghost.stamp_us = t;
      ghost.serial = serial;
      ghost.attempt = attempt;
      ghost.crc_error = true;
      ghost.recovery_us = t - base;
      ghost.reroute_us = reroute_us;
      ctx_.send_msg(to, std::move(ghost));
      // Receiver NAKs on arrival; the sender backs off and retransfers.
      t += nak_us + plan->backoff(attempt + 1) + resend_us;
    } else {
      // Dropped: nothing arrives.  The receiver's virtual-clock
      // watchdog fires timeout_us after the expected arrival, NAKs,
      // and the sender backs off and retransfers.
      t += plan->timeout_us + nak_us + plan->backoff(attempt + 1) +
           resend_us;
    }
  }

  cluster::Message good;
  good.tag = tag;
  good.data = std::move(data);
  good.stamp_us = t;
  good.serial = serial;
  good.attempt = attempt;
  good.recovery_us = t - base;
  good.reroute_us = reroute_us;
  ctx_.send_msg(to, std::move(good));
  ctx_.accounting().retransmits += attempt;
}

std::optional<cluster::Message> Reliable::accept(cluster::Message m, int from,
                                                 int tag) {
  StreamState& st = streams_[{from, tag}];
  if (m.crc_error) {
    // A flagged attempt: software checked the 1-bit CRC status and
    // discards the payload, NAKing the sender.  Validate the protocol
    // bookkeeping first -- a broken stream must fail fast, not feed
    // garbage forward.
    if (st.last_attempt >= 0 && st.serial != m.serial) {
      throw std::logic_error(
          "reliable recv: rank " + std::to_string(ctx_.rank()) +
          " interleaved serials on stream from rank " + std::to_string(from) +
          " tag " + std::to_string(tag) + " (draining serial " +
          std::to_string(st.serial) + ", got ghost serial " +
          std::to_string(m.serial) + ")");
    }
    if (st.last_attempt >= 0 && m.attempt <= st.last_attempt) {
      throw std::logic_error(
          "reliable recv: rank " + std::to_string(ctx_.rank()) +
          " out-of-order attempt " + std::to_string(m.attempt) +
          " (serial " + std::to_string(m.serial) + " from rank " +
          std::to_string(from) + ")");
    }
    st.serial = m.serial;
    st.last_attempt = m.attempt;
    ++st.ghosts;
    ++ctx_.accounting().crc_rejects;
    return std::nullopt;
  }

  // A good attempt.  If ghosts of this transfer were drained, the good
  // attempt must belong to the same serial and come later.
  if (st.last_attempt >= 0) {
    if (st.serial != m.serial) {
      throw std::logic_error(
          "reliable recv: rank " + std::to_string(ctx_.rank()) +
          " good message serial " + std::to_string(m.serial) +
          " while draining serial " + std::to_string(st.serial) +
          " from rank " + std::to_string(from));
    }
    if (m.attempt <= st.last_attempt) {
      throw std::logic_error(
          "reliable recv: rank " + std::to_string(ctx_.rank()) +
          " good attempt " + std::to_string(m.attempt) +
          " not after last flagged attempt " +
          std::to_string(st.last_attempt) + " (serial " +
          std::to_string(m.serial) + " from rank " + std::to_string(from) +
          ")");
    }
  }
  if (m.reroute_us > 0) {
    // The transfer rode a route-around path past a dead link; attribute
    // the detour separately from fault recovery.
    ctx_.charge_reroute(m.reroute_us);
  }
  if (m.attempt > 0) {
    // Attempts not seen as ghosts were dropped in flight and recovered
    // by the timeout watchdog.
    const auto drops =
        static_cast<std::int64_t>(m.attempt) - st.ghosts;
    if (drops > 0) ctx_.accounting().drops_detected += drops;
    ctx_.charge_retrans(m.recovery_us);
    if (ctx_.tracer() != nullptr) {
      cluster::SpanCounters ctr;
      ctr.bytes = static_cast<std::int64_t>(m.data.size() * sizeof(double));
      // The recovery episode occupies [fault-free arrival, actual
      // arrival] in virtual time.
      ctx_.tracer()->record("retransmit", cluster::SpanCat::kFault,
                            m.clean_stamp(), m.stamp_us, ctr);
    }
  }
  st = StreamState{};  // transfer complete; reset continuity tracking
  return m;
}

cluster::Message Reliable::recv(int from, int tag) {
  // With node kills scheduled, a blocking receive is a communication
  // point: this rank may be due to die here.
  cluster::Membership* ms = ctx_.membership();
  if (ms != nullptr) ms->maybe_fail_self();
  for (;;) {
    cluster::Message m;
    try {
      m = ctx_.recv_raw(from, tag);
    } catch (const cluster::PeerExited&) {
      // The peer's rank body ended with nothing queued for us.  If the
      // plan explains that as a scheduled fail-stop, escalate to the
      // collective verdict (escalate throws NodeDownError); otherwise
      // the message can never come and the typed exit surfaces as is.
      if (ms != nullptr && ms->killed_peer(from) != nullptr) {
        ms->escalate();
      }
      throw;
    }
    std::optional<cluster::Message> good = accept(std::move(m), from, tag);
    if (good) return std::move(*good);
  }
}

}  // namespace hyades::comm
