#include "comm/comm.hpp"

#include "cluster/trace.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <tuple>
#include <utility>

namespace hyades::comm {

namespace {
constexpr int kTagBarrierBase = 700;   // + round
constexpr int kTagBarrierLocal = 960;  // slave -> master, master -> slave
constexpr int kTagGsumBase = 1000;     // + round
constexpr int kTagGsumLocal = 1900;    // slave -> master, master -> slave
constexpr int kTagXchgBase = 2000;     // + direction

// Every global sum (and max), barrier and exchange uses the one tag set
// above: the bus delivers each (source, tag) stream in order, so a fast
// rank's messages for the next collective queue behind the current
// one's, and split-phase exchanges finish in start order.  Fault fates
// hash (source, destination, per-destination serial, attempt), never
// the tag.
}  // namespace

Comm::Comm(cluster::RankContext& ctx, int rank_base, int nranks)
    : ctx_(ctx),
      rank_base_(rank_base),
      nranks_(nranks < 0 ? ctx.nranks() : nranks) {
  const int ppp = ctx_.procs_per_smp();
  if (rank_base_ % ppp != 0 || nranks_ % ppp != 0) {
    throw std::invalid_argument("Comm: group must be SMP-aligned");
  }
  if (ctx_.rank() < rank_base_ || ctx_.rank() >= rank_base_ + nranks_) {
    throw std::invalid_argument("Comm: rank outside group");
  }
  if (group_smps() < 1) {
    throw std::invalid_argument("Comm: empty group");
  }
}

// Largest power of two <= n: the butterfly "core" size.  SMPs beyond it
// fold their contribution into a core partner before the butterfly and
// receive the result afterwards, which generalizes the reductions to
// any SMP count while leaving the power-of-two schedule untouched.
int Comm::butterfly_core(int n) {
  int m = 1;
  while (m * 2 <= n) m *= 2;
  return m;
}

bool Comm::remote(int group_rank) const {
  // Cost classification follows the *host* placement: after a live
  // migration, traffic to a tile adopted onto my own board is shared
  // memory, and a once-local partner hosted elsewhere rides the fabric.
  // Identity placement reduces to the structural home, rank / ppp.
  return ctx_.host_smp_of(abs_rank(group_rank)) != ctx_.host_smp();
}

// ---- global reductions ---------------------------------------------------
//
// Structure (Section 4.2): SMP-local combine through shared memory, a
// recursive-doubling butterfly over the group's SMP masters, then local
// distribution -- the classic synchronous algorithm, run in order, which
// keeps timing bit-identical to the paper calibration.

void Comm::combine_into(std::vector<double>& a, const std::vector<double>& b,
                        ReduceOp op) {
  if (a.size() != b.size()) {
    throw std::logic_error("global reduce: size mismatch");
  }
  if (op == ReduceOp::kSum) {
    for (std::size_t i = 0; i < a.size(); ++i) a[i] += b[i];
  } else {
    for (std::size_t i = 0; i < a.size(); ++i) a[i] = std::max(a[i], b[i]);
  }
}

void Comm::reduce(std::vector<double>& v, ReduceOp op, ReduceTags tags) {
  const int ppp = ctx_.procs_per_smp();
  const int gsmp = group_rank() / ppp;
  const int gsmps = group_smps();
  const int master_abs = rank_base_ + gsmp * ppp;
  // Adopt an arrival's stamp.  The forward jump onto a later stamp is
  // wait caused by the sender's lateness.
  const auto arrive = [&](const cluster::Message& m) {
    ctx_.charge_imbalance(std::max(0.0, m.clean_stamp() - ctx_.clock().now()));
    ctx_.clock().advance_to(m.stamp_us);
  };

  // SMP-local combine through shared memory (modeled via the message bus
  // for transport; clocks synchronize through the SMP barrier).
  ctx_.smp_sync();
  if (!ctx_.is_master()) {
    rel_.send(master_abs, tags.local, v, ctx_.clock().now());
    cluster::Message m = rel_.recv(master_abs, tags.local);
    v = std::move(m.data);
    arrive(m);
  } else {
    for (int lr = 1; lr < ppp; ++lr) {
      cluster::Message m = rel_.recv(master_abs + lr, tags.local);
      combine_into(v, m.data, op);
    }
    // Recursive-doubling butterfly across the group's SMPs (Section 4.2,
    // Figure 8): log2(core) rounds, partner differs in bit `round`.  A
    // non-power-of-two group first folds the SMPs beyond the largest
    // power-of-two core onto core partners, runs the unchanged butterfly
    // over the core, then ships the result back out to the folded SMPs
    // (two extra rounds instead of a restructured schedule, so the
    // power-of-two path stays bit-identical to the paper calibration).
    const int core = butterfly_core(gsmps);
    int rounds = 0;
    for (int n = core; n > 1; n >>= 1) ++rounds;
    if (gsmp >= core) {
      // Folded SMP: hand the contribution to the core partner and wait
      // for the fully reduced result.
      const int partner_abs = rank_base_ + (gsmp - core) * ppp;
      rel_.send(partner_abs, tags.round + rounds, v, ctx_.clock().now());
      cluster::Message m = rel_.recv(partner_abs, tags.round + rounds + 1);
      v = std::move(m.data);
      arrive(m);
      ctx_.clock().advance(ctx_.net().gsum_round_time(rounds));
    } else {
      if (gsmp + core < gsmps) {
        // Absorb the folded partner's contribution before the first
        // butterfly send.
        cluster::Message m =
            rel_.recv(rank_base_ + (gsmp + core) * ppp, tags.round + rounds);
        combine_into(v, m.data, op);
        arrive(m);
        ctx_.clock().advance(ctx_.net().gsum_round_time(rounds));
      }
      for (int round = 0; round < rounds; ++round) {
        const int partner_abs = rank_base_ + (gsmp ^ (1 << round)) * ppp;
        rel_.send(partner_abs, tags.round + round, v, ctx_.clock().now());
        cluster::Message m = rel_.recv(partner_abs, tags.round + round);
        combine_into(v, m.data, op);
        // Round timing: both partners proceed from the later of their
        // clocks plus the modeled symmetric round cost.
        arrive(m);
        ctx_.clock().advance(ctx_.net().gsum_round_time(round));
      }
      if (gsmp + core < gsmps) {
        // Fold-back: return the finished result to the folded partner.
        rel_.send(rank_base_ + (gsmp + core) * ppp, tags.round + rounds + 1, v,
                  ctx_.clock().now());
      }
    }
    // Local distribution.
    for (int lr = 1; lr < ppp; ++lr) {
      rel_.send(master_abs + lr, tags.local, v, ctx_.clock().now());
    }
  }
  // Final sync pulls every local clock to the master's and applies the
  // shared-memory distribution cost.
  ctx_.smp_sync();
}

void Comm::collective(std::vector<double>& v, ReduceOp op, ReduceTags tags,
                      std::uint64_t& done, const char* span,
                      cluster::SpanCat cat) {
  const Microseconds t0 = ctx_.clock().now();
  reduce(v, op, tags);
  ++done;
  ctx_.charge_comm(t0);
  if (ctx_.tracer()) {
    cluster::SpanCounters ctr;
    ctr.bytes = static_cast<std::int64_t>(v.size() * sizeof(double));
    ctx_.tracer()->record(span, cat, t0, ctx_.clock().now(), ctr);
  }
}

double Comm::global_sum(double x) {
  std::vector<double> v{x};
  global_sum(v);
  return v[0];
}

void Comm::global_sum(std::vector<double>& xs) {
  collective(xs, ReduceOp::kSum, {kTagGsumBase, kTagGsumLocal}, gsum_seq_,
             "gsum", cluster::SpanCat::kGsum);
}

double Comm::global_max(double x) {
  std::vector<double> v{x};
  collective(v, ReduceOp::kMax, {kTagGsumBase, kTagGsumLocal}, gsum_seq_,
             "gmax", cluster::SpanCat::kGsum);
  return v[0];
}

void Comm::barrier() {
  // A payload-free pass over the global-sum network: same SMP-local
  // combine / butterfly / distribution structure and the same per-round
  // costs, but its own tag space and counter, so barriers do not distort
  // gsums_done() statistics.
  std::vector<double> empty;
  collective(empty, ReduceOp::kSum, {kTagBarrierBase, kTagBarrierLocal},
             barrier_seq_, "barrier", cluster::SpanCat::kBarrier);
}

// ---- halo exchange -------------------------------------------------------

void Comm::validate_neighbors(
    const std::array<int, kDirections>& neighbors) const {
  for (int d = 0; d < kDirections; ++d) {
    const int nb = neighbors[static_cast<std::size_t>(d)];
    if (nb >= nranks_) {
      throw std::out_of_range("Comm::exchange: neighbor outside group");
    }
    // Exactly -1 means "no neighbor"; any other negative is almost
    // certainly a caller index bug and must not be silently ignored.
    if (nb < -1) {
      throw std::out_of_range(
          "Comm::exchange: negative neighbor (use -1 for none)");
    }
  }
}

// Phase bookkeeping: who sends/receives what in direction d, and the
// SMP-aggregated byte counts (the communication master batches all local
// tiles' strips into one VI transfer per phase -- mix-mode, Section 4.1).
// The aggregation synchronizes the SMP's ranks, so this has clock effects
// and must run at the same point for every rank of an SMP.
ExchangeHandle::Phase Comm::plan_phase(
    int d, const std::array<int, kDirections>& nb, const Buffers& buf) {
  const int opp = opposite(d);
  ExchangeHandle::Phase p;
  p.nb_out = nb[static_cast<std::size_t>(d)];
  p.nb_in = nb[static_cast<std::size_t>(opp)];
  p.out_remote = p.nb_out >= 0 && remote(p.nb_out);
  p.in_remote = p.nb_in >= 0 && remote(p.nb_in);
  const auto bytes_of = [](const std::vector<double>& v) {
    return static_cast<std::int64_t>(v.size() * sizeof(double));
  };
  p.out_b = bytes_of(buf.out[static_cast<std::size_t>(d)]);
  p.in_b = bytes_of(buf.in[static_cast<std::size_t>(opp)]);
  std::tie(p.smp_out, p.smp_in) = ctx_.smp_sync(p.out_remote ? p.out_b : 0,
                                                p.in_remote ? p.in_b : 0);
  if (ctx_.procs_per_smp() > 1) {
    // The modeled aggregation costs a second crossing, which the host
    // need not make: after one smp_sync every clock in the SMP equals
    // max + kSmpBarrierUs, so a second sync's advance_to is a no-op and
    // only its advance remains.  A separate add keeps the rounding of
    // the two-crossing protocol.
    ctx_.clock().advance(cluster::kSmpBarrierUs);
  }
  return p;
}

// One phase of the classic synchronous algorithm, in two halves.  The
// outbound half ships the SMP's batched transfer (or a shared-memory
// copy) and returns its completion time; the inbound half receives the
// strip from the opposite neighbor, whose transfer serializes behind the
// send (one transfer saturates the PCI bus, Section 4.1), and advances
// the clock.
Microseconds Comm::phase_send(const ExchangeHandle::Phase& p, int d,
                              const Buffers& buf) {
  Microseconds t = ctx_.clock().now();
  if (p.smp_out > 0) t += ctx_.net().exchange_transfer_time(p.smp_out);
  if (p.nb_out >= 0 && !p.out_remote) {
    t += static_cast<double>(p.out_b) / kShmCopyMBs;
  }
  if (p.nb_out >= 0) {
    rel_.send(abs_rank(p.nb_out), kTagXchgBase + d,
              buf.out[static_cast<std::size_t>(d)], t);
  }
  return t;
}

void Comm::phase_recv(const ExchangeHandle::Phase& p, int d, Microseconds t,
                      Buffers& buf) {
  if (p.nb_in >= 0) {
    cluster::Message m = rel_.recv(abs_rank(p.nb_in), kTagXchgBase + d);
    auto& dst = buf.in[static_cast<std::size_t>(opposite(d))];
    if (m.data.size() != dst.size()) {
      throw std::logic_error("Comm::exchange: halo strip size mismatch");
    }
    dst = std::move(m.data);
    ctx_.charge_imbalance(std::max(0.0, m.clean_stamp() - t));
    t = std::max(t, m.stamp_us);
    if (p.in_remote) {
      t += ctx_.net().exchange_transfer_time(p.smp_in);
    } else {
      t += static_cast<double>(p.in_b) / kShmCopyMBs;
    }
  }
  ctx_.clock().advance_to(t);
}

void Comm::exchange(const std::array<int, kDirections>& neighbors,
                    Buffers& buf) {
  validate_neighbors(neighbors);
  // An unfinished split-phase exchange's strips head the streams.
  if (xchg_started_ != xchg_seq_) {
    throw std::logic_error(
        "Comm::exchange: a split-phase exchange is still unfinished");
  }
  ++xchg_started_;
  const Microseconds t0 = ctx_.clock().now();
  std::int64_t bytes = 0;
  for (int d = 0; d < kDirections; ++d) {
    const ExchangeHandle::Phase p = plan_phase(d, neighbors, buf);
    phase_recv(p, d, phase_send(p, d, buf), buf);
    if (p.nb_out >= 0) bytes += p.out_b;
    if (p.nb_in >= 0) bytes += p.in_b;
  }
  ++xchg_seq_;
  ctx_.charge_comm(t0);
  if (ctx_.tracer()) {
    cluster::SpanCounters ctr;
    ctr.bytes = bytes;
    ctx_.tracer()->record("exchange", cluster::SpanCat::kExchange, t0,
                          ctx_.clock().now(), ctr);
  }
}

ExchangeHandle Comm::exchange_start(
    const std::array<int, kDirections>& neighbors, Buffers& buf) {
  validate_neighbors(neighbors);
  ExchangeHandle h;
  h.seq_ = xchg_started_++;
  h.buf_ = &buf;
  const Microseconds t_begin = ctx_.clock().now();

  // Post every phase's send now.  The CPU pays the injection overhead
  // per bulk transfer and the shared-memory copy cost for intra-SMP
  // strips; the bulk bytes occupy the SMP's NIU timeline, which
  // successive transfers serialize on.
  const net::Interconnect& net = ctx_.net();
  std::int64_t out_bytes = 0;
  for (int d = 0; d < kDirections; ++d) {
    const ExchangeHandle::Phase p = h.phase_[static_cast<std::size_t>(d)] =
        plan_phase(d, neighbors, buf);
    Microseconds stamp = ctx_.clock().now();
    if (p.smp_out > 0) {
      ctx_.clock().advance(net.transfer_overhead());
      niu_busy_until_ = std::max(niu_busy_until_, ctx_.clock().now());
      niu_busy_until_ += net.exchange_transfer_time(p.smp_out);
      if (p.out_remote) stamp = niu_busy_until_;
    }
    if (p.nb_out >= 0) {
      if (!p.out_remote) {
        ctx_.clock().advance(static_cast<double>(p.out_b) / kShmCopyMBs);
        stamp = ctx_.clock().now();
      }
      rel_.send(abs_rank(p.nb_out), kTagXchgBase + d,
                buf.out[static_cast<std::size_t>(d)], stamp);
      out_bytes += p.out_b;
    }
  }
  h.t_start_end = ctx_.clock().now();
  ctx_.charge_comm(t_begin);
  if (ctx_.tracer()) {
    cluster::SpanCounters ctr;
    ctr.bytes = out_bytes;
    ctx_.tracer()->record("exchange_start", cluster::SpanCat::kExchange,
                          t_begin, h.t_start_end, ctr);
  }
  return h;
}

void Comm::exchange_finish(ExchangeHandle& h) {
  if (!h.valid()) {
    throw std::logic_error("exchange_finish: handle already finished");
  }
  // Only the oldest unfinished exchange's strips head the streams; a
  // copy of a finished handle, or a handle behind a dropped one, fails.
  if (h.seq_ != xchg_seq_) {
    throw std::logic_error(
        "exchange_finish: not the oldest unfinished exchange");
  }
  Buffers& buf = *h.buf_;

  // Drain the inbound strips under the overlap rule
  // t_finish = max(t_local, t_arrival).  Inbound bulk transfers serialize
  // on the NIU timeline (and may have completed during the caller's
  // computation); intra-SMP strips cost a CPU copy on unpack.
  const net::Interconnect& net = ctx_.net();
  const Microseconds t_entry = ctx_.clock().now();
  Microseconds ready = h.t_start_end;
  std::int64_t in_bytes = 0;
  for (int d = 0; d < kDirections; ++d) {
    const ExchangeHandle::Phase& p = h.phase_[static_cast<std::size_t>(d)];
    if (p.nb_in < 0) continue;
    cluster::Message m = rel_.recv(abs_rank(p.nb_in), kTagXchgBase + d);
    auto& dst = buf.in[static_cast<std::size_t>(opposite(d))];
    if (m.data.size() != dst.size()) {
      throw std::logic_error("Comm::exchange: halo strip size mismatch");
    }
    dst = std::move(m.data);
    in_bytes += p.in_b;
    ctx_.charge_imbalance(std::max(0.0, m.clean_stamp() - ctx_.clock().now()));
    if (p.in_remote) {
      niu_busy_until_ = std::max(niu_busy_until_, m.stamp_us);
      niu_busy_until_ += net.exchange_transfer_time(p.smp_in);
      ready = std::max(ready, niu_busy_until_);
      ctx_.clock().advance_to(niu_busy_until_);
    } else {
      ready = std::max(ready, m.stamp_us);
      ctx_.clock().advance_to(m.stamp_us);
      ctx_.clock().advance(static_cast<double>(p.in_b) / kShmCopyMBs);
    }
  }
  // Communication that was in flight while the caller computed is not
  // double-charged; credit it to the overlap bucket.
  const Microseconds hidden =
      std::max(0.0, std::min(t_entry, ready) - h.t_start_end);
  ctx_.charge_overlap(hidden);
  ++xchg_seq_;
  ctx_.charge_comm(t_entry);
  if (ctx_.tracer()) {
    cluster::SpanCounters ctr;
    ctr.bytes = in_bytes;
    ctr.overlap_us = hidden;
    ctx_.tracer()->record("exchange_wait", cluster::SpanCat::kExchange,
                          t_entry, ctx_.clock().now(), ctr);
  }
  h.buf_ = nullptr;
}

}  // namespace hyades::comm
