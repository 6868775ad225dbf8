// The application-specific communication library -- the paper's central
// software contribution (Section 4): two primitives, `exchange` and
// `global sum`, tuned to the GCM's needs and the hardware's strengths.
//
//   exchange (Section 4.1)
//     Brings tile halo regions into a consistent state.  Four phases
//     (send-East, send-West, send-North, send-South); in each phase a
//     rank ships one edge strip to a neighbor and receives the matching
//     strip from the opposite neighbor.  Remote traffic uses VI-mode bulk
//     transfers; transfers from the ranks of one SMP are aggregated
//     through the SMP's single NIU by the communication master (the
//     mix-mode protocol), and an SMP's outbound/inbound transfers in a
//     phase are serialized because one transfer saturates the PCI bus.
//     Intra-SMP and self (periodic wrap onto the same rank) traffic moves
//     by shared-memory copy.
//
//   global sum (Section 4.2)
//     Minimizes latency at the expense of message count: an SMP-local
//     shared-memory combine, then a recursive-doubling butterfly over the
//     SMPs (N log2 N messages in log2 N rounds), then local distribution.
//     Every rank obtains a bitwise-identical result (pairwise exchange +
//     commutative combine), which the CG solver's convergence test
//     requires.
//
//   split-phase exchange
//     The exchange also comes in start/finish form so the stepper can
//     overlap halo traffic with computation (ModelConfig::overlap_comm).
//     exchange_start posts the four phases' sends up front (the CPU pays
//     only the injection overhead per bulk transfer; the bytes ride the
//     SMP's NIU, whose occupancy is tracked on a separate timeline);
//     exchange_finish drains the receives under the overlap rule
//         t_finish = max(t_local, t_arrival)
//     so communication time already covered by computation is credited to
//     the Accounting's overlap_us bucket instead of being charged twice.
//     The blocking exchange runs the four phases in order, each one's
//     send then receive: the classic synchronous algorithm, so blocking
//     timing is bit-identical to the paper-calibrated library.  Global
//     sums are blocking only.
//
//     Collective discipline: all ranks of the group must run the same
//     collectives in the same order, and split-phase exchanges finish in
//     the order they started.  Every exchange, blocking or split-phase,
//     sends direction d on the one fixed tag of that direction, as every
//     global sum uses one tag set: the bus delivers each (source, tag)
//     stream in order, so a fast rank's strips for the next exchange
//     queue behind the current one's.
//
// A Comm may span a contiguous sub-range of ranks so that coupled runs
// can give each isomorph half the machine (Section 5.1).
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "cluster/runtime.hpp"
#include "cluster/trace.hpp"
#include "comm/reliable.hpp"

namespace hyades::comm {

enum Direction : int { kEast = 0, kWest = 1, kNorth = 2, kSouth = 3 };
inline constexpr int kDirections = 4;
[[nodiscard]] constexpr int opposite(int d) { return d ^ 1; }

class Comm;

// Halo-strip staging area for one exchange.  out[d]: data for the
// neighbor in direction d; in[d]: storage for the strip arriving *from*
// direction d.  in[d] must be pre-sized to the expected length; out/in
// may be empty when there is no neighbor.
struct Buffers {
  std::array<std::vector<double>, kDirections> out;
  std::array<std::vector<double>, kDirections> in;
};

// In-flight halo exchange.  Obtained from Comm::exchange_start; must be
// completed with Comm::exchange_finish once, in start order (a moved-from
// handle names the same exchange).  The Buffers passed to start must
// outlive the handle.  A handle dropped unfinished stops the Comm's next
// blocking exchange and every later finish.
class ExchangeHandle {
 public:
  // From exchange_start until exchange_finish(*this).
  [[nodiscard]] bool valid() const { return buf_ != nullptr; }

 private:
  friend class Comm;

  struct Phase {
    int nb_out = -1, nb_in = -1;
    bool out_remote = false, in_remote = false;
    std::int64_t out_b = 0, in_b = 0;    // this rank's strip bytes
    std::int64_t smp_out = 0, smp_in = 0;  // SMP-aggregated bytes
  };

  Buffers* buf_ = nullptr;
  std::uint64_t seq_ = 0;  // start order within the Comm
  std::array<Phase, kDirections> phase_;
  Microseconds t_start_end = 0;  // clock at exchange_start exit
};

class Comm {
 public:
  // Communicator over ranks [rank_base, rank_base + nranks); nranks = -1
  // means the whole machine.  The range must be SMP-aligned.
  explicit Comm(cluster::RankContext& ctx, int rank_base = 0, int nranks = -1);

  [[nodiscard]] int group_rank() const { return ctx_.rank() - rank_base_; }
  [[nodiscard]] int group_size() const { return nranks_; }
  [[nodiscard]] int group_smps() const { return nranks_ / ctx_.procs_per_smp(); }
  [[nodiscard]] cluster::RankContext& ctx() { return ctx_; }

  // ---- global sum ----------------------------------------------------
  // Returns the sum of `x` across the group; bitwise identical everywhere.
  double global_sum(double x);
  // Element-wise sums of a small vector (one butterfly per the paper's
  // cost model: the payload still fits a single small message per round,
  // so it is costed as one global sum).
  void global_sum(std::vector<double>& xs);
  // Global max (same communication structure and cost as a sum).
  double global_max(double x);
  // Pure synchronization: a payload-free pass over the same butterfly
  // network, with the same per-round costs as a global sum but its own
  // tag space and counter -- barriers do not pollute gsums_done()
  // statistics.
  void barrier();

  // ---- halo exchange ---------------------------------------------------
  using Buffers = hyades::comm::Buffers;
  // neighbors[d]: group rank of the neighbor in direction d, or -1.
  // Collective over the group (and over each SMP's ranks in lockstep).
  void exchange(const std::array<int, kDirections>& neighbors, Buffers& buf);

  // ---- split-phase halo exchange ---------------------------------------
  // Post all four phases' sends and return without waiting for the
  // inbound strips.  buf.out is consumed immediately (safe to reuse);
  // buf.in is filled by exchange_finish.  Several exchanges may be in
  // flight; they finish in the order they started, each exactly once.
  ExchangeHandle exchange_start(const std::array<int, kDirections>& neighbors,
                                Buffers& buf);
  // Complete the exchange: unpack inbound strips under the overlap rule
  // t_finish = max(t_local, t_arrival); hidden communication is credited
  // to Accounting::overlap_us.  Throws std::logic_error unless `h` is
  // the oldest unfinished exchange; the blocking exchange throws while
  // any split-phase exchange is unfinished.
  void exchange_finish(ExchangeHandle& h);

  // Number of exchange/global-sum/barrier calls completed (Figure-11
  // statistics).
  [[nodiscard]] std::uint64_t exchanges_done() const { return xchg_seq_; }
  [[nodiscard]] std::uint64_t gsums_done() const { return gsum_seq_; }
  [[nodiscard]] std::uint64_t barriers_done() const { return barrier_seq_; }

 private:
  [[nodiscard]] int abs_rank(int group_rank) const {
    return rank_base_ + group_rank;
  }
  [[nodiscard]] bool remote(int group_rank) const;

  // Shared helpers of the blocking and split-phase exchanges.
  void validate_neighbors(const std::array<int, kDirections>& neighbors) const;
  ExchangeHandle::Phase plan_phase(int d,
                                   const std::array<int, kDirections>& nb,
                                   const Buffers& buf);
  Microseconds phase_send(const ExchangeHandle::Phase& p, int d,
                          const Buffers& buf);
  void phase_recv(const ExchangeHandle::Phase& p, int d, Microseconds t,
                  Buffers& buf);

  // Largest power of two <= n: the butterfly "core" over which the
  // recursive-doubling rounds run; SMPs beyond it fold in/out.
  static int butterfly_core(int n);
  enum class ReduceOp { kSum, kMax };
  // The reduction network shared by the global sums and the barrier,
  // which differ only in their tag spaces: `round` + butterfly round
  // (the fold and fold-back use the two tags past the last round), and
  // `local` for the SMP-local combine and distribution.
  struct ReduceTags {
    int round;
    int local;
  };
  // The synchronous schedule: SMP-local combine into the master's `v`,
  // the butterfly over the SMP masters, then local distribution; every
  // rank ends with the reduced `v`.
  void reduce(std::vector<double>& v, ReduceOp op, ReduceTags tags);
  // One blocking collective (global sum, max or barrier): the reduction
  // plus its counter, comm charge and trace span.
  void collective(std::vector<double>& v, ReduceOp op, ReduceTags tags,
                  std::uint64_t& done, const char* span,
                  cluster::SpanCat cat);
  static void combine_into(std::vector<double>& a,
                           const std::vector<double>& b, ReduceOp op);

  cluster::RankContext& ctx_;
  // All bulk transport goes through the end-to-end reliability layer;
  // with no FaultPlan it degenerates to the raw bus operations.
  Reliable rel_{ctx_};
  int rank_base_;
  int nranks_;
  // Exchanges finish in start order, so those in flight are exactly
  // the starts [xchg_seq_, xchg_started_).
  std::uint64_t xchg_seq_ = 0;      // completed exchanges
  std::uint64_t xchg_started_ = 0;  // started exchanges
  std::uint64_t gsum_seq_ = 0;
  std::uint64_t barrier_seq_ = 0;
  // SMP NIU occupancy frontier for pipelined transfers: bulk bytes ride
  // the NIU while the CPU computes; successive transfers serialize on it
  // (one transfer saturates the PCI bus, Section 4.1).
  Microseconds niu_busy_until_ = 0;

  // Shared-memory copy bandwidth for intra-SMP halo traffic.
  static constexpr double kShmCopyMBs = 400.0;
};

}  // namespace hyades::comm
