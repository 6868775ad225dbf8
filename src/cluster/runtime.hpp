// The Hyades machine: SMP nodes, ranks, and the threaded runtime.
//
// Mirrors the paper's configuration: a cluster of `smp_count` two-way
// SMPs, one StarT-X NIU per SMP, one MPI-like "rank" per processor.  A
// rank executes real C++ code on a std::thread, or on a fiber when the
// caller may use one CPU only; all *timing* is virtual (see
// VirtualClock).  Within an SMP, ranks coordinate through shared
// memory (modeled with one SmpSync per SMP, costed at the paper's ~1 us
// semaphore figures); across SMPs they communicate through the
// interconnect model.  Each run owns its machine: Runtime::run builds
// the run's mailboxes and SMP syncs and drops them at the join, so
// nothing one run leaves behind reaches the next.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "cluster/message_bus.hpp"
#include "cluster/virtual_clock.hpp"
#include "net/interconnect.hpp"
#include "support/host_pool.hpp"
#include "support/sync.hpp"
#include "support/thread_annotations.hpp"

namespace hyades::cluster {

// Shared-memory coordination cost per *modeled* SMP barrier crossing.
// smp_sync() charges one and an exchange phase's mix-mode byte
// aggregation two; a global sum's local combine and its distribution
// charge one each, part of the "about 1 usec" the paper attributes to
// the shared-memory local sum (Section 4.2).  The host crosses its
// barrier once per smp_sync(), whatever the model charges.
inline constexpr Microseconds kSmpBarrierUs = 0.25;

struct MachineConfig {
  int smp_count = 8;
  int procs_per_smp = 2;
  const net::Interconnect* interconnect = nullptr;  // required

  // Optional fault injection (cluster/fault.hpp).  Null (the default)
  // means the fault machinery is compiled out of every hot path: runs
  // are bit-identical to a build that predates the fault layer.  Not
  // owned; must outlive the Runtime.
  const struct FaultPlan* faults = nullptr;

  [[nodiscard]] int nranks() const { return smp_count * procs_per_smp; }
};

// Per-rank cost/usage accounting, all in virtual microseconds.
struct Accounting {
  Microseconds compute_us = 0;
  Microseconds comm_us = 0;
  // Communication time hidden under computation by split-phase
  // operations (the overlap rule t_finish = max(t_local, t_arrival)):
  // already covered by compute_us, so NOT part of total_us -- a separate
  // bucket that reports how much wire time the rank did not wait for.
  Microseconds overlap_us = 0;
  // Of comm_us, the portion spent jumping the clock forward to a late
  // partner's message timestamp (the Lamport advance_to sync): waiting
  // caused by load imbalance rather than by wire/transfer time.  A
  // subset of comm_us, tracked for wait-time attribution.
  Microseconds imbalance_us = 0;
  // Of comm_us, virtual time spent recovering from injected faults:
  // NAK round trips, retransmit backoff, and repeated transfers.  Like
  // imbalance_us, a subset attribution -- zero on fault-free runs.
  Microseconds retrans_us = 0;
  // Of comm_us, extra transfer latency paid because a dead inter-SMP
  // link forced traffic onto a longer route-around path.
  Microseconds reroute_us = 0;
  // Virtual time spent in collective restart-from-checkpoint after a
  // NodeDown verdict (relaunch + state reload).  Charged once per
  // restart per rank; NOT a subset of comm_us.
  Microseconds restart_us = 0;
  // Virtual time spent in elastic-membership recovery: adopting a dead
  // node's tile by live migration (checkpoint load on the adopter) or
  // handing a migrated tile back to a hot-joined replacement board.
  // Charged to the migrating/rebalancing rank only; NOT a subset of
  // comm_us.  Zero under epoch restart.
  Microseconds migrate_us = 0;
  double flops = 0;

  // Fault-recovery event counts (all zero on fault-free runs).
  std::int64_t retransmits = 0;   // sender-side retries performed
  std::int64_t crc_rejects = 0;   // receiver-side CRC-flagged attempts NAK'd
  std::int64_t drops_detected = 0;  // attempts recovered via timeout
  std::int64_t degraded_sends = 0;  // transfers that rode a route-around
  std::int64_t restarts = 0;        // epochs this rank restarted into
  std::int64_t migrations = 0;      // dead tiles this rank adopted live
  std::int64_t rebalances = 0;      // tiles handed back to a hot join
  // Rungs the degradation ladder fell during recoveries this rank
  // resumed into: 0 when every recovery landed on its first-choice
  // rung, +1 per failed rung attempt (migrate -> older cut -> epoch
  // restart).  Count-only; the time lands in restart_us/migrate_us.
  std::int64_t downgrades = 0;

  [[nodiscard]] Microseconds total_us() const { return compute_us + comm_us; }
  // Sustained MFlop/sec over the accounted interval.
  [[nodiscard]] double sustained_mflops() const {
    return total_us() > 0 ? flops / total_us() : 0.0;
  }
};

class Runtime;
class Membership;

// Thrown by an aborted SMP sync: a sibling rank exited, so the crossing
// can never complete.  Collateral, like PeerExited.
class BarrierAborted : public std::runtime_error {
 public:
  BarrierAborted() : std::runtime_error("SMP barrier aborted") {}
};

// One SMP's shared memory for one run: a cyclic barrier across the SMP's
// `procs` ranks that also combines what they bring.  Each arrival folds
// its clock into the crossing's max and its byte pair (a, b) into the
// crossing's sums under the barrier's lock; the last arriver publishes
// the result, and every sibling returns it.  A max and integer sums do
// not depend on arrival order.  A rank that runs ahead cannot overwrite
// a result before a slow sibling reads it: the next crossing cannot
// complete without that sibling.  When a rank exits, abort() wakes every
// sibling blocked in cross() (they observe BarrierAborted) instead of
// deadlocking the join.  With a fiber run's wait table (`fibers`, null
// when the ranks are threads) a waiting sibling parks instead of
// sleeping (cluster/fiber_waits.hpp).
class SmpSync {
 public:
  struct Crossing {
    Microseconds clock = 0;
    std::int64_t a = 0, b = 0;
  };
  SmpSync(int smp, int procs, detail::FiberRun* fibers = nullptr)
      : smp_(smp), procs_(procs), fibers_(fibers) {}

  Crossing cross(Microseconds clock, std::int64_t a, std::int64_t b);
  void abort();

  // Completed crossings.
  [[nodiscard]] std::uint64_t crossings() const;

 private:
  mutable support::Mutex mu_;
  support::CondVar cv_;
  const int smp_, procs_;
  detail::FiberRun* const fibers_;
  int waiting_ GUARDED_BY(mu_) = 0;
  std::uint64_t generation_ GUARDED_BY(mu_) = 0;
  bool aborted_ GUARDED_BY(mu_) = false;
  Crossing open_ GUARDED_BY(mu_);  // the crossing being gathered
  Crossing done_ GUARDED_BY(mu_);  // the last completed crossing
};

class RankContext {
 public:
  // `bus` and `smp` are the run's mailboxes and this rank's SMP sync.
  RankContext(Runtime& rt, int rank, MessageBus& bus, SmpSync& smp);
  ~RankContext();
  RankContext(const RankContext&) = delete;
  RankContext& operator=(const RankContext&) = delete;

  [[nodiscard]] int rank() const { return rank_; }
  [[nodiscard]] int nranks() const;
  [[nodiscard]] int smp() const;
  [[nodiscard]] int local_rank() const;
  [[nodiscard]] int procs_per_smp() const;
  [[nodiscard]] bool is_master() const { return local_rank() == 0; }

  // ---- elastic placement ----------------------------------------------
  // Where a rank's tile is *hosted* right now, as opposed to its
  // structural home (rank / procs_per_smp).  After a live migration a
  // tile runs on a survivor SMP; after a hot join it returns home.  The
  // map is a per-rank *copy* (no shared mutable state): the driver seeds
  // the baseline via Runtime::set_host_map() between runs, and mid-run
  // changes (hot joins) are applied identically on every rank as a pure
  // function of (plan, step) at checkpoint cuts.  An empty map means
  // identity placement -- bit-identical to the pre-elastic machine.
  // Placement affects fabric cost classification (what counts as a
  // remote transfer), host-granular kill matching in Membership, and
  // the compute oversubscription factor; the structural butterfly /
  // shared-memory coordination math stays on the structural home.
  [[nodiscard]] int host_smp_of(int rank) const;
  [[nodiscard]] int host_smp() const { return host_smp_of(rank_); }
  // Move `rank`'s tile to be hosted on `smp` in THIS rank's local copy
  // of the placement map (materializing the identity map on first use)
  // and refresh the oversubscription factor.
  void rehome_rank(int rank, int smp);

  [[nodiscard]] const net::Interconnect& net() const;

  VirtualClock& clock() { return clock_; }
  Accounting& accounting() { return acct_; }

  // Model `flops` floating-point operations executed at `mflops`
  // sustained MFlop/sec; advances the virtual clock and the accounting.
  void compute(double flops, double mflops);

  // Raw timestamped transport (the comm library computes stamps).
  void send_raw(int to, int tag, std::vector<double> data,
                Microseconds arrival_stamp);
  // Full-control variant for the reliability layer: src is filled in,
  // all other Message fields (tag, stamp, serial, attempt, crc_error,
  // recovery_us) are taken from `m` as given.
  void send_msg(int to, Message m);
  Message recv_raw(int from, int tag);

  // SMP-local coordination: one crossing of the SMP's sync, with the
  // shared-memory cost applied and clocks synchronized to the local max.
  // The same crossing sums each rank's byte pair (a, b) over the SMP and
  // returns the sums to every rank.
  std::pair<std::int64_t, std::int64_t> smp_sync(std::int64_t a = 0,
                                                 std::int64_t b = 0);
  // Crossings of this rank's SMP sync so far in this run.
  [[nodiscard]] std::uint64_t smp_crossings() const {
    return smp_.crossings();
  }

  // Track communication time: record the clock before a comm operation,
  // then charge the delta to comm accounting.
  void charge_comm(Microseconds start_us);
  // Credit communication time that elapsed under computation (split-phase
  // overlap) to the overlap_us bucket.
  void charge_overlap(Microseconds hidden_us);
  // Attribute part of a comm wait to partner lateness (load imbalance).
  void charge_imbalance(Microseconds wait_us);
  // Attribute fault-recovery cost (NAK + backoff + retransfer time).
  void charge_retrans(Microseconds recovery_us);
  // Attribute dead-link route-around latency (also counts the send).
  void charge_reroute(Microseconds reroute_us);
  // Attribute one collective restart-from-checkpoint (counts it too).
  void charge_restart(Microseconds restart_us);
  // Attribute one live tile adoption (counts it too).
  void charge_migrate(Microseconds migrate_us);
  // Attribute one tile handoff to a hot-joined board (counts it too).
  void charge_rebalance(Microseconds rebalance_us);
  // Record that the recovery this rank resumed into fell `count` rungs
  // down the degradation ladder (count-only; no clock effect).
  void note_downgrades(int count);

  // The machine's fault plan, or nullptr when fault injection is off.
  [[nodiscard]] const struct FaultPlan* faults() const;

  // The epoch this rank is executing (inherited from the Runtime at
  // construction); the fault plan schedules kills per epoch.
  [[nodiscard]] int epoch() const { return epoch_; }

  // Membership/heartbeat service; non-null only when the fault plan
  // schedules node kills.  Created lazily on first use.
  [[nodiscard]] Membership* membership();

  // The host threads this rank's kernels split across: its own thread
  // plus Runtime::helpers_per_rank() helpers (see Runtime::run).  Made on
  // first use and joined when the rank's body has returned; only the
  // rank's own thread may run regions on it.
  support::HostPool& host_pool();

  // Optional tracing: when set, instrumented layers record operation
  // intervals here.  Not owned.
  void set_tracer(class Tracer* tracer) { tracer_ = tracer; }
  [[nodiscard]] class Tracer* tracer() const { return tracer_; }

 private:
  void recompute_elastic_factor();

  Runtime& rt_;
  int rank_;
  int epoch_ = 0;
  MessageBus& bus_;
  SmpSync& smp_;
  VirtualClock clock_;
  Accounting acct_;
  class Tracer* tracer_ = nullptr;
  std::unique_ptr<Membership> membership_;
  // Local copy of the host placement map (empty = identity).
  std::vector<int> host_map_;
  // Compute slowdown when this rank's host SMP is oversubscribed (more
  // hosted ranks than processors after a migration); 1.0 otherwise.
  double elastic_factor_ = 1.0;
  std::unique_ptr<support::HostPool> pool_;
};

class Runtime {
 public:
  explicit Runtime(MachineConfig cfg);

  [[nodiscard]] const MachineConfig& config() const { return cfg_; }

  // Execute `body` on every rank and join: one std::thread each, or,
  // when the calling thread may run on exactly one CPU, one fiber each on
  // the calling thread (support/fiber.hpp), where a rank whose wait
  // cannot finish switches to the next rank and a wait cycle throws
  // Deadlock.  A rank body waits only through the runtime (receives,
  // SMP syncs): a wait on a host primitive would stall every fiber.  The
  // run's mailboxes and SMP syncs live as long as the run.  A rank's exit
  // (its body returned or threw) is an event: it wakes the receivers
  // blocked on that rank (MessageBus::mark_exited) and aborts its SMP
  // sync.  It is the only way a failed epoch reaches the other
  // ranks: a rank that escalates a dead peer unwinds with NodeDownError,
  // and its exit ends the waits on it in turn.  After the join one rank
  // exception is rethrown, root cause first: NodeDownError, then errors
  // that are not collateral, then the collateral PeerExited/
  // BarrierAborted unwinds; rank order within each class.  If the host
  // cannot start a rank's thread, the ranks not started count as exited,
  // the started ones are joined, and the spawn error is rethrown as the
  // root cause.
  //
  // Each rank of a threaded run may also use the CPUs its ranks leave
  // idle: RankContext::host_pool() gets the calling thread's allowed CPUs
  // / ranks - 1 helpers, none when the ranks already cover the CPUs (so a
  // fiber run's ranks get none).  The only runs that overlap in time are
  // a farm drain's lanes, and each lane has a CPU mask of its own, so a
  // run need not count the others.  Helpers are joined before run()
  // returns.
  void run(const std::function<void(RankContext&)>& body);

  // Helpers each rank of the current (or last) run() gets.
  [[nodiscard]] int helpers_per_rank() const { return helpers_per_rank_; }

  // Accounting snapshots captured at the end of the last run().
  [[nodiscard]] const std::vector<Accounting>& accounting() const {
    return acct_;
  }
  // Final virtual clocks of the last run.
  [[nodiscard]] const std::vector<Microseconds>& final_clocks() const {
    return clocks_;
  }
  [[nodiscard]] Microseconds max_clock() const;

  // Epoch for the next run(); ranks inherit it at construction.  The
  // resilient driver bumps it before each restart.  Only the fault plan
  // and Deadlock read it: a run's mail never outlives the run.
  void set_epoch(int epoch) { epoch_ = epoch; }
  [[nodiscard]] int epoch() const { return epoch_; }

  // Baseline host placement for the next run(); each rank copies it at
  // construction (see RankContext::host_smp_of).  Empty = identity.  The
  // elastic resilient driver evolves this between epochs as nodes die
  // and replacements join.
  void set_host_map(std::vector<int> map) { host_map_ = std::move(map); }
  [[nodiscard]] const std::vector<int>& host_map() const { return host_map_; }

 private:
  MachineConfig cfg_;
  int epoch_ = 0;
  int helpers_per_rank_ = 0;
  std::vector<int> host_map_;
  std::vector<Accounting> acct_;
  std::vector<Microseconds> clocks_;
};

}  // namespace hyades::cluster
