#include "cluster/runtime.hpp"

#include <algorithm>
#include <deque>
#include <stdexcept>
#include <thread>

#include "cluster/fault.hpp"
#include "cluster/fiber_waits.hpp"
#include "cluster/membership.hpp"
#include "support/fiber.hpp"

namespace hyades::cluster {

SmpSync::Crossing SmpSync::cross(Microseconds clock, std::int64_t a,
                                 std::int64_t b) {
  Crossing done;
  {
    support::MutexLock lock(mu_);
    if (aborted_) throw BarrierAborted();
    open_.clock = std::max(open_.clock, clock);
    open_.a += a;
    open_.b += b;
    const std::uint64_t gen = generation_;
    if (++waiting_ < procs_) {
      const auto released = [&] {
        mu_.assert_held();
        return generation_ != gen || aborted_;
      };
      if (fibers_ != nullptr) {
        detail::fiber_wait(*fibers_, mu_, -1, -1, smp_, released);
      } else if (!support::yield_until(mu_, released)) {
        cv_.wait(mu_, released);
      }
      if (generation_ == gen) throw BarrierAborted();
      return done_;
    }
    done = done_ = open_;
    open_ = Crossing{};
    waiting_ = 0;
    ++generation_;
  }
  // The last arriver notifies after unlocking, so the woken siblings do
  // not block at once on the lock it still holds.
  cv_.notify_all();
  return done;
}

void SmpSync::abort() {
  support::MutexLock lock(mu_);
  aborted_ = true;
  cv_.notify_all();
}

std::uint64_t SmpSync::crossings() const {
  support::MutexLock lock(mu_);
  return generation_;
}

RankContext::RankContext(Runtime& rt, int rank, MessageBus& bus, SmpSync& smp)
    : rt_(rt),
      rank_(rank),
      epoch_(rt.epoch()),
      bus_(bus),
      smp_(smp),
      host_map_(rt.host_map()) {
  recompute_elastic_factor();
}

RankContext::~RankContext() = default;

int RankContext::nranks() const { return rt_.config().nranks(); }
int RankContext::smp() const { return rank_ / rt_.config().procs_per_smp; }
int RankContext::local_rank() const {
  return rank_ % rt_.config().procs_per_smp;
}
int RankContext::procs_per_smp() const { return rt_.config().procs_per_smp; }

int RankContext::host_smp_of(int rank) const {
  if (host_map_.empty()) return rank / rt_.config().procs_per_smp;
  return host_map_[static_cast<std::size_t>(rank)];
}

void RankContext::rehome_rank(int rank, int smp) {
  if (host_map_.empty()) {
    const int ppp = rt_.config().procs_per_smp;
    host_map_.resize(static_cast<std::size_t>(nranks()));
    for (int r = 0; r < nranks(); ++r) {
      host_map_[static_cast<std::size_t>(r)] = r / ppp;
    }
  }
  host_map_[static_cast<std::size_t>(rank)] = smp;
  recompute_elastic_factor();
}

void RankContext::recompute_elastic_factor() {
  elastic_factor_ = 1.0;
  if (host_map_.empty()) return;
  const int mine = host_smp_of(rank_);
  int hosted = 0;
  for (int h : host_map_) {
    if (h == mine) ++hosted;
  }
  const int ppp = rt_.config().procs_per_smp;
  // Oversubscription: a survivor SMP hosting adopted tiles timeshares
  // its processors round-robin, so every hosted rank computes slower by
  // the occupancy ratio.  At or below capacity the factor stays 1.0 --
  // identity placement is bit-identical to the pre-elastic machine.
  if (hosted > ppp) {
    elastic_factor_ = static_cast<double>(hosted) / static_cast<double>(ppp);
  }
}

const net::Interconnect& RankContext::net() const {
  return *rt_.config().interconnect;
}

void RankContext::compute(double flops, double mflops) {
  if (flops < 0 || mflops <= 0) {
    throw std::invalid_argument("RankContext::compute: bad arguments");
  }
  Microseconds dt = flops / mflops;  // MFlop/s == flops per us
  if (elastic_factor_ > 1.0) dt *= elastic_factor_;
  clock_.advance(dt);
  acct_.compute_us += dt;
  acct_.flops += flops;
}

const FaultPlan* RankContext::faults() const { return rt_.config().faults; }

void RankContext::send_raw(int to, int tag, std::vector<double> data,
                           Microseconds arrival_stamp) {
  Message m;
  m.src = rank_;
  m.tag = tag;
  m.data = std::move(data);
  m.stamp_us = arrival_stamp;
  bus_.send(to, std::move(m));
}

void RankContext::send_msg(int to, Message m) {
  m.src = rank_;
  bus_.send(to, std::move(m));
}

Message RankContext::recv_raw(int from, int tag) {
  return bus_.recv(rank_, from, tag);
}

std::pair<std::int64_t, std::int64_t> RankContext::smp_sync(std::int64_t a,
                                                            std::int64_t b) {
  if (procs_per_smp() == 1) return {a, b};
  const SmpSync::Crossing c = smp_.cross(clock_.now(), a, b);
  // Accounting is the caller's job (the comm primitives charge their
  // whole window once, which includes these sync advances).
  clock_.advance_to(c.clock);
  clock_.advance(kSmpBarrierUs);
  return {c.a, c.b};
}

void RankContext::charge_comm(Microseconds start_us) {
  acct_.comm_us += clock_.now() - start_us;
}

void RankContext::charge_overlap(Microseconds hidden_us) {
  acct_.overlap_us += hidden_us;
}

void RankContext::charge_imbalance(Microseconds wait_us) {
  acct_.imbalance_us += wait_us;
}

void RankContext::charge_retrans(Microseconds recovery_us) {
  acct_.retrans_us += recovery_us;
}

void RankContext::charge_reroute(Microseconds reroute_us) {
  acct_.reroute_us += reroute_us;
  ++acct_.degraded_sends;
}

void RankContext::charge_restart(Microseconds restart_us) {
  acct_.restart_us += restart_us;
  ++acct_.restarts;
}

void RankContext::charge_migrate(Microseconds migrate_us) {
  acct_.migrate_us += migrate_us;
  ++acct_.migrations;
}

void RankContext::charge_rebalance(Microseconds rebalance_us) {
  acct_.migrate_us += rebalance_us;
  ++acct_.rebalances;
}

void RankContext::note_downgrades(int count) {
  acct_.downgrades += count;
}

Membership* RankContext::membership() {
  const FaultPlan* plan = faults();
  if (plan == nullptr || !plan->has_node_kills()) return nullptr;
  if (!membership_) membership_ = std::make_unique<Membership>(*this, *plan);
  return membership_.get();
}

support::HostPool& RankContext::host_pool() {
  if (!pool_) {
    pool_ = std::make_unique<support::HostPool>(rt_.helpers_per_rank());
  }
  return *pool_;
}

Runtime::Runtime(MachineConfig cfg) : cfg_(cfg) {
  if (cfg_.interconnect == nullptr) {
    throw std::invalid_argument("Runtime: interconnect model is required");
  }
  // Any positive smp_count is valid: the comm layer folds non-power-of-two
  // groups onto the largest butterfly core (see comm::Comm).
  if (cfg_.smp_count < 1 || cfg_.procs_per_smp < 1) {
    throw std::invalid_argument("Runtime: bad machine shape");
  }
}

void Runtime::run(const std::function<void(RankContext&)>& body) {
  const int n = cfg_.nranks();
  const int cpus = static_cast<int>(support::allowed_cpus().size());
  // A caller confined to one CPU runs every rank as a fiber on its own
  // thread: threads could only take turns on that CPU through the kernel.
  const bool fibers = support::kFibers && cpus == 1;
  helpers_per_rank_ = std::max(0, cpus / n - 1);
  acct_.assign(static_cast<std::size_t>(n), Accounting{});
  clocks_.assign(static_cast<std::size_t>(n), 0.0);
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(n));
  // The run's machine: the wait table of a fiber run, the mailboxes and
  // one SMP sync per SMP, all dropped at the join.
  detail::FiberRun waits{
      epoch_, std::vector<WaitEdge>(static_cast<std::size_t>(n)), {}};
  detail::FiberRun* const table = fibers ? &waits : nullptr;
  MessageBus bus(n, table);
  std::deque<SmpSync> smps;
  for (int s = 0; s < cfg_.smp_count; ++s) {
    smps.emplace_back(s, cfg_.procs_per_smp, table);
  }
  // This rank will never send or reach its SMP sync again: wake the
  // receivers blocked on it and any sibling waiting at the sync, instead
  // of letting them wait on real time.
  const auto exit_rank = [&](int r) {
    bus.mark_exited(r);
    smps[static_cast<std::size_t>(r / cfg_.procs_per_smp)].abort();
  };
  const auto rank_main = [&](int r) {
    RankContext ctx(*this, r, bus,
                    smps[static_cast<std::size_t>(r / cfg_.procs_per_smp)]);
    try {
      body(ctx);
      // lint:allow(catch-all): rank trampoline -- every unwind (including
      // RankFailStop) is captured and rethrown on the calling thread
      // below; nothing is swallowed.
    } catch (...) {
      errors[static_cast<std::size_t>(r)] = std::current_exception();
    }
    acct_[static_cast<std::size_t>(r)] = ctx.accounting();
    clocks_[static_cast<std::size_t>(r)] = ctx.clock().now();
    exit_rank(r);
  };

  if (fibers) {
    support::run_fibers(static_cast<std::size_t>(n), [&](std::size_t r) {
      rank_main(static_cast<int>(r));
    });
  } else {
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(n));
    std::exception_ptr spawn_error;
    for (int r = 0; r < n; ++r) {
      try {
        threads.emplace_back(rank_main, r);
      } catch (const std::exception&) {
        // std::thread throws std::system_error (EAGAIN) when the host
        // cannot start another thread.  Ranks r.. never run, so they are
        // exits to the started ranks, which unwind with PeerExited or
        // BarrierAborted; the threads must still be joined before the
        // spawn error surfaces.
        spawn_error = std::current_exception();
        for (int u = r; u < n; ++u) exit_rank(u);
        break;
      }
    }
    for (auto& t : threads) t.join();
    if (spawn_error) std::rethrow_exception(spawn_error);
  }

  // Root cause first.  A NodeDown verdict explains an aborted epoch;
  // otherwise the first rank error that is not collateral does.  Ranks
  // woken by an exit (PeerExited, BarrierAborted) only report that a
  // peer died before them.
  const auto triage_class = [](const std::exception_ptr& e) {
    try {
      std::rethrow_exception(e);
    } catch (const NodeDownError&) {
      return 0;
    } catch (const PeerExited&) {
      return 2;
    } catch (const BarrierAborted&) {
      return 2;
      // lint:allow(catch-all): classification only -- the exception is
      // rethrown unchanged by the loop below; nothing is swallowed.
    } catch (...) {
      return 1;
    }
  };
  for (int cls = 0; cls <= 2; ++cls) {
    for (const std::exception_ptr& e : errors) {
      if (e && triage_class(e) == cls) std::rethrow_exception(e);
    }
  }
}

Microseconds Runtime::max_clock() const {
  Microseconds mx = 0;
  for (Microseconds c : clocks_) mx = std::max(mx, c);
  return mx;
}

}  // namespace hyades::cluster
