// Rank waits on the fiber path: Runtime::run on one CPU runs every rank
// of a run as a fiber on the calling thread (support/fiber.hpp), fiber r
// for rank r.  A rank wait (MessageBus::recv, AbortableBarrier::
// arrive_and_wait) then parks its fiber instead of sleeping, and records
// what it waits on, so a wait cycle surfaces as a Deadlock that names
// every blocked rank's wait.  Internal to the cluster library.
#pragma once

#include <cstddef>
#include <vector>

#include "cluster/message_bus.hpp"
#include "support/fiber.hpp"
#include "support/sync.hpp"
#include "support/thread_annotations.hpp"

namespace hyades::cluster::detail {

// The fiber run in progress on this thread.
struct FiberRun {
  int epoch = 0;
  int procs_per_smp = 1;
  // By rank: the wait it is parked in, as the wait recorded it (the raw
  // bus tag); rank -1 while it is not parked.
  std::vector<WaitEdge> parked;
  // Every parked wait when the deadlock was found; empty until then.
  std::vector<WaitEdge> deadlock;
};

// The fiber run whose ranks this thread runs, or null (a rank thread,
// or no run).  Runtime::run sets it for the run's lifetime.
FiberRun*& fiber_run();

// Throws the run's Deadlock, taking its edges from `run.parked` first.
[[noreturn]] void throw_deadlock(FiberRun& run);

// The wait of a rank fiber: parks until `ready()` holds, recording
// `peer` and `tag` (peer -1: its SMP barrier) while parked.
template <typename Ready>
void fiber_wait(FiberRun& run, support::Mutex& mu, int peer, int tag,
                Ready ready) REQUIRES(mu) {
  const std::size_t rank = support::fiber_index();
  WaitEdge& mine = run.parked[rank];
  mine = {static_cast<int>(rank), peer, tag, -1};
  const bool going = support::fiber_wait_until(mu, ready);
  if (!going) throw_deadlock(run);
  mine = WaitEdge{};
}

}  // namespace hyades::cluster::detail
