// Rank waits on the fiber path: Runtime::run on one CPU runs every rank
// of a run as a fiber on the calling thread (support/fiber.hpp), fiber r
// for rank r.  The run's mailboxes and SMP syncs get its wait table when
// they are built; a rank wait (MessageBus::recv, SmpSync::cross) then
// parks its fiber instead of sleeping, and records what it waits on, so
// a wait cycle surfaces as a Deadlock that names every blocked rank's
// wait.  Internal to the cluster library.
#pragma once

#include <cstddef>
#include <vector>

#include "cluster/message_bus.hpp"
#include "support/fiber.hpp"
#include "support/sync.hpp"
#include "support/thread_annotations.hpp"

namespace hyades::cluster::detail {

// The wait table of one fiber run.
struct FiberRun {
  int epoch = 0;
  // By rank: the wait it is parked in; rank -1 while it is not parked.
  std::vector<WaitEdge> parked;
  // Every parked wait when the deadlock was found; empty until then.
  std::vector<WaitEdge> deadlock;
};

// Throws the run's Deadlock, taking its edges from `run.parked` first.
[[noreturn]] void throw_deadlock(FiberRun& run);

// The wait of a rank fiber: parks until `ready()` holds, recording
// `peer` and `tag`, or with peer -1 the SMP `smp` whose sync it waits
// at, while parked.
template <typename Ready>
void fiber_wait(FiberRun& run, support::Mutex& mu, int peer, int tag, int smp,
                Ready ready) REQUIRES(mu) {
  const std::size_t rank = support::fiber_index();
  WaitEdge& mine = run.parked[rank];
  mine = {static_cast<int>(rank), peer, tag, smp};
  const bool going = support::fiber_wait_until(mu, ready);
  if (!going) throw_deadlock(run);
  mine = WaitEdge{};
}

}  // namespace hyades::cluster::detail
