// Cluster-pool executor: runs one JobSpec on one simulated cluster and
// reports what it produced and what it cost.
//
// Every job gets a freshly constructed cluster::Runtime of its
// requested shape (a pool slot models *availability*, not reuse of
// warm state -- exactly the paper's dedicated machine being handed the
// next queued job).  Execution is synchronous and virtual-time
// deterministic: a job's outcome and its cost in virtual microseconds
// depend on its spec alone, not on when, on which host thread, or
// beside which other jobs it runs.  Calls share no mutable state, so
// the farm runs distinct jobs concurrently on host threads (each under
// its own scratch prefix) and places them on the virtual pool
// afterwards, in dispatch order.
//
// Jobs whose fault plan schedules node kills route through the
// resilient restart driver (gcm/resilient.hpp); a RestartExhausted or
// solver failure comes back as ok == false with the typed message --
// the farm reports the member failed and keeps draining the queue.
#pragma once

#include <string>

#include "farm/job.hpp"

namespace hyades::farm {

struct ExecutionOutcome {
  bool ok = false;
  JobResult result;   // diagnostics valid iff ok; cost fields always real
  std::string error;  // non-empty iff !ok
};

// Run the job to completion (or typed failure).  `scratch_prefix` is
// the durable-checkpoint path prefix for resilient members; plain
// members never touch the filesystem.  Throws only on caller bugs
// (rank/tile mismatch); injected adversity is reported, not thrown.
ExecutionOutcome execute_job(const JobSpec& spec,
                             const std::string& scratch_prefix);

}  // namespace hyades::farm
