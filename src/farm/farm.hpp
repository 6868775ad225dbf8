// The ensemble farm: a resident, deterministic job-queue service over a
// pool of simulated clusters.
//
// This is ROADMAP item 1 -- the CP-PACS/PACS-CS production-campaign
// model applied to climate ensembles.  A Farm accepts a queue of jobs
// (perturbed-parameter gyre or coupled-climate members, interconnect
// what-ifs, fault-sweep campaigns), schedules them across `clusters`
// pool slots in priority order, and serves duplicate submissions from a
// result cache keyed by (config hash, seed).
//
// Time: the farm keeps its own virtual *job clock*, distinct from (and
// built on) the per-run rank clocks.  A job's duration is its cluster's
// final virtual time -- a pure function of the spec -- so the whole
// schedule (start/finish stamps, pool-slot choice, makespan) is a pure
// function of the submitted queue.  The virtual schedule dispatches in
// priority order onto the earliest-free pool slot (lowest slot id on
// ties); cache-served jobs complete instantly at the dispatch-time clock.
//
// Host: a drain first runs every distinct (config hash, seed) that the
// cache cannot serve on a pool of host threads (one per CPU the caller
// may use, kept for the Farm's later drains), then replays the dispatch
// above one member at a time, taking each member's outcome from the
// pool.  With L = min(pool threads, members) > 1, each member runs on a
// lane of its own, confined to 1/L of the caller's CPUs; on a lane of one
// CPU its ranks run as fibers on one thread (cluster::Runtime::run).  Only the
// replay touches the clock, the slots, the cache and the ledger, so the
// order in which host threads finish cannot reach them: two runs of the
// same queue produce bit-identical campaign summaries -- the whole
// service is golden-lockable.  Within one drain a duplicate of a failed
// member reuses its outcome, which determinism makes identical.
//
// Failure: a member whose cluster exhausts its restart budget (or whose
// solver diverges) is recorded kFailed with the typed error message and
// the virtual time it burned; the queue keeps draining.  Admission
// control bounds the pending queue: an over-capacity submit is recorded
// kRejected, never silently dropped.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "farm/cache.hpp"
#include "farm/job.hpp"
#include "farm/queue.hpp"
#include "support/units.hpp"

namespace hyades::support {
class HostPool;
}  // namespace hyades::support

namespace hyades::farm {

struct FarmConfig {
  int clusters = 2;      // pool size (>= 1)
  int max_pending = 0;   // admission cap; <= 0 = unbounded
  // Durable-checkpoint scratch directory for resilient members, created
  // on first use.  "" makes a directory no other Farm shares,
  // <temp dir>/hyades_farm.XXXXXX, removed with the Farm; a named one
  // is kept.
  std::string scratch_dir;
};

class Farm {
 public:
  explicit Farm(FarmConfig cfg);
  // Removes the private scratch directory, if this Farm made one; a
  // copy would remove it twice.
  ~Farm();
  Farm(const Farm&) = delete;
  Farm& operator=(const Farm&) = delete;

  // Enqueue a job; returns its id.  An over-capacity submit is recorded
  // kRejected (check job(id).status), never silently dropped.
  int submit(JobSpec spec);

  // Dispatch every pending job to completion (deterministic order).
  // Throws what execute_job throws for a caller bug (a spec it rejects)
  // when the dispatch reaches that member; the members behind it stay
  // queued.
  void run_until_drained();

  // The ledger entry for `id`.  The reference is into a growing
  // vector: invalidated by the next submit(); copy it to keep it.
  [[nodiscard]] const JobRecord& job(int id) const;
  [[nodiscard]] const std::vector<JobRecord>& jobs() const { return jobs_; }

  struct CampaignSummary {
    int submitted = 0;
    int completed = 0;  // includes cache-served
    int failed = 0;
    int rejected = 0;
    int cache_hits = 0;
    std::int64_t steps_committed = 0;  // freshly simulated steps
    std::int64_t steps_saved = 0;      // steps dedup'd away by the cache
    Microseconds busy_us = 0.0;        // summed cluster occupancy
    Microseconds makespan_us = 0.0;    // farm clock at drain
    std::int64_t retransmits = 0;
    std::int64_t restarts = 0;
    std::int64_t migrations = 0;  // live tile adoptions across members
    std::int64_t rebalances = 0;  // hot-join handbacks across members
    std::int64_t downgrades = 0;  // recovery-ladder rungs fallen across members
  };
  [[nodiscard]] CampaignSummary summary() const;

  // Deterministic human-readable campaign report: the job ledger (KE in
  // hexfloat so bit-identity is visible) plus the summary totals.  Two
  // runs of the same queue produce byte-identical strings.
  [[nodiscard]] std::string format_summary() const;

  [[nodiscard]] Microseconds now() const { return now_; }
  [[nodiscard]] const ResultCache& cache() const { return cache_; }

 private:
  // One distinct (config hash, seed) a drain runs on the host pool.
  struct Execution;
  // `run` is the key's execution, null when the cache held the key
  // before the drain.
  void dispatch(JobRecord& rec, const ResultCache::Key& key,
                const Execution* run);
  [[nodiscard]] std::string scratch_prefix(int job_id);

  FarmConfig cfg_;
  JobQueue queue_;
  ResultCache cache_;
  std::vector<JobRecord> jobs_;
  std::vector<Microseconds> pool_free_at_;
  Microseconds now_ = 0.0;
  std::string scratch_dir_;  // resolved on first use; "" until then
  // Host threads for the drains, started by the first with two keys and
  // started afresh when a drain's caller may use another number of CPUs.
  std::unique_ptr<support::HostPool> pool_;
};

}  // namespace hyades::farm
