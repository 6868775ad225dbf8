// Job model for the ensemble farm: one JobSpec describes a complete,
// self-contained campaign member -- the machine to simulate, the model
// configuration to step, how many steps, the initialization seed, and
// an optional fault plan (fault-sweep and interconnect what-if members
// carry their injected adversity with them).
//
// Identity: config_hash() fingerprints everything that determines the
// *computation* -- model config, machine shape, step count, fault plan
// -- but NOT the seed; the farm's result cache keys on
// (config_hash, seed), the paper-campaign notion of "the same member":
// resubmitting an identical member must be served from cache, while a
// new seed of the same configuration is a fresh ensemble draw.
#pragma once

#include <cstdint>
#include <string>

#include "cluster/fault.hpp"
#include "gcm/config.hpp"
#include "gcm/resilient.hpp"
#include "support/units.hpp"

namespace hyades::farm {

// The simulated cluster a job wants (one tile per rank:
// smp_count * procs_per_smp must equal config.px * config.py).
struct MachineShape {
  int smp_count = 4;
  int procs_per_smp = 1;
  [[nodiscard]] int nranks() const { return smp_count * procs_per_smp; }
};

struct JobSpec {
  std::string name;      // human label; not part of the identity hash
  int priority = 0;      // higher dispatches first; FIFO within a class
  std::uint64_t seed = 7;  // Model::initialize seed (cache key, not hashed)
  int steps = 8;
  MachineShape machine;
  gcm::ModelConfig config;

  // Fault-campaign members: applied to the job's cluster when
  // faults.enabled().  A plan scheduling node kills routes the job
  // through the resilient restart driver with the knobs below.
  cluster::FaultPlan faults;
  int ckpt_every = 3;    // durable checkpoint cadence (resilient jobs)
  int max_restarts = 3;  // aborted epochs tolerated before kFailed
  // How node-kill members recover: restart the world from the newest
  // slot, or live-migrate the dead tiles onto survivors.  Part of the
  // identity hash (it changes the member's timing, not its bits).
  gcm::RecoveryMode recovery = gcm::RecoveryMode::kEpochRestart;

  // Everything that determines the stepped bits, hashed in a fixed
  // field order (see job.cpp); the seed deliberately stays out.
  [[nodiscard]] std::uint64_t config_hash() const;
};

enum class JobStatus {
  kQueued,     // admitted, waiting for a pool cluster
  kCompleted,  // ran (or was cache-served) to the requested step count
  kFailed,     // typed give-up (RestartExhausted, solver divergence...)
  kRejected,   // admission control refused the submit
};

[[nodiscard]] const char* to_string(JobStatus s);

// What a completed job produced, and what it cost.  Cache-served jobs
// copy the producer's diagnostics but report zero steps and zero
// virtual cost: the farm spent nothing to serve them.
struct JobResult {
  double kinetic_energy = 0.0;  // final KE (J), bit-deterministic
  double mean_theta = 0.0;      // final mean temperature
  int steps_committed = 0;      // model steps that advanced state
  // Cluster occupancy: the max rank clock, or for a member whose
  // recovery gave up, the plan-pure RecoveryError::gave_up_us.
  Microseconds busy_us = 0.0;
  std::int64_t retransmits = 0;  // summed fault-recovery retries
  std::int64_t restarts = 0;     // summed epoch restarts
  int migrations = 0;            // dead tiles adopted live (migrate mode)
  int rebalances = 0;            // tiles handed back to hot-joined boards
  int downgrades = 0;            // recovery-ladder rungs fallen (summed)
};

// One farm ledger row: the spec plus everything the scheduler decided.
struct JobRecord {
  int id = -1;
  JobSpec spec;
  JobStatus status = JobStatus::kQueued;
  bool from_cache = false;
  int cluster = -1;             // pool slot; -1 = cache-served/rejected
  Microseconds submit_us = 0.0;  // farm job-clock timestamps
  Microseconds start_us = 0.0;
  Microseconds finish_us = 0.0;
  JobResult result;
  std::string error;  // non-empty iff kFailed / kRejected
};

}  // namespace hyades::farm
