#include "farm/job.hpp"

#include <bit>

#include "support/rng.hpp"

namespace hyades::farm {

namespace {

// Same incremental-digest discipline as ModelConfig::fingerprint: every
// field absorbed in a fixed order, doubles by bit pattern.
struct Digest {
  std::uint64_t h;
  explicit Digest(std::uint64_t init) : h(init) {}
  void word(std::uint64_t w) { h = hash_mix(h, {w}); }
  void real(double v) { word(std::bit_cast<std::uint64_t>(v)); }
  void integer(std::int64_t v) { word(static_cast<std::uint64_t>(v)); }
};

std::uint64_t hash_fault_plan(const cluster::FaultPlan& p) {
  Digest d(0x4641554cu);  // "FAUL"
  d.word(p.seed);
  d.real(p.corrupt_prob);
  d.real(p.drop_prob);
  d.real(p.timeout_us);
  d.real(p.backoff_us);
  d.real(p.backoff_max_us);
  d.integer(p.max_attempts);
  d.word(static_cast<std::uint64_t>(p.node_kills.size()));
  for (const cluster::NodeKill& k : p.node_kills) {
    d.integer(k.rank);
    d.real(k.at_us);
    d.integer(k.epoch);
  }
  d.word(static_cast<std::uint64_t>(p.link_kills.size()));
  for (const cluster::LinkKill& k : p.link_kills) {
    d.integer(k.smp_a);
    d.integer(k.smp_b);
    d.real(k.at_us);
  }
  d.word(static_cast<std::uint64_t>(p.node_joins.size()));
  for (const cluster::NodeJoin& j : p.node_joins) {
    d.integer(j.smp);
    d.integer(j.at_step);
  }
  d.real(p.heartbeat_deadline_us);
  d.integer(p.dead_peer_probes);
  d.real(p.restart_cost_us);
  d.real(p.migrate_cost_us);
  d.real(p.rebalance_cost_us);
  d.real(p.reroute_penalty_us);
  return d.h;
}

}  // namespace

std::uint64_t JobSpec::config_hash() const {
  Digest d(0x4a4f4253u);  // "JOBS"
  d.word(config.fingerprint());
  d.integer(machine.smp_count);
  d.integer(machine.procs_per_smp);
  d.integer(steps);
  // A disabled plan hashes as a single zero word so that default-faulted
  // specs compare equal regardless of the (unused) timing knobs.
  if (faults.enabled()) {
    d.word(hash_fault_plan(faults));
    d.integer(ckpt_every);
    d.integer(max_restarts);
    d.integer(recovery == gcm::RecoveryMode::kMigrate ? 1 : 0);
  } else {
    d.word(0);
  }
  return d.h;
}

const char* to_string(JobStatus s) {
  switch (s) {
    case JobStatus::kQueued: return "queued";
    case JobStatus::kCompleted: return "completed";
    case JobStatus::kFailed: return "failed";
    case JobStatus::kRejected: return "rejected";
  }
  return "?";
}

}  // namespace hyades::farm
