// The `campaign` workload: a seeded queue of small basin members
// submitted in waves to farm::Farm and drained, plus the farm probe of
// its traced run.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "farm/job.hpp"
#include "gcm_run.hpp"
#include "measure.hpp"

namespace perfbench {

// One queued member.  A faulted member names its clean twin (same
// config, seed and steps, no faults): if it survives, its result must
// match the twin's bit for bit.
struct Member {
  hyades::farm::JobSpec spec;
  int wave = 1;
  int twin = -1;             // queue index of the clean twin
  bool expect_fail = false;  // must end in a typed RestartExhausted
};

struct Campaign {
  std::vector<Member> members;  // queue order; waves ascending
  // Ends in a typed RecoveryExhausted: run through gcm::run_resilient
  // (what farm::execute_job calls) because it needs both durable slots
  // of the killed rank damaged before recovery, which the farm's job
  // spec cannot express.
  hyades::farm::JobSpec exhausted;
  GcmSpec member_setup;  // clean-0's machine, model and seed
};

Campaign make_campaign(std::uint64_t seed);

struct CampaignEpisode {
  double setup_s = 0;
  double work_s = 0;
  double cpu_s = 0;
  double cells = 0;  // completed members' cell updates, cache-served too
  long attempted = 0;
  long failed = 0;
  std::string ledger;  // outcomes, result bits and virtual costs
  std::vector<std::string> errors;  // one line per failed check
};

// Set-up only: what the program does before a member's first step,
// farm construction and wave-1 submission; returns its seconds.
double campaign_setup_once(const Campaign& c, const std::string& scratch);

// Set-up, drain every wave and the exhausted member, then check every
// member.  A non-empty ref_ledger must match this episode's ledger.
CampaignEpisode run_campaign_episode(const Campaign& c,
                                     const std::string& scratch,
                                     const std::string& ref_ledger,
                                     SpanLog* log, int run_id);

struct FarmProbe {
  Dist execute_ms;  // farm::execute_job per distinct member
  Dist dispatch_ms;  // drain wall per cache-served job, one sample a drain
  double cache_hits = 0;
  double steps_saved = 0;
  double recovery_host_ms = 0;  // faulted minus clean twin, median
  double recovery_events = 0;
  double migrations = 0;
  double downgrades = 0;
  std::vector<std::string> errors;
};
// Times execute_job per distinct member, then drains the same queue on
// a farm; recovery counts come from gcm::run_resilient on the node-kill
// members and are cross-checked against the farm ledger.  Last, drains
// of completed members resubmitted to that farm, all served from its
// cache, time dispatch alone.
FarmProbe probe_farm(const std::vector<Member>& queue,
                     const std::string& scratch);

}  // namespace perfbench
