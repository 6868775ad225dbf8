// One GCM episode on a fresh cluster::Runtime: set-up (runtime, comm,
// model and coupler construction plus initialize) followed by a fixed
// number of steps, the way examples/coupled_climate drives the machine.
// Used by the `coupled` and `tile` workloads and by the campaign's
// member probe.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/fault.hpp"
#include "gcm/config.hpp"
#include "measure.hpp"

namespace perfbench {

// A model on the contiguous rank range [rank_base, rank_base + nranks).
struct Component {
  hyades::gcm::ModelConfig cfg;
  int rank_base = 0;
  int nranks = 1;
};

struct GcmSpec {
  int smp_count = 1;
  int procs_per_smp = 1;
  // One component, or ocean then atmosphere for a coupled run.
  std::vector<Component> components;
  int steps = 1;
  int couple_every = 0;  // > 0 only with two components
  std::uint64_t init_seed = 7;
  const hyades::cluster::FaultPlan* faults = nullptr;

  [[nodiscard]] int nranks() const { return smp_count * procs_per_smp; }
  [[nodiscard]] bool coupled() const { return components.size() == 2; }
  // Grid cells updated by one step of every component.
  [[nodiscard]] double cells_per_step() const;
  // Index of the component whose rank range holds `rank`.
  [[nodiscard]] std::size_t component_index(int rank) const;
};

// "%a" formatting: bit-exact text for digests.
std::string hexfloat(double v);

// Per-rank host readings of a traced episode.
struct RankTrace {
  double body_wall_s = 0;  // whole rank body
  double body_cpu_s = 0;   // RUSAGE_THREAD over the body
  double init_s = 0;       // Model construction + initialize
  double step_cpu_s = 0;       // RUSAGE_THREAD, summed over steps
  std::vector<double> step_s;  // wall, one sample per step
  std::vector<double> coupler_s;  // wall per Coupler::exchange_boundary
};

struct GcmEpisode {
  double setup_s = 0;  // runtime construction .. last rank initialized
  double work_s = 0;   // last rank initialized .. runtime joined
  double run_wall_s = 0;  // Runtime::run only
  Usage work_usage;    // process usage over the work phase
  Usage run_usage;     // process usage over the whole episode
  bool ok = true;      // no exception and every CG solve converged
  std::string error;
  // Final virtual clocks and hexfloat KE / mean theta per component:
  // bit-deterministic, compared against the seed's reference episode.
  std::string digest;
  // Exact counts over the work phase, summed over components (group
  // rank 0 of each) or over ranks where noted.
  std::uint64_t gsums = 0;
  std::uint64_t exchanges = 0;
  long cg_iters = 0;
  double flops = 0;              // all ranks
  std::int64_t retransmits = 0;  // all ranks
  std::int64_t crc_rejects = 0;  // all ranks
  std::vector<RankTrace> ranks;  // traced episodes only
};

// Run one episode.  setup_only stops every rank right after set-up.  A
// non-null log records spans (episode > runtime construct/run/destroy;
// run > rank body > setup/coupler/step/diagnostics) and fills
// GcmEpisode::ranks.
GcmEpisode run_gcm_episode(const GcmSpec& spec, bool setup_only, SpanLog* log,
                           int run_id);

}  // namespace perfbench
