// Layer probes for the traced run.  Each times direct calls into one
// layer's public functions on the workload's own machine or tile, from
// outside the program: comm collectives, the PS/DS kernels and the tile
// checkpoint store.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "gcm_run.hpp"
#include "measure.hpp"

namespace perfbench {

struct CommProbe {
  Dist gsum_us;
  Dist exchange_us;    // halo-sized 3-D strips
  Dist exchange2d_us;  // one-cell 2-D strips, as the CG solver sends
  Dist barrier_us;
  double vcsw_per_gsum = 0;  // process voluntary switches per collective
};
// Every rank of every component calls each primitive `reps` times;
// samples are per rank and call.
CommProbe probe_comm(const GcmSpec& spec, int reps);

struct KernelStat {
  std::string name;
  double us = 0;  // median per call
  double gflops = 0;
  // Flops over bytes computed from the sizes of the arrays in the
  // kernel's signature (one read or write each); caches are ignored.
  double flops_per_byte = 0;
  std::size_t n = 0;
};
// Group rank 0's tile of `cfg`, filled from `seed`.
std::vector<KernelStat> probe_kernels(const hyades::gcm::ModelConfig& cfg,
                                      std::uint64_t seed, double budget_s);

struct CkptProbe {
  Dist save_ms;
  Dist load_ms;
  Dist verify_ms;
  double bytes = 0;
  bool ok = true;  // every load reproduced the saved state bit for bit
};
// tile_ckpt save / load / verify of group rank 0's tile, under `dir`.
CkptProbe probe_ckpt(const hyades::gcm::ModelConfig& cfg, std::uint64_t seed,
                     const std::string& dir, int reps);

}  // namespace perfbench
