// The analytic performance model of Section 5.2 (Eqs. 4-13) and the
// Potential Floating-Point Performance metric of Section 5.4
// (Eqs. 14-15).
#pragma once

#include "perf/params.hpp"

namespace hyades::perf {

// ---- Eqs. 4-6: PS phase -------------------------------------------------
Microseconds tps_compute(const PhaseParams& p);  // Nps*nxyz / Fps
Microseconds tps_exch(const PhaseParams& p);     // 5 * texchxyz
Microseconds tps(const PhaseParams& p);

// ---- Overlap extension: split-phase PS exchanges --------------------------
// With compute/communication overlap (ModelConfig::overlap_comm) the PS
// pays only the exchange time not hidden under the interior compute:
//   T_exch_effective = max(0, t_exch - t_interior)
// where t_interior is the virtual time of the interior tendency pass
// (measured, or estimated as the interior share of tps_compute).
Microseconds tps_exch_effective(const PhaseParams& p, Microseconds t_interior);
// Refinement: only the in-flight (wire) portion of the exchange can hide
// under compute; the CPU-side portion -- injection overheads, local
// copies, the drain of the second (north/south) stage -- is paid
// regardless and bounds the effective cost from below.  `t_exch_cpu` is
// that floor (measured, or estimated from transfer_overhead()).
Microseconds tps_exch_effective(const PhaseParams& p, Microseconds t_interior,
                                Microseconds t_exch_cpu);
// Eq. (4) with the overlap term: tps_compute + tps_exch_effective.
Microseconds tps_overlap(const PhaseParams& p, Microseconds t_interior,
                         Microseconds t_exch_cpu);

// ---- Eqs. 7-10: DS phase (per solver iteration) ---------------------------
Microseconds tds_compute(const DsParams& p);  // Nds*nxy / Fds
Microseconds tds_exch(const DsParams& p);     // 2 * texchxy
Microseconds tds_gsum(const DsParams& p);     // 2 * tgsum
Microseconds tds(const DsParams& p);

// ---- Eq. 11: total runtime ------------------------------------------------
Microseconds trun(const PerfParams& p, long nt, double ni);

// ---- Eqs. 12-13: communication / computation split -------------------------
Microseconds tcomm(const PerfParams& p, long nt, double ni);
Microseconds tcomp(const PerfParams& p, long nt, double ni);

// ---- Eqs. 14-15: Potential Floating-Point Performance ----------------------
// Per-processor MFlop/s if computation took zero time.
double pfpp_ps(const PhaseParams& p);
double pfpp_ds(const DsParams& p);

// Sustained per-processor MFlop/s over a full model step with mean
// solver iteration count ni (used for the Figure 10 analog).
double sustained_mflops(const PerfParams& p, double ni);

// Substitute alternative-interconnect primitive costs into a parameter
// set (how Figure 12's rows are built).
PerfParams with_interconnect(PerfParams p, const InterconnectCosts& costs);

}  // namespace hyades::perf
