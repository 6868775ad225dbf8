#include "perf/perf_model.hpp"

namespace hyades::perf {

PerfParams paper_atmosphere() {
  PerfParams p;
  p.ps = {781.0, 5120.0, 1640.0, 50.0};
  p.ds = {36.0, 1024.0, 13.5, 115.0, 60.0};
  return p;
}

PerfParams paper_ocean() {
  PerfParams p;
  p.ps = {751.0, 15360.0, 4573.0, 50.0};
  p.ds = {36.0, 1024.0, 13.5, 115.0, 60.0};
  return p;
}

InterconnectCosts paper_fast_ethernet() { return {942.0, 10008.0, 100000.0}; }
InterconnectCosts paper_gigabit_ethernet() { return {1193.0, 1789.0, 5742.0}; }
InterconnectCosts paper_arctic() { return {13.5, 115.0, 1640.0}; }

Microseconds tps_compute(const PhaseParams& p) {
  return p.nps * p.nxyz / p.fps_mflops;  // Eq. (5); MFlop/s == flops/us
}
Microseconds tps_exch(const PhaseParams& p) {
  return 5.0 * p.texchxyz;  // Eq. (6): five 3-D state fields
}
Microseconds tps(const PhaseParams& p) {
  return tps_compute(p) + tps_exch(p);  // Eq. (4)
}

Microseconds tps_exch_effective(const PhaseParams& p,
                                Microseconds t_interior) {
  const Microseconds hidden = tps_exch(p) - t_interior;
  return hidden > 0 ? hidden : 0.0;
}
Microseconds tps_exch_effective(const PhaseParams& p, Microseconds t_interior,
                                Microseconds t_exch_cpu) {
  const Microseconds eff = tps_exch_effective(p, t_interior);
  return eff > t_exch_cpu ? eff : t_exch_cpu;
}
Microseconds tps_overlap(const PhaseParams& p, Microseconds t_interior,
                         Microseconds t_exch_cpu) {
  return tps_compute(p) + tps_exch_effective(p, t_interior, t_exch_cpu);
}

Microseconds tds_compute(const DsParams& p) {
  return p.nds * p.nxy / p.fds_mflops;  // Eq. (8)
}
Microseconds tds_exch(const DsParams& p) { return 2.0 * p.texchxy; }  // (9)
Microseconds tds_gsum(const DsParams& p) { return 2.0 * p.tgsum; }    // (10)
Microseconds tds(const DsParams& p) {
  return tds_compute(p) + tds_exch(p) + tds_gsum(p);  // Eq. (7)
}

Microseconds trun(const PerfParams& p, long nt, double ni) {
  return static_cast<double>(nt) * tps(p.ps) +
         static_cast<double>(nt) * ni * tds(p.ds);  // Eq. (11)
}

Microseconds tcomm(const PerfParams& p, long nt, double ni) {
  // Eq. (12): 2*Nt*Ni*tgsum + 5*Nt*texchxyz + 2*Nt*Ni*texchxy.
  const double n = static_cast<double>(nt);
  return 2.0 * n * ni * p.ds.tgsum + 5.0 * n * p.ps.texchxyz +
         2.0 * n * ni * p.ds.texchxy;
}

Microseconds tcomp(const PerfParams& p, long nt, double ni) {
  // Eq. (13).
  const double n = static_cast<double>(nt);
  return n * tps_compute(p.ps) + n * ni * tds_compute(p.ds);
}

double pfpp_ps(const PhaseParams& p) {
  return p.nps * p.nxyz / tps_exch(p);  // Eq. (14)
}

double pfpp_ds(const DsParams& p) {
  return p.nds * p.nxy / (tds_gsum(p) + tds_exch(p));  // Eq. (15)
}

double sustained_mflops(const PerfParams& p, double ni) {
  const double flops = p.ps.nps * p.ps.nxyz + ni * p.ds.nds * p.ds.nxy;
  const Microseconds t = tps(p.ps) + ni * tds(p.ds);
  return t > 0 ? flops / t : 0.0;
}

PerfParams with_interconnect(PerfParams p, const InterconnectCosts& costs) {
  p.ps.texchxyz = costs.texchxyz;
  p.ds.texchxy = costs.texchxy;
  p.ds.tgsum = costs.tgsum;
  return p;
}

}  // namespace hyades::perf
