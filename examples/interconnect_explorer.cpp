// Interconnect explorer: the paper's Section 5.4 analysis as a tool.
//
// Given a model configuration, computes the Potential Floating-Point
// Performance (Pfpp) of each interconnect choice and says whether the
// communication substrate or the processors bound the application --
// "if Pfpp is significantly greater than current processor compute
// performance then straight-forward investments in faster or more
// processors are a viable route ... Conversely ... there is little point
// in investing in hardware that only improves compute performance."
//
//   ./interconnect_explorer [nz] [fps_mflops]
#include <exception>
#include <iostream>

#include "net/arctic_model.hpp"
#include "net/ethernet.hpp"
#include "perf/calibrate.hpp"
#include "perf/perf_model.hpp"
#include "support/argparse.hpp"
#include "support/table.hpp"

int run(int argc, char** argv) {
  using namespace hyades;
  constexpr const char* kUsage = "interconnect_explorer [nz] [fps_mflops]";
  const int nz = argc > 1 ? support::checked_int(argv[1], "nz", kUsage) : 10;
  const double fps =
      argc > 2 ? support::checked_double(argv[2], "fps_mflops", kUsage, 1.0)
               : 50.0;

  std::cout << "Configuration: 128x64x" << nz
            << " grid, 16 processors on 8 SMPs, processor sustains "
            << fps << " MFlop/s\n";

  const net::ArcticModel arctic;
  const net::EthernetModel fe = net::fast_ethernet();
  const net::EthernetModel ge = net::gigabit_ethernet();
  const net::EthernetModel hpvm = net::hpvm_myrinet();
  const net::Interconnect* nets[] = {&fe, &ge, &hpvm, &arctic};

  Table t({"network", "Pfpp,ps (MF/s)", "Pfpp,ds (MF/s)", "verdict"});
  for (const net::Interconnect* n : nets) {
    gcm::ModelConfig cfg = gcm::atmosphere_preset(1, 1);
    cfg.nz = nz;

    perf::MachineShape shape{8, 2};
    const perf::PrimitiveCosts c = perf::measure_primitives(*n, shape, 4);
    perf::PerfParams p = perf::paper_atmosphere();
    p.ps.fps_mflops = fps;
    p.ps.nxyz = 128.0 * 64.0 * nz / 16.0;
    p.ps.texchxyz = c.texchxyz_atmos * nz / 10.0;  // scale with depth
    p.ds.tgsum = c.tgsum;
    p.ds.texchxy = c.texchxy;

    const double ps = perf::pfpp_ps(p.ps);
    const double ds = perf::pfpp_ds(p.ds);
    const char* verdict =
        (ps > 2 * fps && ds > p.ds.fds_mflops)
            ? "buy faster processors"
            : (ps > fps ? "viable for coarse grain only"
                        : "interconnect-bound everywhere");
    t.add_row({n->name(), Table::fmt(ps, 1), Table::fmt(ds, 1), verdict});
  }
  t.print(std::cout,
          "Pfpp = per-processor MFlop/s if computation took zero time");
  std::cout << "\nDS-phase budget (Section 5.4): tgsum + texchxy must stay "
               "under ~306 us to keep Pfpp,ds at 60 MFlop/s.\n";
  return 0;
}

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "interconnect_explorer: " << e.what() << "\n";
    return 1;
  }
}
