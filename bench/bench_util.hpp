// Shared helpers for the figure/table reproduction binaries: every bench
// prints the paper's reported values next to this reproduction's
// measured analogs, with the relative deviation.
#pragma once

#include <unistd.h>

#include <exception>
#include <iostream>
#include <string>
#include <vector>

#include "cluster/report.hpp"
#include "cluster/trace.hpp"
#include "perf/calibrate.hpp"
#include "support/table.hpp"

namespace hyades::bench {

inline std::string pct(double measured, double paper) {
  if (paper == 0.0) return "-";
  const double d = 100.0 * (measured - paper) / paper;
  // Built via string+string append: `const char* + std::string&&` takes
  // libstdc++'s insert path, which trips GCC 12's -Wrestrict false
  // positive (PR105329) under -Werror.
  const std::string sign = d >= 0 ? "+" : "";
  return sign + Table::fmt(d, 1) + "%";
}

inline void banner(const std::string& title) {
  std::cout << "\n==== " << title << " ====\n";
}

// "/tmp/<name>.<pid>": a checkpoint prefix no other process shares, so
// two copies of one bench can run side by side.
inline std::string private_tmp(const std::string& name) {
  return "/tmp/" + name + "." + std::to_string(::getpid());
}

// Runs a bench's body; an error escaping it prints one "<bench>: <what>"
// line on stderr and exits 1.
template <typename Body>
int run_main(const char* bench, const Body& body) {
  try {
    return body();
  } catch (const std::exception& e) {
    std::cerr << bench << ": " << e.what() << "\n";
    return 1;
  }
}

// `--trace <path>` flag: returns the path, or nullptr when absent.
inline const char* trace_path(int argc, char** argv) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string(argv[i]) == "--trace") return argv[i + 1];
  }
  return nullptr;
}

// Export a measure_model capture as Chrome trace-event JSON and print
// the per-rank wait-time attribution table (per model step).
inline void report_capture(const char* path,
                           const perf::TraceCapture& cap) {
  std::vector<const cluster::Tracer*> tr;
  tr.reserve(cap.tracers.size());
  for (const cluster::Tracer& t : cap.tracers) tr.push_back(&t);
  cluster::write_trace_json(path, tr, cap.procs_per_smp);
  std::cout << "\nwrote Chrome trace (load in ui.perfetto.dev or "
               "chrome://tracing): "
            << path << "\n";
  print_wait_attribution(std::cout, cluster::wait_attribution(tr, cap.acct),
                         static_cast<double>(cap.steps));
}

}  // namespace hyades::bench
