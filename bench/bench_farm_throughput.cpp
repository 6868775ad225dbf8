// Ensemble-farm throughput: campaign-level cost accounting for the
// job-queue service.  Runs a fixed campaign -- a bulk ensemble wave, a
// complete duplicate wave (all cache hits), and one doomed fault-sweep
// member -- and reports jobs per virtual hour, cache hit rate, and the
// steps/virtual-time the dedup cache saved.  Emits BENCH_farm.json;
// note the cache-speedup ratio divides by the (zero) virtual cost of
// the cache-served wave, so the JSON emitter's non-finite -> null
// encoding is exercised on every run.
#include <iostream>

#include "bench/bench_json.hpp"
#include "bench/bench_util.hpp"
#include "farm/farm.hpp"
#include "gcm/config.hpp"
#include "support/table.hpp"

namespace {

hyades::gcm::ModelConfig basin_config() {
  hyades::gcm::ModelConfig c;
  c.isomorph = hyades::gcm::Isomorph::kOcean;
  c.nx = 16;
  c.ny = 8;
  c.nz = 4;
  c.px = 2;
  c.py = 2;
  c.dt = 400.0;
  c.total_depth = 4000.0;
  c.visc_h = 1.0e6;
  c.diff_h = 1.0e5;
  c.topography = hyades::gcm::ModelConfig::Topography::kBasin;
  c.wind_tau0 = 0.15;
  c.validate();
  return c;
}

hyades::farm::JobSpec gyre_member(const std::string& name, std::uint64_t seed,
                                  int steps) {
  hyades::farm::JobSpec s;
  s.name = name;
  s.seed = seed;
  s.steps = steps;
  s.machine = {4, 1};
  s.config = basin_config();
  return s;
}

}  // namespace

int main() {
  using namespace hyades;
  constexpr int kMembers = 6;
  constexpr int kSteps = 6;
  constexpr int kClusters = 2;
  bench::banner("Ensemble-farm throughput (deterministic virtual time)");

  farm::FarmConfig fc;
  fc.clusters = kClusters;
  farm::Farm f(fc);

  for (int m = 0; m < kMembers; ++m) {
    f.submit(gyre_member("fresh-" + std::to_string(m),
                         static_cast<std::uint64_t>(700 + m), kSteps));
  }
  farm::JobSpec doomed = gyre_member("doomed", 700, kSteps);
  doomed.max_restarts = 1;
  for (int epoch = 0; epoch <= doomed.max_restarts + 1; ++epoch) {
    doomed.faults.node_kills.push_back({/*rank=*/1, /*at_us=*/50.0, epoch});
  }
  f.submit(doomed);
  for (int m = 0; m < kMembers; ++m) {
    f.submit(gyre_member("dup-" + std::to_string(m),
                         static_cast<std::uint64_t>(700 + m), kSteps));
  }
  f.run_until_drained();

  const farm::Farm::CampaignSummary s = f.summary();
  const double makespan_hours = s.makespan_us / 3.6e9;
  const double jobs_per_hour =
      static_cast<double>(s.completed + s.failed) / makespan_hours;
  const double hit_rate =
      static_cast<double>(s.cache_hits) /
      static_cast<double>(s.completed + s.failed);
  const double fresh_us_per_step =
      s.busy_us / static_cast<double>(s.steps_committed);
  const double saved_us = fresh_us_per_step * static_cast<double>(s.steps_saved);
  // The entire duplicate wave cost zero virtual microseconds, so this
  // speedup is infinite -- by design: it lands in the JSON as null and
  // proves strict parsers still accept the document.
  const double cache_wave_speedup = saved_us / 0.0;

  Table t({"metric", "value"});
  t.add_row({"jobs submitted", Table::fmt_int(s.submitted)});
  t.add_row({"completed / failed",
             Table::fmt_int(s.completed) + " / " + Table::fmt_int(s.failed)});
  t.add_row({"makespan (virtual ms)", Table::fmt(s.makespan_us / 1000.0, 3)});
  t.add_row({"throughput (jobs/virtual hour)", Table::fmt(jobs_per_hour, 0)});
  t.add_row({"cache hit rate", Table::fmt(100.0 * hit_rate, 1) + "%"});
  t.add_row({"steps simulated / saved",
             Table::fmt_int(s.steps_committed) + " / " +
                 Table::fmt_int(s.steps_saved)});
  t.add_row({"dedup savings (virtual ms)", Table::fmt(saved_us / 1000.0, 3)});
  t.add_row({"restarts burned by doomed member", Table::fmt_int(s.restarts)});
  t.print(std::cout, "campaign: " + std::to_string(kMembers) +
                         " fresh + " + std::to_string(kMembers) +
                         " duplicate members + 1 doomed, " +
                         std::to_string(kClusters) + "-cluster pool");

  bench::Json rows = bench::Json::array();
  for (const farm::JobRecord& r : f.jobs()) {
    rows.push(bench::Json::object()
                  .set("job", r.id)
                  .set("name", r.spec.name)
                  .set("status", farm::to_string(r.status))
                  .set("from_cache", r.from_cache)
                  .set("steps_committed", r.result.steps_committed)
                  .set("busy_us", r.result.busy_us)
                  .set("restarts", r.result.restarts));
  }
  bench::write_json(
      "BENCH_farm.json",
      bench::Json::object()
          .set("bench", "farm_throughput")
          .set("clusters", kClusters)
          .set("members", kMembers)
          .set("steps_per_member", kSteps)
          .set("jobs_per_virtual_hour", jobs_per_hour)
          .set("cache_hit_rate", hit_rate)
          .set("steps_committed", s.steps_committed)
          .set("steps_saved", s.steps_saved)
          .set("dedup_saved_us", saved_us)
          .set("cache_wave_speedup", cache_wave_speedup)  // inf -> null
          .set("makespan_us", s.makespan_us)
          .set("busy_us", s.busy_us)
          .set("restarts", s.restarts)
          .set("jobs", std::move(rows)));
  return 0;
}
