// hyades_perfbench: host-time benchmark of the hyades reproduction.
//
//   hyades_perfbench --workload {coupled,tile,campaign} --seed N
//       --seconds S --trace {0,1} --scratch DIR [--trace-out FILE]
//
// --trace 0 measures the end-to-end metrics with no instrumentation;
// --trace 1 is the separate traced run that reports per-layer metrics
// from spans and layer probes.  Every line of stdout is for people
// except the last, which is the JSON result.  perfbench/README.md lists
// the workloads and metrics.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <iostream>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "campaign.hpp"
#include "gcm_run.hpp"
#include "measure.hpp"
#include "probes.hpp"
#include "support/logging.hpp"
#include "support/rng.hpp"

namespace {

using namespace perfbench;
using hyades::gcm::atmosphere_preset;
using hyades::gcm::ocean_preset;

// Set-up-only repetitions before each episode, spread over the run so
// that the set-up samples meet the same host states as the episodes.  A
// campaign's set-up (farm construction and wave-1 submission) takes
// microseconds, so it is repeated more often.
constexpr int kSetupReps = 1;
constexpr int kCampaignSetupReps = 25;
constexpr int kMinEpisodes = 3;  // timed episodes, however long they take

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  int seconds = 10;
  bool trace = false;
  std::string scratch;
  std::string trace_out;
};

Options parse(int argc, char** argv) {
  Options o;
  std::map<std::string, std::string> kv;
  for (int i = 1; i + 1 < argc; i += 2) kv[argv[i]] = argv[i + 1];
  if (argc % 2 == 0) throw std::invalid_argument("arguments come in pairs");
  const auto need = [&](const char* k) {
    const auto it = kv.find(k);
    if (it == kv.end()) throw std::invalid_argument(std::string("missing ") + k);
    return it->second;
  };
  const auto to_long = [](const std::string& s, long lo, long hi) {
    char* end = nullptr;
    const long v = std::strtol(s.c_str(), &end, 10);
    if (s.empty() || *end != '\0' || v < lo || v > hi) {
      throw std::invalid_argument("bad number '" + s + "'");
    }
    return v;
  };
  o.workload = need("--workload");
  if (o.workload != "coupled" && o.workload != "tile" &&
      o.workload != "campaign") {
    throw std::invalid_argument("unknown workload '" + o.workload + "'");
  }
  o.seed = static_cast<std::uint64_t>(to_long(need("--seed"), 0, 1L << 62));
  o.seconds = static_cast<int>(to_long(need("--seconds"), 1, 120));
  o.trace = to_long(need("--trace"), 0, 1) == 1;
  o.scratch = need("--scratch");
  if (kv.count("--trace-out")) o.trace_out = kv["--trace-out"];
  return o;
}

// ---- environment stamp --------------------------------------------------

std::string sanitizer() {
#if defined(__SANITIZE_ADDRESS__)
  return "address";
#elif defined(__SANITIZE_THREAD__)
  return "thread";
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
  return "address";
#elif __has_feature(thread_sanitizer)
  return "thread";
#else
  return "none";
#endif
#else
  return "none";
#endif
}

bool optimized() {
#if defined(__OPTIMIZE__)
  return true;
#else
  return false;
#endif
}

// ---- result ---------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Report {
  long attempted = 0;
  long failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> errors;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void unit(bool ok, const std::string& why) {
    ++attempted;
    if (!ok) {
      ++failed;
      errors.push_back(why);
    }
  }
  void absorb(const CampaignEpisode& ep) {
    attempted += ep.attempted;
    failed += ep.failed;
    errors.insert(errors.end(), ep.errors.begin(), ep.errors.end());
  }
};

std::string num(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_result(const Report& r) {
  std::cout << "\n";
  for (const Metric& m : r.metrics) {
    char buf[160];
    std::snprintf(buf, sizeof buf, "  %-40s %16.6g %s\n", m.name.c_str(),
                  m.value, m.unit.c_str());
    std::cout << buf;
  }
  const double frac =
      r.attempted ? static_cast<double>(r.failed) / r.attempted : 1.0;
  std::cout << "  failed_frac " << num(frac) << " (" << r.failed << " of "
            << r.attempted << " verified units)\n";
  for (const std::string& e : r.errors) std::cout << "  FAILED: " << e << "\n";
  const bool correct = r.failed == 0 && r.attempted > 0;
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << std::max(1L, r.attempted)
            << ", \"failed\": " << r.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    std::cout << (i ? ", " : "") << "\"" << m.name << "\": {\"value\": "
              << num(m.value) << ", \"unit\": \"" << m.unit << "\"}";
  }
  std::cout << "}}" << std::endl;
}

// ---- workloads --------------------------------------------------------------

std::uint64_t init_seed(std::uint64_t seed) {
  hyades::SplitMix64 rng(seed ^ 0x6a09e667f3bcc909ull);
  return 1 + rng.next_below(1u << 30);
}

// The paper's Section 5 flagship: 16 two-way SMPs, ocean and atmosphere
// each on 4x4 tiles of its own half, coupled once every six steps as in
// examples/coupled_climate.
GcmSpec coupled_spec(std::uint64_t seed) {
  GcmSpec s;
  s.smp_count = 16;
  s.procs_per_smp = 2;
  s.components = {{ocean_preset(4, 4), 0, 16}, {atmosphere_preset(4, 4), 16, 16}};
  s.steps = 6;
  s.couple_every = 6;  // examples/coupled_climate's default
  s.init_seed = init_seed(seed);
  return s;
}

// The same ocean on one rank of one SMP: the single-threaded baseline.
GcmSpec tile_spec(std::uint64_t seed) {
  GcmSpec s;
  s.components = {{ocean_preset(1, 1), 0, 1}};
  s.steps = 4;
  s.init_seed = init_seed(seed);
  return s;
}

std::string describe(const GcmSpec& s) {
  std::string d = std::to_string(s.smp_count) + " SMP(s) x " +
                  std::to_string(s.procs_per_smp) + " proc(s);";
  for (const Component& c : s.components) {
    d += " " + std::to_string(c.cfg.nx) + "x" + std::to_string(c.cfg.ny) + "x" +
         std::to_string(c.cfg.nz) + " on " + std::to_string(c.cfg.px) + "x" +
         std::to_string(c.cfg.py) + " tiles;";
  }
  d += " " + std::to_string(s.steps) + " steps per episode";
  if (s.coupled()) d += ", coupled every " + std::to_string(s.couple_every);
  return d + ", init seed " + std::to_string(s.init_seed);
}

// Compare a completed episode with the seed's reference (the first
// completed episode of the run).
void check_episode(const GcmEpisode& ep, std::string& ref, Report& rep,
                   const char* what) {
  if (!ep.ok) {
    rep.unit(false, std::string(what) + ": " + ep.error);
    return;
  }
  if (ref.empty()) ref = ep.digest;
  rep.unit(ep.digest == ref,
           std::string(what) + ": clocks/state digest differs from the reference");
}

void add_dist(Report& rep, const std::string& base, const Dist& d,
              const std::string& unit) {
  rep.add(base + "_p50", d.p50, unit);
  rep.add(base + "_tail", d.tail, unit);
  if (d.n >= 21) {
    std::printf("  %s: p50 %.4g, p%.1f %.4g %s (n=%zu)\n", base.c_str(), d.p50,
                d.tail_pct, d.tail, unit.c_str(), d.n);
  } else {
    std::printf("  %s: p50 %.4g %s (n=%zu; under 21 samples the tail is the "
                "median)\n", base.c_str(), d.p50, unit.c_str(), d.n);
  }
}

// Peak RSS after the set-ups and the first kMinEpisodes episodes: a
// fixed amount of work, however many episodes the run fits.
double peak_rss_mb() {
  return static_cast<double>(usage_self().maxrss_kb) / 1024.0;
}

void print_spread(const char* what, std::vector<double> v) {
  std::sort(v.begin(), v.end());
  std::printf("  %s: min %.6g, p10 %.6g, median %.6g, p90 %.6g, max %.6g "
              "(n=%zu)\n",
              what, v.front(), quantile(v, 0.1), median(v), quantile(v, 0.9),
              v.back(), v.size());
}

double cells_rate(const GcmSpec& s, const GcmEpisode& ep) {
  return s.cells_per_step() * s.steps / ep.work_s;
}

// One timed episode's share of the end-to-end metrics.
struct Sample {
  double setup_s;
  double cell_updates_per_s;
  double cpu_s;
};

// Episodes, each after `setup_reps` set-ups, until `seconds` have passed
// (and at least kMinEpisodes).  Episode timings report the fastest tenth
// of their samples (90th percentile of throughput, 10th of seconds): on
// a shared host, interference from other tenants slows a varying share
// of the episodes by a third or more, which moves a median from run to
// run, while the fastest tenth tracks what the program itself costs.
// Work added to a step still raises every sample.  Set-up reports the
// median: a campaign's set-up is a few microseconds, whose fastest tenth
// shifts by half between processes while its median holds.
void end_to_end(const Options& o, int setup_reps,
                const std::function<double()>& setup_once,
                const std::function<Sample(int)>& episode, Report& rep) {
  std::vector<double> setups, rates, cpus;
  double rss_mb = 0;
  const double deadline = host_now_s() + o.seconds;
  for (int run = 0; run < kMinEpisodes || host_now_s() < deadline; ++run) {
    for (int i = 0; i < setup_reps; ++i) setups.push_back(setup_once());
    const Sample x = episode(run);
    setups.push_back(x.setup_s);
    rates.push_back(x.cell_updates_per_s);
    cpus.push_back(x.cpu_s);
    if (run + 1 == kMinEpisodes) rss_mb = peak_rss_mb();
  }
  print_spread("cell updates/s per episode", rates);
  print_spread("cpu s per episode", cpus);
  print_spread("set-up s", setups);
  rep.add("cell_updates_per_s", quantile(rates, 0.9), "1/s");
  rep.add("setup_s", median(setups), "s");
  rep.add("cpu_s", quantile(cpus, 0.1), "s");
  rep.add("peak_rss_mb", rss_mb, "MB");
}

void gcm_end_to_end(const Options& o, const GcmSpec& spec, Report& rep) {
  std::string ref;
  end_to_end(
      o, kSetupReps,
      [&] { return run_gcm_episode(spec, true, nullptr, 0).setup_s; },
      [&](int run) {
        const GcmEpisode ep = run_gcm_episode(spec, false, nullptr, run);
        check_episode(ep, ref, rep, "episode");
        return Sample{ep.setup_s, cells_rate(spec, ep), ep.work_usage.cpu_s()};
      },
      rep);
}

// A per-layer metric that a workload's traced run does not measure:
// printed as such and reported as 0, so every traced result carries
// the same metric names.
void not_measured(Report& rep,
                  const std::vector<std::pair<const char*, const char*>>& m) {
  std::printf("  not measured on this workload (reported as 0):");
  for (const auto& [name, unit] : m) {
    std::printf(" %s", name);
    rep.add(name, 0.0, unit);
  }
  std::printf("\n");
}

const std::vector<std::pair<const char*, const char*>> kCampaignOnly = {
    {"gcm.ckpt.save_ms", "ms"},       {"gcm.ckpt.load_ms", "ms"},
    {"gcm.ckpt.verify_ms", "ms"},     {"gcm.ckpt.bytes", "B"},
    {"farm.execute_ms_p50", "ms"},    {"farm.execute_ms_tail", "ms"},
    {"farm.dispatch_overhead_ms", "ms"}, {"farm.cache_hits", "count"},
    {"farm.steps_saved", "count"},    {"gcm.recovery_host_ms", "ms"},
    {"gcm.recovery_events", "count"}, {"gcm.migrations", "count"},
    {"gcm.downgrades", "count"}};

const std::vector<std::pair<const char*, const char*>> kSplit = {
    {"gcm.split.ps_kernels_ms", "ms"}, {"gcm.split.cg_operator_ms", "ms"},
    {"gcm.split.exchange_ms", "ms"},   {"gcm.split.gsum_ms", "ms"},
    {"gcm.split.attributed_frac", "ratio"}};

struct LayerProbes {
  CommProbe comm;
  std::map<std::string, double> kernel_us;  // median per call
};

// The probes of every workload's traced run: comm on the workload's
// machine, the kernels on its first component's tile.
LayerProbes layer_probes(const Options& o, const GcmSpec& spec, SpanLog& log,
                         Report& rep) {
  LayerProbes lp;
  {
    SpanScope s(&log, "probe.comm", -1, 0, -1);
    lp.comm = probe_comm(spec, 100);
    add_dist(rep, "comm.gsum_us", lp.comm.gsum_us, "us");
    add_dist(rep, "comm.exchange_us", lp.comm.exchange_us, "us");
    rep.add("comm.barrier_us_p50", lp.comm.barrier_us.p50, "us");
    rep.add("comm.vcsw_per_gsum", lp.comm.vcsw_per_gsum, "count");
  }
  SpanScope s(&log, "probe.kernels", -1, 0, -1);
  const hyades::gcm::ModelConfig& tile = spec.components.front().cfg;
  for (const KernelStat& k : probe_kernels(tile, o.seed, 0.1 * o.seconds)) {
    const std::string b = "gcm.kernel." + k.name;
    rep.add(b + "_us", k.us, "us");
    rep.add(b + "_gflops", k.gflops, "GFlop/s");
    rep.add(b + "_flops_per_byte", k.flops_per_byte, "flop/B");
    std::printf("  kernel %s: %.4g us median (n=%zu), %.3g GFlop/s, %.3g "
                "flop/B computed from array sizes\n",
                k.name.c_str(), k.us, k.n, k.gflops, k.flops_per_byte);
    lp.kernel_us[k.name] = k.us;
  }
  return lp;
}

// Per-layer metrics from traced GCM episodes (cluster, comm counts, gcm).
void traced_gcm_metrics(const GcmSpec& spec,
                        const std::vector<GcmEpisode>& eps, Report& rep) {
  std::vector<double> vcsw, ivcsw, sys, overhead_ms, step_ms, init_ms;
  double blocked = 0, body = 0, step_cpu = 0, step_wall = 0;
  for (const GcmEpisode& ep : eps) {
    vcsw.push_back(static_cast<double>(ep.run_usage.vcsw));
    ivcsw.push_back(static_cast<double>(ep.run_usage.ivcsw));
    sys.push_back(ep.run_usage.sys_s);
    double slowest = 0;
    for (const RankTrace& r : ep.ranks) {
      slowest = std::max(slowest, r.body_wall_s);
      blocked += std::max(0.0, r.body_wall_s - r.body_cpu_s);
      body += r.body_wall_s;
      step_cpu += r.step_cpu_s;
      init_ms.push_back(r.init_s * 1e3);
      for (double s : r.step_s) {
        step_wall += s;
        step_ms.push_back(s * 1e3);
      }
    }
    overhead_ms.push_back((ep.run_wall_s - slowest) * 1e3);
  }
  const GcmEpisode& e = eps.front();
  const double steps = spec.steps;
  rep.add("cluster.vol_ctx_switches", median(vcsw), "count");
  rep.add("cluster.invol_ctx_switches", median(ivcsw), "count");
  rep.add("cluster.sys_s", median(sys), "s");
  rep.add("cluster.rank_blocked_frac", body > 0 ? blocked / body : 0.0, "ratio");
  rep.add("cluster.run_overhead_ms", median(overhead_ms), "ms");
  rep.add("comm.gsums_per_step", static_cast<double>(e.gsums) / steps, "count");
  rep.add("comm.exchanges_per_step", static_cast<double>(e.exchanges) / steps,
          "count");
  add_dist(rep, "gcm.step_ms", summarize(step_ms), "ms");
  rep.add("gcm.step_cpu_frac", step_wall > 0 ? step_cpu / step_wall : 0.0,
          "ratio");
  rep.add("gcm.cg_iters_per_step", static_cast<double>(e.cg_iters) / steps,
          "count");
  rep.add("gcm.flops_per_step", e.flops / steps, "flop");
  rep.add("gcm.init_ms", median(init_ms), "ms");
}

// Splits the median step of a one-rank spec among the layers the probes
// time: each probe's median per call times its exact call count per
// step.  On one rank the exchanges are self-copies and the sums local,
// so a probed call costs what the step pays for it; on many ranks a
// call's cost depends on how far apart the ranks run, and no split is
// made.  Per step, Timestepper::step calls hydrostatic and
// momentum_tendencies once and tracer_tendency twice (theta and salt),
// and cg_solve calls EllipticOperator::apply and precondition once
// before its first iteration and once in each.  Of the exchanges, ten
// carry 3-D strips (five state fields, two stages each); the rest carry
// the solver's one-cell 2-D strips.  The attributed fraction is the
// split's sum over the median step wall; the remainder is work no probe
// times (the AB2 update, vertical mixing, physics, CG vector updates,
// halo packing).
void step_split(const GcmSpec& spec, const std::vector<GcmEpisode>& eps,
                const LayerProbes& lp, Report& rep) {
  std::vector<double> step_ms;
  for (const GcmEpisode& ep : eps) {
    for (const RankTrace& r : ep.ranks) {
      for (double s : r.step_s) step_ms.push_back(s * 1e3);
    }
  }
  const GcmEpisode& e = eps.front();
  const double steps = spec.steps;
  const auto us = [&](const char* k) { return lp.kernel_us.at(k); };
  const double cg_calls = static_cast<double>(e.cg_iters) / steps + 1.0;
  const double exchanges = static_cast<double>(e.exchanges) / steps;
  const double ps_ms = (us("hydrostatic") + us("momentum_tendencies") +
                        2.0 * us("tracer_tendency")) / 1e3;
  const double cg_ms =
      cg_calls * (us("elliptic_apply") + us("precondition")) / 1e3;
  const double x_ms = (10.0 * lp.comm.exchange_us.p50 +
                       std::max(0.0, exchanges - 10.0) *
                           lp.comm.exchange2d_us.p50) / 1e3;
  const double g_ms =
      static_cast<double>(e.gsums) / steps * lp.comm.gsum_us.p50 / 1e3;
  const double step = median(step_ms);
  const double frac = (ps_ms + cg_ms + x_ms + g_ms) / step;
  rep.add("gcm.split.ps_kernels_ms", ps_ms, "ms");
  rep.add("gcm.split.cg_operator_ms", cg_ms, "ms");
  rep.add("gcm.split.exchange_ms", x_ms, "ms");
  rep.add("gcm.split.gsum_ms", g_ms, "ms");
  rep.add("gcm.split.attributed_frac", frac, "ratio");
  std::printf("  step split of the %.4g ms median step: PS kernels %.1f%%, CG "
              "operator %.1f%%, exchange %.1f%%, global sum %.1f%%, "
              "unattributed %.1f%%\n",
              step, 100.0 * ps_ms / step, 100.0 * cg_ms / step,
              100.0 * x_ms / step, 100.0 * g_ms / step, 100.0 * (1.0 - frac));
}

// Run `spec` episodes, untraced then traced, for about `secs` each.
void untraced_then_traced(const GcmSpec& spec, double secs, int min_eps,
                          SpanLog& log, Report& rep, std::string& ref,
                          std::vector<double>& rate_u,
                          std::vector<double>& rate_t,
                          std::vector<GcmEpisode>& traced) {
  double until = host_now_s() + secs;
  for (int run = 0; run < 1 || host_now_s() < until; ++run) {
    const GcmEpisode ep = run_gcm_episode(spec, false, nullptr, run);
    check_episode(ep, ref, rep, "untraced episode");
    rate_u.push_back(cells_rate(spec, ep));
  }
  until = host_now_s() + secs;
  for (int run = 1; run <= min_eps || host_now_s() < until; ++run) {
    GcmEpisode ep = run_gcm_episode(spec, false, &log, run);
    check_episode(ep, ref, rep, "traced episode vs untraced");
    rate_t.push_back(cells_rate(spec, ep));
    traced.push_back(std::move(ep));
  }
}

void report_overhead(const std::vector<double>& rate_u,
                     const std::vector<double>& rate_t) {
  const double u = median(rate_u);
  const double t = median(rate_t);
  std::printf("  tracing overhead: %.4g cell updates/s traced vs %.4g untraced "
              "(%+.2f%%)\n",
              t, u, u > 0 ? 100.0 * (u - t) / u : 0.0);
}

// ROADMAP item 1's acceptance on one rank: the measured leaf layers of
// the traced episodes (runtime construction and destruction, rank
// set-up, steps, coupler, diagnostics) cover the episode wall to within
// 5%.  What they leave out is the episode's own bookkeeping, thread
// spawn and join inside Runtime::run and the rank body's glue.
void check_cover(const SpanLog& log, Report& rep) {
  const std::map<std::string, double> total = log.total_s();
  const auto get = [&](const char* k) {
    const auto it = total.find(k);
    return it == total.end() ? 0.0 : it->second;
  };
  const double wall = get("episode");
  const std::vector<std::pair<const char*, const char*>> layers = {
      {"cluster.construct", "runtime_construct"},
      {"gcm.setup", "rank_setup"},
      {"gcm.step", "step"},
      {"gcm.coupler", "coupler"},
      {"gcm.diagnostics", "diagnostics"},
      {"cluster.destroy", "runtime_destroy"}};
  double sum = 0;
  std::printf("  host split of %.4g s traced episode wall:", wall);
  for (const auto& [layer, span] : layers) {
    const double s = get(span);
    sum += s;
    std::printf(" %s %.2f%%", layer, wall > 0 ? 100.0 * s / wall : 0.0);
  }
  const double gap = wall > 0 ? (wall - sum) / wall : 1.0;
  std::printf("; %.3f%% of the wall is in no measured layer\n", 100.0 * gap);
  rep.unit(wall > 0 && gap >= 0 && gap <= 0.05,
           "measured layers do not cover the episode wall to within 5%");
}

void gcm_traced(const Options& o, const GcmSpec& spec, SpanLog& log,
                Report& rep) {
  std::string ref;
  std::vector<double> rate_u, rate_t;
  std::vector<GcmEpisode> traced;
  untraced_then_traced(spec, 0.2 * o.seconds, 2, log, rep, ref, rate_u,
                       rate_t, traced);
  report_overhead(rate_u, rate_t);
  traced_gcm_metrics(spec, traced, rep);
  rep.add("comm.retransmits", static_cast<double>(traced.front().retransmits),
          "count");
  rep.add("comm.crc_rejects", static_cast<double>(traced.front().crc_rejects),
          "count");
  if (spec.nranks() == 1) check_cover(log, rep);
  const LayerProbes lp = layer_probes(o, spec, log, rep);
  if (spec.nranks() == 1) {
    step_split(spec, traced, lp, rep);
  } else {
    not_measured(rep, kSplit);
  }
  if (spec.coupled()) {
    std::vector<double> ms;
    for (const GcmEpisode& ep : traced) {
      for (const RankTrace& r : ep.ranks) {
        for (double s : r.coupler_s) ms.push_back(s * 1e3);
      }
    }
    const Dist d = summarize(ms);
    rep.add("gcm.coupler_ms", d.p50, "ms");
    std::printf("  coupler: p50 %.4g ms (n=%zu)\n", d.p50, d.n);
  } else {
    not_measured(rep, {{"gcm.coupler_ms", "ms"}});
  }
  not_measured(rep, kCampaignOnly);
}

void campaign_end_to_end(const Options& o, const Campaign& c, Report& rep) {
  std::string ref;
  end_to_end(
      o, kCampaignSetupReps,
      [&] { return campaign_setup_once(c, o.scratch); },
      [&](int run) {
        const CampaignEpisode ep =
            run_campaign_episode(c, o.scratch, ref, nullptr, run);
        if (ref.empty()) ref = ep.ledger;
        rep.absorb(ep);
        return Sample{ep.setup_s, ep.cells / ep.work_s, ep.cpu_s};
      },
      rep);
}

void campaign_traced(const Options& o, const Campaign& c, SpanLog& log,
                     Report& rep) {
  // Untraced reference episodes, then traced ones whose ledgers
  // (virtual stamps and KE bits of every member) must match.
  std::string ref;
  std::vector<double> rate_u, rate_t;
  double until = host_now_s() + 0.1 * o.seconds;
  for (int run = 0; run < 1 || host_now_s() < until; ++run) {
    const CampaignEpisode ep = run_campaign_episode(c, o.scratch, ref, nullptr, run);
    if (ref.empty()) ref = ep.ledger;
    rep.absorb(ep);
    rate_u.push_back(ep.cells / ep.work_s);
  }
  until = host_now_s() + 0.1 * o.seconds;
  for (int run = 1; run <= 1 || host_now_s() < until; ++run) {
    const CampaignEpisode ep = run_campaign_episode(c, o.scratch, ref, &log, run);
    rep.absorb(ep);
    rate_t.push_back(ep.cells / ep.work_s);
  }
  report_overhead(rate_u, rate_t);

  // The member probe: one clean member's machine and model on the
  // benchmark's own runtime, many short lifetimes back to back.
  std::string member_ref;
  std::vector<double> mu, mt;
  std::vector<GcmEpisode> traced;
  untraced_then_traced(c.member_setup, 0.1 * o.seconds, 10, log, rep,
                       member_ref, mu, mt, traced);
  traced_gcm_metrics(c.member_setup, traced, rep);

  // Packet-fault members on the same runtime: exact retransmit and CRC
  // counts, and their state must match the clean twin's bit for bit.
  double retransmits = 0, crc_rejects = 0;
  for (const Member& m : c.members) {
    if (!m.spec.faults.has_fates() || m.twin < 0) continue;
    GcmSpec s = c.member_setup;
    s.init_seed = m.spec.seed;
    s.faults = &m.spec.faults;
    const GcmEpisode faulted = run_gcm_episode(s, false, nullptr, 0);
    s.faults = nullptr;
    const GcmEpisode clean = run_gcm_episode(s, false, nullptr, 0);
    const auto state_part = [](const std::string& d) {
      return d.substr(0, d.find("clocks="));
    };
    rep.unit(faulted.ok && clean.ok &&
                 state_part(faulted.digest) == state_part(clean.digest),
             m.spec.name + ": packet faults changed the model state");
    retransmits += static_cast<double>(faulted.retransmits);
    crc_rejects += static_cast<double>(faulted.crc_rejects);
  }
  rep.add("comm.retransmits", retransmits, "count");
  rep.add("comm.crc_rejects", crc_rejects, "count");

  (void)layer_probes(o, c.member_setup, log, rep);
  not_measured(rep, kSplit);
  not_measured(rep, {{"gcm.coupler_ms", "ms"}});
  {
    SpanScope s(&log, "probe.ckpt", -1, 0, -1);
    const CkptProbe k = probe_ckpt(c.member_setup.components.front().cfg,
                                   o.seed, o.scratch + "/ckpt", 5);
    rep.add("gcm.ckpt.save_ms", k.save_ms.p50, "ms");
    rep.add("gcm.ckpt.load_ms", k.load_ms.p50, "ms");
    rep.add("gcm.ckpt.verify_ms", k.verify_ms.p50, "ms");
    rep.add("gcm.ckpt.bytes", k.bytes, "B");
    rep.unit(k.ok, "checkpoint probe: a load did not reproduce the saved tile");
  }
  SpanScope s(&log, "probe.farm", -1, 0, -1);
  const FarmProbe f = probe_farm(c.members, o.scratch + "/farm-probe");
  add_dist(rep, "farm.execute_ms", f.execute_ms, "ms");
  rep.add("farm.dispatch_overhead_ms", f.dispatch_ms.p50, "ms");
  std::printf("  farm dispatch: p50 %.4g ms per cache-served job (n=%zu "
              "drains)\n", f.dispatch_ms.p50, f.dispatch_ms.n);
  rep.add("farm.cache_hits", f.cache_hits, "count");
  rep.add("farm.steps_saved", f.steps_saved, "count");
  rep.add("gcm.recovery_host_ms", f.recovery_host_ms, "ms");
  rep.add("gcm.recovery_events", f.recovery_events, "count");
  rep.add("gcm.migrations", f.migrations, "count");
  rep.add("gcm.downgrades", f.downgrades, "count");
  for (const std::string& e : f.errors) rep.unit(false, "farm probe: " + e);
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  try {
    o = parse(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "hyades_perfbench: " << e.what()
              << "\nusage: hyades_perfbench --workload {coupled,tile,campaign} "
                 "--seed N --seconds S --trace {0,1} --scratch DIR "
                 "[--trace-out FILE]\n";
    return 2;
  }

  const unsigned nproc = std::thread::hardware_concurrency();
  const std::string build_type = PERFBENCH_BUILD_TYPE;
  const std::string san = sanitizer();
  const bool comparable = optimized() && san == "none";
  std::cout << "env: nproc=" << nproc << " compiler=\"" << __VERSION__
            << "\" build_type=" << build_type << " optimized="
            << (optimized() ? "yes" : "no") << " sanitizer=" << san
            << " comparable=" << (comparable ? "yes" : "no") << "\n";
  if (!comparable) {
    std::cerr << "hyades_perfbench: an unoptimized or sanitized build is not "
                 "comparable; refusing to report timings\n";
    return 3;
  }

  // Kill storms log [warn] lines; keep stderr writes out of the timings.
  hyades::set_log_level(hyades::LogLevel::kError);
  std::filesystem::create_directories(o.scratch);

  Report rep;
  SpanLog log;
  try {
    if (o.workload == "campaign") {
      const Campaign c = make_campaign(o.seed);
      std::cout << "workload campaign: " << c.members.size()
                << " queued members in 2 waves + 1 exhausted member, 16x8x4 "
                   "basin on 4x1 clusters, "
                << c.member_setup.steps << " steps each, seed " << o.seed
                << (o.trace ? ", traced" : "") << "\n";
      if (o.trace) {
        campaign_traced(o, c, log, rep);
      } else {
        campaign_end_to_end(o, c, rep);
      }
    } else {
      const GcmSpec spec =
          o.workload == "coupled" ? coupled_spec(o.seed) : tile_spec(o.seed);
      std::cout << "workload " << o.workload << ": " << describe(spec)
                << (o.trace ? ", traced" : "") << "\n";
      if (o.trace) {
        gcm_traced(o, spec, log, rep);
      } else {
        gcm_end_to_end(o, spec, rep);
      }
    }
  } catch (const std::exception& e) {
    std::cerr << "hyades_perfbench: " << e.what() << "\n";
    return 1;
  }

  if (o.trace) {
    std::printf("  self time by span:");
    for (const auto& [name, secs] : log.self_time_s()) {
      std::printf(" %s %.4gs", name.c_str(), secs);
    }
    std::printf("\n");
    if (!o.trace_out.empty()) {
      log.write(o.trace_out, "{\"workload\": \"" + o.workload +
                                 "\", \"seed\": " + std::to_string(o.seed) + "}");
      std::cout << "  spans written to " << o.trace_out << "\n";
    }
  }
  std::fflush(stdout);
  print_result(rep);
  return 0;
}
