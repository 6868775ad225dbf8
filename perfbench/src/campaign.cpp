#include "campaign.hpp"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "cluster/runtime.hpp"
#include "farm/executor.hpp"
#include "farm/farm.hpp"
#include "gcm/resilient.hpp"
#include "gcm/tile_ckpt.hpp"
#include "net/arctic_model.hpp"
#include "support/rng.hpp"

namespace perfbench {

using namespace hyades;

namespace {

using Key = std::pair<std::uint64_t, std::uint64_t>;

Key key_of(const farm::JobSpec& s) { return {s.config_hash(), s.seed}; }

std::string result_bits(const farm::JobRecord& r) {
  return hexfloat(r.result.kinetic_energy) + "/" +
         hexfloat(r.result.mean_theta);
}

// Every member's outcome and result bits, plus the virtual cost of
// each pool-executed member that completed.  A failed member's cost is
// left out: the virtual clock at which its last epoch aborts varies
// from run to run in the last microseconds.
std::string ledger_digest(const farm::Farm& f) {
  std::string d;
  for (const farm::JobRecord& r : f.jobs()) {
    d += r.spec.name + " " + farm::to_string(r.status) +
         (r.from_cache ? " cache " : " pool ") +
         std::to_string(r.result.steps_committed) + " " +
         std::to_string(r.result.migrations) + " " +
         std::to_string(r.result.downgrades) + " " + result_bits(r);
    if (r.status == farm::JobStatus::kCompleted && !r.from_cache) {
      d += " busy=" + hexfloat(r.result.busy_us);
    }
    d += "\n";
  }
  return d;
}

double member_cells(const farm::JobSpec& s) {
  return static_cast<double>(s.config.nx) * s.config.ny * s.config.nz *
         s.steps;
}

// The light 16x8x4 closed-basin ocean of examples/ensemble_farm on 2x2
// tiles: a member costs milliseconds of host time, so a campaign is
// dominated by runtime lifetimes, recovery and farm dispatch.
gcm::ModelConfig basin_config() {
  gcm::ModelConfig c;
  c.isomorph = gcm::Isomorph::kOcean;
  c.nx = 16;
  c.ny = 8;
  c.nz = 4;
  c.px = 2;
  c.py = 2;
  c.dt = 400.0;
  c.total_depth = 4000.0;
  c.visc_h = 1.0e6;
  c.diff_h = 1.0e5;
  c.topography = gcm::ModelConfig::Topography::kBasin;
  c.wind_tau0 = 0.15;
  c.validate();
  return c;
}

farm::JobSpec clean_member(const std::string& name, std::uint64_t seed,
                           int steps) {
  farm::JobSpec s;
  s.name = name;
  s.seed = seed;
  s.steps = steps;
  s.machine = {4, 1};
  s.config = basin_config();
  s.ckpt_every = 2;
  s.max_restarts = 3;
  return s;
}

Member twin_of(const std::vector<Member>& q, int twin, const std::string& name) {
  Member m;
  m.spec = q[static_cast<std::size_t>(twin)].spec;
  m.spec.name = name;
  m.twin = twin;
  return m;
}

double clean_busy_us(const farm::JobSpec& s) {
  const farm::ExecutionOutcome out = farm::execute_job(s, "");
  if (!out.ok) {
    throw std::runtime_error("campaign calibration member failed: " +
                             out.error);
  }
  return out.result.busy_us;
}

// run_resilient on a member's machine, as farm::execute_job does.
gcm::ResilientStats resilient_run(
    const farm::JobSpec& s, const std::string& prefix,
    std::function<void(int, const cluster::NodeDownVerdict&)> pre_recovery) {
  const net::ArcticModel arctic(s.machine.smp_count);
  cluster::MachineConfig mc;
  mc.smp_count = s.machine.smp_count;
  mc.procs_per_smp = s.machine.procs_per_smp;
  mc.interconnect = &arctic;
  mc.faults = &s.faults;
  cluster::Runtime rt(mc);
  gcm::ResilientConfig rcfg;
  rcfg.ckpt_prefix = prefix;
  rcfg.ckpt_every = s.ckpt_every;
  rcfg.max_restarts = s.max_restarts;
  rcfg.init_seed = s.seed;
  rcfg.recovery = s.recovery;
  rcfg.pre_recovery = std::move(pre_recovery);
  struct Cleanup {
    const std::string& prefix;
    int nranks;
    ~Cleanup() { gcm::tile_ckpt::remove_slots(prefix, nranks); }
  } cleanup{prefix, mc.nranks()};
  return gcm::run_resilient(rt, s.config, s.steps, rcfg);
}

// Flip the last payload byte of a committed checkpoint: post-commit bit
// rot that only deep verification detects.
void rot_payload(const std::string& path) {
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  if (!f.good()) return;
  f.seekg(0, std::ios::end);
  const std::streamoff size = f.tellg();
  if (size <= 0) return;
  f.seekg(size - 1);
  char byte = 0;
  f.read(&byte, 1);
  byte = static_cast<char>(byte ^ 0x5a);
  f.seekp(size - 1);
  f.write(&byte, 1);
}

// The exhausted member must end in a typed RecoveryExhausted whose
// ladder history explains every failed rung.
bool run_exhausted(const farm::JobSpec& s, const std::string& prefix,
                   std::string* why) {
  const int victim = s.faults.node_kills.front().rank;
  const auto rot_both_slots = [&](int epoch, const cluster::NodeDownVerdict&) {
    if (epoch != 0) return;
    for (int slot = 0; slot < 2; ++slot) {
      const std::string path = gcm::tile_ckpt::rank_path(
          gcm::tile_ckpt::slot_prefix(prefix, slot), victim);
      if (std::filesystem::exists(path)) rot_payload(path);
    }
  };
  try {
    (void)resilient_run(s, prefix, rot_both_slots);
    *why = "completed, but both durable slots of its victim were damaged";
    return false;
  } catch (const gcm::RecoveryExhausted& e) {
    bool explained = e.history.size() >= 3;
    for (const gcm::RungAttempt& a : e.history) {
      explained = explained && !a.ok && !a.reason.empty();
    }
    if (!explained) *why = "RecoveryExhausted without a full ladder history";
    return explained;
  } catch (const gcm::RecoveryError& e) {
    *why = std::string("wrong typed error: ") + e.what();
  } catch (const std::exception& e) {
    *why = std::string("untyped escape: ") + e.what();
  }
  return false;
}

std::string first_difference(const std::string& want, const std::string& got) {
  std::istringstream a(want), b(got);
  std::string la, lb;
  while (true) {
    const bool more_a = static_cast<bool>(std::getline(a, la));
    const bool more_b = static_cast<bool>(std::getline(b, lb));
    if (!more_a && !more_b) return "";
    if (!more_a || !more_b || la != lb) {
      return "want '" + (more_a ? la : "") + "', got '" + (more_b ? lb : "") +
             "'";
    }
  }
}

// Cache-served drains timed for the dispatch cost.
constexpr int kDispatchRounds = 31;

int max_wave(const std::vector<Member>& q) {
  int w = 1;
  for (const Member& m : q) w = std::max(w, m.wave);
  return w;
}

}  // namespace

Campaign make_campaign(std::uint64_t seed) {
  SplitMix64 rng(seed * 0x9e3779b97f4a7c15ull + 0xca3fa16eull);
  const int steps = 8;
  std::set<std::uint64_t> used;
  const auto fresh_seed = [&] {
    std::uint64_t s = 0;
    do {
      s = 1 + rng.next_below(1u << 20);
    } while (!used.insert(s).second);
    return s;
  };
  const auto any_rank = [&] { return static_cast<int>(rng.next_below(4)); };
  const auto other_rank = [&](int a) {
    return (a + 1 + static_cast<int>(rng.next_below(3))) % 4;
  };

  Campaign c;
  std::vector<Member>& q = c.members;
  for (int i = 0; i < 4; ++i) {
    q.push_back({clean_member("clean-" + std::to_string(i), fresh_seed(), steps)});
  }
  const double busy = clean_busy_us(q[0].spec);
  const auto at = [&](double lo, double hi) { return busy * rng.next_in(lo, hi); };

  // Packet faults: CRC rejects and drops, recovered by retransmission.
  for (int t = 0; t < 2; ++t) {
    Member m = twin_of(q, t, "packet-" + std::to_string(t));
    m.spec.faults.seed = 1 + rng.next_below(1u << 30);
    m.spec.faults.corrupt_prob = rng.next_in(0.02, 0.06);
    m.spec.faults.drop_prob = rng.next_in(0.005, 0.02);
    q.push_back(m);
  }
  // Node kills under both recovery modes.
  {
    Member m = twin_of(q, 2, "kill-restart");
    m.spec.recovery = gcm::RecoveryMode::kEpochRestart;
    m.spec.faults.node_kills.push_back({any_rank(), at(0.3, 0.7), 0});
    q.push_back(m);
  }
  const int kill_migrate = static_cast<int>(q.size());
  {
    Member m = twin_of(q, 3, "kill-migrate");
    m.spec.recovery = gcm::RecoveryMode::kMigrate;
    m.spec.faults.node_kills.push_back({any_rank(), at(0.3, 0.7), 0});
    q.push_back(m);
  }
  {
    // Two boards down inside one heartbeat window: one coalesced recovery.
    Member m = twin_of(q, 0, "kill-two-boards");
    m.spec.recovery = gcm::RecoveryMode::kMigrate;
    const int a = any_rank();
    const double t = at(0.4, 0.7);
    m.spec.faults.node_kills.push_back({a, t, 0});
    m.spec.faults.node_kills.push_back({other_rank(a), t + 100.0, 0});
    q.push_back(m);
  }
  {
    // A second board dies while the first recovery's epoch runs.
    Member m = twin_of(q, 1, "kill-in-recovery");
    m.spec.recovery = gcm::RecoveryMode::kMigrate;
    const int a = any_rank();
    m.spec.faults.node_kills.push_back({a, busy * 0.5, 0});
    m.spec.faults.node_kills.push_back({other_rank(a), busy * 0.7, 1});
    q.push_back(m);
  }
  {
    // A board that dies in every epoch exhausts the restart budget.
    Member m = twin_of(q, 2, "doomed");
    m.expect_fail = true;
    m.spec.max_restarts = 1;
    const int a = any_rank();
    const double t = at(0.2, 0.6);
    for (int epoch = 0; epoch <= m.spec.max_restarts + 1; ++epoch) {
      m.spec.faults.node_kills.push_back({a, t, epoch});
    }
    q.push_back(m);
  }

  // Wave 2: duplicate resubmits served by the cache, one fresh member,
  // and a duplicate of a surviving faulted member (cached as well).
  for (int i = 0; i < 4; ++i) {
    Member m = twin_of(q, i, "dup-clean-" + std::to_string(i));
    m.twin = -1;
    m.wave = 2;
    q.push_back(m);
  }
  {
    Member m{clean_member("clean-4", fresh_seed(), steps)};
    m.wave = 2;
    q.push_back(m);
  }
  {
    Member m = twin_of(q, kill_migrate, "dup-kill-migrate");
    m.twin = q[kill_migrate].twin;
    m.wave = 2;
    q.push_back(m);
  }

  c.exhausted = twin_of(q, 3, "exhausted").spec;
  c.exhausted.recovery = gcm::RecoveryMode::kMigrate;
  c.exhausted.faults.node_kills.push_back({any_rank(), busy * 0.75, 0});

  c.member_setup.smp_count = 4;
  c.member_setup.procs_per_smp = 1;
  c.member_setup.components = {{basin_config(), 0, 4}};
  c.member_setup.steps = steps;
  c.member_setup.init_seed = q[0].spec.seed;
  return c;
}

double campaign_setup_once(const Campaign& c, const std::string& scratch) {
  const double t0 = host_now_s();
  farm::FarmConfig fc;
  fc.clusters = 2;
  fc.scratch_dir = scratch + "/setup";
  farm::Farm f(fc);
  for (const Member& m : c.members) {
    if (m.wave == 1) f.submit(m.spec);
  }
  return host_now_s() - t0;
}

CampaignEpisode run_campaign_episode(const Campaign& c,
                                     const std::string& scratch,
                                     const std::string& ref_ledger,
                                     SpanLog* log, int run_id) {
  CampaignEpisode ep;
  const std::string dir = scratch + "/campaign-" + std::to_string(run_id);
  std::vector<int> ids(c.members.size(), -1);
  std::optional<farm::Farm> f;
  bool exhausted_ok = false;
  std::string exhausted_why;
  {
    SpanScope es(log, "episode", -1, run_id, -1);
    const double t0 = host_now_s();
    {
      SpanScope ss(log, "setup", es.id(), run_id, -1);
      farm::FarmConfig fc;
      fc.clusters = 2;
      fc.scratch_dir = dir + "/farm";
      f.emplace(fc);
      for (std::size_t i = 0; i < c.members.size(); ++i) {
        if (c.members[i].wave == 1) ids[i] = f->submit(c.members[i].spec);
      }
    }
    const double t1 = host_now_s();
    const Usage u1 = usage_self();
    for (int w = 1; w <= max_wave(c.members); ++w) {
      for (std::size_t i = 0; i < c.members.size(); ++i) {
        if (w > 1 && c.members[i].wave == w) {
          ids[i] = f->submit(c.members[i].spec);
        }
      }
      SpanScope ds(log, "drain", es.id(), run_id, -1);
      f->run_until_drained();
    }
    {
      SpanScope xs(log, "exhausted_member", es.id(), run_id, -1);
      exhausted_ok = run_exhausted(c.exhausted, dir + "/exhausted",
                                   &exhausted_why);
    }
    ep.setup_s = t1 - t0;
    ep.work_s = host_now_s() - t1;
    ep.cpu_s = (usage_self() - u1).cpu_s();
  }

  // Checks: untimed.
  const std::vector<farm::JobRecord>& jobs = f->jobs();
  for (std::size_t i = 0; i < c.members.size(); ++i) {
    const Member& m = c.members[i];
    const farm::JobRecord& r = jobs[static_cast<std::size_t>(ids[i])];
    std::string why;
    if (m.expect_fail) {
      if (r.status != farm::JobStatus::kFailed ||
          r.error.find("giving up after") == std::string::npos) {
        why = std::string("expected a typed RestartExhausted, got ") +
              farm::to_string(r.status) + " " + r.error;
      }
    } else if (r.status != farm::JobStatus::kCompleted) {
      why = std::string(farm::to_string(r.status)) + ": " + r.error;
    } else {
      if (m.twin >= 0) {
        const farm::JobRecord& t =
            jobs[static_cast<std::size_t>(ids[static_cast<std::size_t>(m.twin)])];
        if (t.status != farm::JobStatus::kCompleted ||
            result_bits(t) != result_bits(r)) {
          why = "survived its faults but differs from its clean twin";
        }
      }
      if (why.empty()) ep.cells += member_cells(m.spec);
    }
    ++ep.attempted;
    if (!why.empty()) {
      ++ep.failed;
      ep.errors.push_back(m.spec.name + ": " + why);
    }
  }
  ++ep.attempted;
  if (!exhausted_ok) {
    ++ep.failed;
    ep.errors.push_back("exhausted: " + exhausted_why);
  }
  ep.ledger = ledger_digest(*f);
  if (!ref_ledger.empty()) {
    ++ep.attempted;
    if (ep.ledger != ref_ledger) {
      ++ep.failed;
      ep.errors.push_back("ledger differs from the reference episode: " +
                          first_difference(ref_ledger, ep.ledger));
    }
  }
  std::filesystem::remove_all(dir);
  return ep;
}

FarmProbe probe_farm(const std::vector<Member>& queue,
                     const std::string& scratch) {
  FarmProbe p;
  std::filesystem::create_directories(scratch);
  std::set<Key> cached;
  std::map<std::size_t, double> exec_ms;
  std::vector<double> samples;
  for (std::size_t i = 0; i < queue.size(); ++i) {
    const farm::JobSpec& s = queue[i].spec;
    if (cached.count(key_of(s)) != 0) continue;  // the farm's cache serves it
    const double t = host_now_s();
    const farm::ExecutionOutcome out =
        farm::execute_job(s, scratch + "/exec-job" + std::to_string(i));
    exec_ms[i] = (host_now_s() - t) * 1e3;
    samples.push_back(exec_ms[i]);
    if (out.ok) cached.insert(key_of(s));
    if (out.ok == queue[i].expect_fail) {
      p.errors.push_back(s.name + ": unexpected outcome of execute_job: " +
                         (out.ok ? "completed" : out.error));
    }
  }
  p.execute_ms = summarize(samples);

  farm::FarmConfig fc;
  fc.clusters = 2;
  fc.scratch_dir = scratch + "/drain";
  farm::Farm f(fc);
  std::vector<int> ids(queue.size(), -1);
  for (int w = 1; w <= max_wave(queue); ++w) {
    for (std::size_t i = 0; i < queue.size(); ++i) {
      if (queue[i].wave == w) ids[i] = f.submit(queue[i].spec);
    }
    f.run_until_drained();
  }
  const farm::Farm::CampaignSummary sum = f.summary();
  p.cache_hits = sum.cache_hits;
  p.steps_saved = static_cast<double>(sum.steps_saved);

  std::vector<double> recovery_ms;
  for (std::size_t i = 0; i < queue.size(); ++i) {
    const Member& m = queue[i];
    if (!m.spec.faults.has_node_kills() || m.expect_fail || m.twin < 0 ||
        exec_ms.count(i) == 0 || f.job(ids[i]).from_cache) {
      continue;
    }
    recovery_ms.push_back(exec_ms[i] -
                          exec_ms[static_cast<std::size_t>(m.twin)]);
    const gcm::ResilientStats st = resilient_run(
        m.spec, scratch + "/resilient-job" + std::to_string(i), nullptr);
    int downgrades = 0;
    for (const gcm::RecoveryEvent& ev : st.ladder) downgrades += ev.downgrades();
    p.recovery_events += static_cast<double>(st.ladder.size());
    p.migrations += st.migrations;
    p.downgrades += downgrades;
    const farm::JobResult& r =
        f.job(ids[i]).result;
    if (r.migrations != st.migrations || r.downgrades != downgrades) {
      p.errors.push_back(m.spec.name +
                         ": recovery counts differ from the farm ledger");
    }
  }
  p.recovery_host_ms = median(recovery_ms);

  // Dispatch: every completed member resubmitted to the same farm is
  // served from its cache, so the drain wall (with nothing executed) is
  // the farm's own cost per job: hashing, cache lookup, slot choice and
  // the ledger entry.
  std::vector<farm::JobSpec> done;
  for (std::size_t i = 0; i < queue.size(); ++i) {
    if (f.job(ids[i]).status == farm::JobStatus::kCompleted) {
      done.push_back(queue[i].spec);
    }
  }
  std::vector<double> dispatch_ms;
  for (int round = 0; round < kDispatchRounds && !done.empty(); ++round) {
    const int first = f.submit(done.front());
    for (std::size_t i = 1; i < done.size(); ++i) f.submit(done[i]);
    const double t = host_now_s();
    f.run_until_drained();
    dispatch_ms.push_back((host_now_s() - t) * 1e3 /
                          static_cast<double>(done.size()));
    for (int id = first; id < first + static_cast<int>(done.size()); ++id) {
      if (!f.job(id).from_cache) {
        p.errors.push_back(f.job(id).spec.name +
                           ": a resubmitted completed member was not served "
                           "from the cache");
      }
    }
  }
  p.dispatch_ms = summarize(dispatch_ms);
  std::filesystem::remove_all(scratch + "/drain");
  return p;
}

}  // namespace perfbench
