#include "farm/farm.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <system_error>
#include <utility>

#include "farm/executor.hpp"
#include "support/host_pool.hpp"
#include "support/sync.hpp"
#include "support/table.hpp"

namespace hyades::farm {

namespace {

std::string hexfloat(double v) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

// The lanes of one drain.  With L > 1 lanes, lane k owns the caller's
// allowed CPUs j == k (mod L), and a member runs on a lane it claims, its
// thread confined to that lane's CPUs: a lane of one CPU runs the
// member's ranks as fibers (cluster::Runtime::run), and rank threads the
// member starts inherit the lane's mask.  At most L members run at once,
// so a claim always finds a free lane.  With one lane nothing is
// confined.
class Lanes {
 public:
  Lanes(const std::vector<int>& cpus, std::size_t count)
      : cpus_(count > 1 ? count : 0), busy_(cpus_.size(), 0) {
    for (std::size_t j = 0; j < cpus.size() && !cpus_.empty(); ++j) {
      cpus_[j % cpus_.size()].push_back(cpus[j]);
    }
  }

  // Holds a free lane, with the calling thread confined to it, while it
  // lives.
  class Claim {
   public:
    explicit Claim(Lanes& lanes) : lanes_(lanes) {
      if (lanes_.cpus_.empty()) return;
      {
        support::MutexLock lock(lanes_.mu_);
        while (lanes_.busy_[k_] != 0) ++k_;
        lanes_.busy_[k_] = 1;
      }
      confined_.emplace(lanes_.cpus_[k_]);
    }
    ~Claim() {
      if (lanes_.cpus_.empty()) return;
      support::MutexLock lock(lanes_.mu_);
      lanes_.busy_[k_] = 0;
    }
    Claim(const Claim&) = delete;
    Claim& operator=(const Claim&) = delete;

   private:
    Lanes& lanes_;
    std::size_t k_ = 0;
    std::optional<support::CpuConfinement> confined_;
  };

 private:
  std::vector<std::vector<int>> cpus_;  // by lane; empty with one lane
  support::Mutex mu_;
  std::vector<char> busy_ GUARDED_BY(mu_);
};

}  // namespace

// A key's spec and scratch prefix (its first job's), and then its
// outcome, or the exception execute_job threw for it (a caller bug),
// which the replay rethrows on the calling thread.
struct Farm::Execution {
  const JobSpec* spec = nullptr;
  std::string scratch_prefix;
  ExecutionOutcome out;
  std::exception_ptr error;
};

Farm::Farm(FarmConfig cfg) : cfg_(cfg), queue_(cfg.max_pending) {
  if (cfg_.clusters < 1) {
    throw std::invalid_argument("Farm: pool needs at least one cluster");
  }
  pool_free_at_.assign(static_cast<std::size_t>(cfg_.clusters), 0.0);
}

Farm::~Farm() {
  if (cfg_.scratch_dir.empty() && !scratch_dir_.empty()) {
    std::error_code ec;  // best effort: a destructor must not throw
    std::filesystem::remove_all(scratch_dir_, ec);
  }
}

int Farm::submit(JobSpec spec) {
  const int id = static_cast<int>(jobs_.size());
  JobRecord rec;
  rec.id = id;
  rec.spec = std::move(spec);
  rec.submit_us = now_;
  if (!queue_.push(id, rec.spec.priority)) {
    rec.status = JobStatus::kRejected;
    rec.error = "admission: queue full (" +
                std::to_string(queue_.max_pending()) + " pending)";
  }
  jobs_.push_back(std::move(rec));
  return id;
}

void Farm::run_until_drained() {
  // Plan on a copy of the queue: each job's key in dispatch order, and
  // the distinct keys the cache cannot serve, in first-occurrence order.
  std::vector<std::pair<ResultCache::Key, const Execution*>> plan;
  plan.reserve(queue_.pending());
  std::map<ResultCache::Key, Execution> runs;
  std::vector<Execution*> todo;
  JobQueue order = queue_;
  for (int id = order.pop(); id >= 0; id = order.pop()) {
    const JobSpec& spec = jobs_[static_cast<std::size_t>(id)].spec;
    const ResultCache::Key key{spec.config_hash(), spec.seed};
    Execution* run = nullptr;
    if (!cache_.contains(key)) {
      const auto [it, fresh] = runs.try_emplace(key);
      run = &it->second;
      if (fresh) {
        run->spec = &spec;
        run->scratch_prefix = scratch_prefix(id);
        todo.push_back(run);
      }
    }
    plan.emplace_back(key, run);
  }

  // The first drain with two keys to share starts the host pool, one
  // thread per CPU the caller may use, and a drain on another number of
  // CPUs starts it afresh; until then the calling thread runs the keys.
  const std::vector<int> cpus = support::allowed_cpus();
  const int threads = static_cast<int>(cpus.size());
  if (todo.size() > 1 && (!pool_ || pool_->threads() != threads)) {
    pool_ = std::make_unique<support::HostPool>(threads - 1);
  }
  Lanes lanes(cpus, pool_ ? std::min(static_cast<std::size_t>(
                                         pool_->threads()),
                                     todo.size())
                          : 1);
  const auto execute = [&todo, &lanes](std::size_t i) {
    Execution& run = *todo[i];
    const Lanes::Claim lane(lanes);
    try {
      run.out = execute_job(*run.spec, run.scratch_prefix);
      // lint:allow(catch-all): worker trampoline -- the exception is
      // rethrown on the calling thread when the replay reaches the job.
    } catch (...) {
      run.error = std::current_exception();
    }
  };
  if (pool_) {
    pool_->run(todo.size(), execute);
  } else {
    for (std::size_t i = 0; i < todo.size(); ++i) execute(i);
  }

  // Replay: queue_ pops in the order its copy did above.
  std::size_t next = 0;
  for (int id = queue_.pop(); id >= 0; id = queue_.pop(), ++next) {
    dispatch(jobs_[static_cast<std::size_t>(id)], plan[next].first,
             plan[next].second);
  }
}

void Farm::dispatch(JobRecord& rec, const ResultCache::Key& key,
                    const Execution* run) {
  if (const JobResult* hit = cache_.lookup(key)) {
    // Dedup: identical (config, seed) was already computed, and runs
    // are bit-deterministic, so the cached diagnostics ARE the result.
    // Served instantly at the current job clock for zero steps.
    rec.status = JobStatus::kCompleted;
    rec.from_cache = true;
    rec.start_us = rec.finish_us = now_;
    rec.result.kinetic_energy = hit->kinetic_energy;
    rec.result.mean_theta = hit->mean_theta;
    return;
  }

  // A miss means the cache did not hold the key when the drain was
  // planned, so the key has an execution.  A failed run is never
  // inserted: a duplicate of a failed member misses again and reuses the
  // same outcome.
  if (run->error) std::rethrow_exception(run->error);
  const ExecutionOutcome& out = run->out;

  // Earliest-free pool slot, lowest id on ties: deterministic.
  std::size_t slot = 0;
  for (std::size_t c = 1; c < pool_free_at_.size(); ++c) {
    if (pool_free_at_[c] < pool_free_at_[slot]) slot = c;
  }

  rec.cluster = static_cast<int>(slot);
  rec.start_us = std::max(pool_free_at_[slot], rec.submit_us);
  rec.finish_us = rec.start_us + out.result.busy_us;
  pool_free_at_[slot] = rec.finish_us;
  now_ = std::max(now_, rec.finish_us);
  rec.result = out.result;
  if (out.ok) {
    rec.status = JobStatus::kCompleted;
    cache_.insert(key, rec.result);
  } else {
    rec.status = JobStatus::kFailed;
    rec.error = out.error;
  }
}

std::string Farm::scratch_prefix(int job_id) {
  if (scratch_dir_.empty()) {
    if (cfg_.scratch_dir.empty()) {
      // Every Farm numbers its jobs from 0, so a shared default would let
      // two farms overwrite each other's checkpoints.
      std::string dir =
          (std::filesystem::temp_directory_path() / "hyades_farm.XXXXXX")
              .string();
      if (::mkdtemp(dir.data()) == nullptr) {
        throw std::system_error(errno, std::generic_category(),
                                "Farm: cannot create " + dir);
      }
      scratch_dir_ = std::move(dir);
    } else {
      std::filesystem::create_directories(cfg_.scratch_dir);
      scratch_dir_ = cfg_.scratch_dir;
    }
  }
  return scratch_dir_ + "/job" + std::to_string(job_id);
}

const JobRecord& Farm::job(int id) const {
  if (id < 0 || static_cast<std::size_t>(id) >= jobs_.size()) {
    throw std::out_of_range("Farm::job: unknown id " + std::to_string(id));
  }
  return jobs_[static_cast<std::size_t>(id)];
}

Farm::CampaignSummary Farm::summary() const {
  CampaignSummary s;
  s.submitted = static_cast<int>(jobs_.size());
  for (const JobRecord& r : jobs_) {
    switch (r.status) {
      case JobStatus::kCompleted:
        ++s.completed;
        if (r.from_cache) ++s.cache_hits;
        break;
      case JobStatus::kFailed: ++s.failed; break;
      case JobStatus::kRejected: ++s.rejected; break;
      case JobStatus::kQueued: break;
    }
    if (r.from_cache) {
      s.steps_saved += r.spec.steps;
    } else if (r.status != JobStatus::kRejected) {
      s.steps_committed += r.result.steps_committed;
      s.busy_us += r.result.busy_us;
      s.retransmits += r.result.retransmits;
      s.restarts += r.result.restarts;
      s.migrations += r.result.migrations;
      s.rebalances += r.result.rebalances;
      s.downgrades += r.result.downgrades;
    }
    s.makespan_us = std::max(s.makespan_us, r.finish_us);
  }
  return s;
}

std::string Farm::format_summary() const {
  std::ostringstream os;
  Table t({"job", "name", "prio", "status", "served", "cluster",
           "start (ms)", "finish (ms)", "steps", "recovery", "migr",
           "downgr", "KE (J, hex)"});
  for (const JobRecord& r : jobs_) {
    const bool ran = r.status == JobStatus::kCompleted ||
                     r.status == JobStatus::kFailed;
    // Node-kill members record how their cluster recovers; everything
    // else has no recovery mode to speak of.
    const bool resilient = r.spec.faults.has_node_kills();
    t.add_row({std::to_string(r.id), r.spec.name,
               std::to_string(r.spec.priority), to_string(r.status),
               r.from_cache ? "cache" : (ran ? "pool" : "-"),
               r.cluster >= 0 ? std::to_string(r.cluster) : "-",
               ran ? Table::fmt(r.start_us / 1000.0, 3) : "-",
               ran ? Table::fmt(r.finish_us / 1000.0, 3) : "-",
               std::to_string(r.result.steps_committed),
               resilient
                   ? (r.spec.recovery == gcm::RecoveryMode::kMigrate
                          ? "migrate"
                          : "restart")
                   : "-",
               resilient ? std::to_string(r.result.migrations) : "-",
               resilient ? std::to_string(r.result.downgrades) : "-",
               r.status == JobStatus::kCompleted
                   ? hexfloat(r.result.kinetic_energy)
                   : "-"});
  }
  t.print(os);
  const CampaignSummary s = summary();
  os << "campaign: " << s.submitted << " submitted, " << s.completed
     << " completed (" << s.cache_hits << " from cache), " << s.failed
     << " failed, " << s.rejected << " rejected\n"
     << "steps: " << s.steps_committed << " simulated, " << s.steps_saved
     << " saved by dedup; cluster busy "
     << Table::fmt(s.busy_us / 1000.0, 3) << " ms; makespan "
     << Table::fmt(s.makespan_us / 1000.0, 3) << " ms\n"
     << "recovery: " << s.retransmits << " retransmits, " << s.restarts
     << " restarts, " << s.migrations << " migrations, " << s.rebalances
     << " rebalances, " << s.downgrades << " ladder downgrades\n";
  return os.str();
}

}  // namespace hyades::farm
