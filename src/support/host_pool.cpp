#include "support/host_pool.hpp"

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <system_error>
#include <utility>

namespace hyades::support {

namespace {

bool set_this_thread(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int cpu : cpus) CPU_SET(static_cast<std::size_t>(cpu), &set);
  return pthread_setaffinity_np(pthread_self(), sizeof set, &set) == 0;
}

}  // namespace

std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (pthread_getaffinity_np(pthread_self(), sizeof set, &set) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(static_cast<std::size_t>(cpu), &set)) cpus.push_back(cpu);
    }
  }
  if (cpus.empty()) {  // the query failed: assume every online CPU
    const int online =
        std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
    for (int cpu = 0; cpu < online; ++cpu) cpus.push_back(cpu);
  }
  return cpus;
}

CpuConfinement::CpuConfinement(const std::vector<int>& cpus) {
  std::vector<int> was = allowed_cpus();
  if (set_this_thread(cpus)) saved_ = std::move(was);
}

CpuConfinement::~CpuConfinement() {
  if (!saved_.empty()) (void)set_this_thread(saved_);
}

HostPool::HostPool(int helpers) {
  helpers_.reserve(static_cast<std::size_t>(std::max(helpers, 0)));
  for (int h = 0; h < helpers; ++h) {
    try {
      helpers_.emplace_back(
          [this, h] { helper_loop(static_cast<std::size_t>(h) + 1); });
    } catch (const std::system_error&) {
      break;  // no more host threads: the started ones take the work
    }
  }
}

HostPool::~HostPool() {
  {
    MutexLock lock(mu_);
    stop_ = true;
  }
  wake_.notify_all();
  for (std::thread& t : helpers_) t.join();
}

void HostPool::run_region(std::size_t n, TaskFn fn, const void* task) {
  const Region r{fn, task, n};
  {
    MutexLock lock(mu_);
    region_ = r;
    error_ = nullptr;
    error_index_ = n;
    if (n > capacity_) {
      claimed_ = std::make_unique<std::atomic<bool>[]>(n);
      capacity_ = n;
    }
    for (std::size_t i = 0; i < n; ++i) {
      claimed_[i].store(false, std::memory_order_relaxed);
    }
    ++generation_;
  }
  if (n > 1 && !helpers_.empty()) wake_.notify_all();
  claim(r, 0);
  std::exception_ptr error;
  {
    MutexLock lock(mu_);
    // Every index is claimed, and a helper leaves only after finishing
    // its claims; a helper not yet inside sees the region closed.
    done_.wait(mu_, [this] {
      mu_.assert_held();
      return busy_ == 0;
    });
    region_ = Region{};
    error = std::move(error_);
  }
  if (error) std::rethrow_exception(error);
}

void HostPool::helper_loop(std::size_t self) {
  std::uint64_t seen = 0;
  for (;;) {
    Region r;
    {
      MutexLock lock(mu_);
      wake_.wait(mu_, [&] {
        mu_.assert_held();
        return stop_ || generation_ != seen;
      });
      if (stop_) return;
      seen = generation_;
      if (region_.fn == nullptr) continue;  // closed before this woke
      r = region_;
      ++busy_;
    }
    claim(r, self);
    bool last = false;
    {
      MutexLock lock(mu_);
      last = --busy_ == 0;
    }
    if (last) done_.notify_one();
  }
}

void HostPool::claim(const Region& r, std::size_t self) {
  for (std::size_t k = 0; k < r.n; ++k) {
    const std::size_t i = (self + k) % r.n;
    if (claimed_[i].exchange(true, std::memory_order_relaxed)) continue;
    try {
      r.fn(r.task, i);
      // lint:allow(catch-all): task trampoline -- the lowest index's
      // exception is rethrown on the calling thread by run_region.
    } catch (...) {
      MutexLock lock(mu_);
      if (i < error_index_) {
        error_index_ = i;
        error_ = std::current_exception();
      }
    }
  }
}

}  // namespace hyades::support
