// A persistent fork-join pool of host threads.
//
// A region runs task(0) .. task(n - 1) on the calling thread and the
// pool's helpers, each index exactly once, and returns when every task
// has finished.  Thread t of the pool (the caller is thread 0) claims
// index t first and then the unclaimed ones after it, wrapping around:
// a region of one task per thread keeps each task on the same thread
// from region to region, with its data in that core's cache, and a
// thread that wakes late has its task taken by one that is done.
// Between regions the helpers sleep on a condition variable: they never
// spin, so an idle pool costs no CPU, even when every core is busy with
// other threads.
//
// A task that throws is caught on the thread that ran it.  Once every
// task of the region has finished, the exception of the lowest throwing
// index is rethrown on the calling thread.  Helpers touch nothing but
// the pool outside a region, and the destructor joins them.  One thread
// at a time may run regions on a pool.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <memory>
#include <thread>
#include <vector>

#include "support/sync.hpp"
#include "support/thread_annotations.hpp"

namespace hyades::support {

// The CPUs the calling thread may run on (its sched_getaffinity mask),
// in ascending order and never empty.  Unlike
// std::thread::hardware_concurrency(), which counts the online CPUs, it
// sees `taskset` and cpusets.  Asked afresh at each call: a thread's
// mask can change under it.
std::vector<int> allowed_cpus();

// Confines the calling thread to `cpus` while the object lives, then
// gives it back the mask it had, also when the scope unwinds.  Threads
// it starts meanwhile inherit the confined mask.  A mask the host
// refuses leaves the thread as it was.
class CpuConfinement {
 public:
  explicit CpuConfinement(const std::vector<int>& cpus);
  ~CpuConfinement();
  CpuConfinement(const CpuConfinement&) = delete;
  CpuConfinement& operator=(const CpuConfinement&) = delete;

 private:
  std::vector<int> saved_;  // empty: the thread was not confined
};

class HostPool {
 public:
  // Starts `helpers` threads, none when helpers <= 0.  If the host
  // cannot start one, the pool runs on the threads it has.
  explicit HostPool(int helpers);
  ~HostPool();
  HostPool(const HostPool&) = delete;
  HostPool& operator=(const HostPool&) = delete;

  // Threads a region runs on: the helpers plus the calling thread.
  [[nodiscard]] int threads() const {
    return static_cast<int>(helpers_.size()) + 1;
  }

  // One region: task(i) for every i in [0, n), as described above.
  template <typename Task>
  void run(std::size_t n, const Task& task) {
    run_region(
        n,
        [](const void* t, std::size_t i) {
          (*static_cast<const Task*>(t))(i);
        },
        &task);
  }

 private:
  using TaskFn = void (*)(const void*, std::size_t);
  struct Region {
    TaskFn fn = nullptr;  // null: no region open
    const void* task = nullptr;
    std::size_t n = 0;
  };

  void run_region(std::size_t n, TaskFn fn, const void* task);
  void helper_loop(std::size_t self);
  // Runs the unclaimed indices of `r`, starting from index `self`.
  void claim(const Region& r, std::size_t self);

  Mutex mu_;
  CondVar wake_;  // helpers: a region opened, or the pool is stopping
  CondVar done_;  // caller: the last helper left the region
  Region region_ GUARDED_BY(mu_);
  std::uint64_t generation_ GUARDED_BY(mu_) = 0;  // regions opened
  int busy_ GUARDED_BY(mu_) = 0;  // helpers inside the open region
  bool stop_ GUARDED_BY(mu_) = false;
  std::exception_ptr error_ GUARDED_BY(mu_);
  std::size_t error_index_ GUARDED_BY(mu_) = 0;
  // One claim flag per index of the open region, `capacity_` of them.
  std::unique_ptr<std::atomic<bool>[]> claimed_;
  std::size_t capacity_ = 0;
  std::vector<std::thread> helpers_;
};

}  // namespace hyades::support
