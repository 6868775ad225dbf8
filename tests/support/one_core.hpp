// Staging thread interleavings on one host core.  Two threads pinned to
// the same core take turns: one runs only when the other yields, sleeps
// or is preempted, so a test can land an event inside a waiter's yield
// phase (support::yield_until).  A thread's voluntary context switches
// tell whether a wait slept: a futex sleep counts one, while a yield
// that hands the core over counts as involuntary.
#pragma once

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

#include <cstddef>

namespace hyades::test {

// The lowest-numbered core this process may run on.
inline int first_allowed_cpu() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 0;
  for (std::size_t cpu = 0; cpu < std::size_t{CPU_SETSIZE}; ++cpu) {
    if (CPU_ISSET(cpu, &set)) return static_cast<int>(cpu);
  }
  return 0;
}

// Pins the calling thread to `cpu`; false if the host refuses.
inline bool pin_this_thread(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(static_cast<std::size_t>(cpu), &set);
  return pthread_setaffinity_np(pthread_self(), sizeof(set), &set) == 0;
}

// Voluntary context switches of the calling thread so far.
inline long voluntary_switches() {
  rusage ru{};
  getrusage(RUSAGE_THREAD, &ru);
  return ru.ru_nvcsw;
}

}  // namespace hyades::test
