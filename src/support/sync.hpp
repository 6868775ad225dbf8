// Annotated synchronization primitives for the cluster runtime.
//
// Thin wrappers over std::mutex / std::condition_variable that carry the
// Clang thread-safety capability attributes (support/
// thread_annotations.hpp).  libstdc++'s own types are un-annotated, so
// guarding a field with a raw std::mutex is invisible to
// `-Wthread-safety`; guarding it with support::Mutex lets a Clang build
// reject any access that does not provably hold the lock.
//
// Zero-overhead by construction: every method is an inline forward to
// the std primitive, and the attributes vanish on non-Clang compilers.
// yield_until() is the yield phase the cluster's rank waits run before
// they sleep on a CondVar.
#pragma once

#include <condition_variable>
#include <mutex>
#include <thread>

#include "support/thread_annotations.hpp"

namespace hyades::support {

// A standard exclusive mutex, annotated as a capability.
class CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() ACQUIRE() { mu_.lock(); }
  void unlock() RELEASE() { mu_.unlock(); }
  bool try_lock() TRY_ACQUIRE(true) { return mu_.try_lock(); }

  // Declare (to the analysis) that this thread holds the mutex.  Only
  // for contexts that provably run under the lock but that the analysis
  // cannot see into -- e.g. the first line of a CondVar predicate.
  void assert_held() const ASSERT_CAPABILITY() {}

 private:
  friend class CondVar;
  std::mutex mu_;
};

// RAII guard (the annotated equivalent of std::lock_guard).
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() RELEASE() { mu_.unlock(); }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

// Condition variable that waits directly on a support::Mutex.
//
// A plain std::condition_variable over the std::mutex inside the
// support::Mutex: each wait adopts the held mutex into the
// std::unique_lock the standard type requires and releases it again
// afterwards (also when the predicate throws), so the caller's MutexLock
// stays its only owner.  Callers keep the annotated mutex type through
// the wait and the analysis sees the REQUIRES contract: the mutex must
// be held to call wait*(), and is held again when it returns.  The
// transient unlock/relock inside the wait is invisible to the analysis,
// which is exactly the fiction thread-safety analysis expects of a
// condition wait (same treatment as Abseil's CondVar).
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void notify_one() { cv_.notify_one(); }
  void notify_all() { cv_.notify_all(); }

  template <typename Predicate>
  void wait(Mutex& mu, Predicate pred) REQUIRES(mu) {
    Adopted held(mu);
    cv_.wait(held.lock, pred);
  }

  // Returns false if `dur` elapsed with the predicate still false.
  template <typename Rep, typename Period, typename Predicate>
  bool wait_for(Mutex& mu, const std::chrono::duration<Rep, Period>& dur,
                Predicate pred) REQUIRES(mu) {
    Adopted held(mu);
    return cv_.wait_for(held.lock, dur, pred);
  }

 private:
  // The caller's held mutex, lent to the wait as a std::unique_lock.
  struct Adopted {
    explicit Adopted(Mutex& mu) : lock(native(mu), std::adopt_lock) {}
    ~Adopted() { (void)lock.release(); }
    Adopted(const Adopted&) = delete;
    Adopted& operator=(const Adopted&) = delete;
    std::unique_lock<std::mutex> lock;
  };
  static std::mutex& native(Mutex& mu) { return mu.mu_; }

  std::condition_variable cv_;
};

// How many times a rank wait hands its core away before it sleeps.  Every
// bound from 1 to 200 beats sleeping at once when rank threads outnumber
// cores.  Where they do not, the partner runs on another core and a
// yield with nothing else to run returns at once: 5 yields end before
// the reply comes and the wait sleeps anyway, while 50 catch most
// replies (EXPERIMENTS.md "Host time -- rank waits yield before they
// sleep").
inline constexpr int kWaitYields = 50;

// The yield phase of a rank wait: while `pred` is false, release `mu`,
// yield the core, re-take `mu` and check again, up to kWaitYields times.
// With more rank threads than cores, the partner a rank waits for is
// usually runnable on the same core: the yield lets it run, and the wait
// ends without a futex sleep and wake.  Returns the last `pred()`; on
// false the caller sleeps on its CondVar as before.  It yields rather
// than spins: a spin keeps the core from that partner.
template <typename Predicate>
bool yield_until(Mutex& mu, Predicate pred) REQUIRES(mu) {
  for (int i = 0; i < kWaitYields; ++i) {
    if (pred()) return true;
    mu.unlock();
    std::this_thread::yield();
    mu.lock();
  }
  return pred();
}

}  // namespace hyades::support
