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
#pragma once

#include <condition_variable>
#include <mutex>

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

}  // namespace hyades::support
