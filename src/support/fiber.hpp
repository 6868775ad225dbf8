// Fibers: bodies that take turns on one host thread.
//
// run_fibers(n, body) runs body(0) .. body(n - 1), each on a stack of its
// own, on the calling thread, and returns when every body has returned.
// A fiber runs until it parks in a wait (fiber_wait_until) or returns;
// the thread then switches to the next live fiber in index order, round
// robin.  A switch is a jump in user space (support/fiber.cpp): it saves
// the stack pointer, the callee-saved registers, MXCSR, the x87 control
// word and the thread's C++ exception state, and never enters the kernel.
//
// A wait parks while its predicate is false.  Only a running fiber can
// change what a predicate reads, so when every live fiber has parked in
// turn, one full round, without one finding its predicate true, none
// ever will: each of those waits returns false (a deadlock).
//
// Fibers exist on x86-64 only (kFibers); elsewhere callers keep threads.
#pragma once

#include <cstddef>
#include <functional>

#include "support/sync.hpp"
#include "support/thread_annotations.hpp"

namespace hyades::support {

#if defined(__x86_64__)
inline constexpr bool kFibers = true;
#else
inline constexpr bool kFibers = false;
#endif

// Runs body(i) for every i in [0, n) as above.  A body must not throw
// (an escaping exception ends the program).  The stacks are mapped
// before any body runs: if the host refuses one, nothing has run and
// std::system_error is thrown.  Fiber runs nest: a body may call
// run_fibers, and its fibers run on the caller's fiber.
void run_fibers(std::size_t n, const std::function<void(std::size_t)>& body);

// The index of the calling fiber; only on a fiber.
[[nodiscard]] std::size_t fiber_index();

namespace detail {
// Hands the thread to the next live fiber and returns when this fiber's
// turn comes round again: true, or false when this park completed a
// round of fruitless parks (see above).
bool park_fiber();
// A parked wait found its predicate true: the round starts again.
void fiber_progressed();
}  // namespace detail

// The wait of a fiber: while `pred` is false, release `mu`, park, re-take
// `mu` and check again.  Returns true once `pred` holds, false on a
// deadlock.  Only on a fiber.
template <typename Predicate>
bool fiber_wait_until(Mutex& mu, Predicate pred) REQUIRES(mu) {
  if (pred()) return true;
  do {
    mu.unlock();
    const bool going = detail::park_fiber();
    mu.lock();
    if (!going) return false;
  } while (!pred());
  detail::fiber_progressed();
  return true;
}

}  // namespace hyades::support
