#include "cluster/message_bus.hpp"

#include <chrono>
#include <stdexcept>
#include <utility>

#include "cluster/fiber_waits.hpp"

namespace hyades::cluster {

namespace {

std::string describe(int epoch, const std::vector<WaitEdge>& edges) {
  std::string s = "deadlock in epoch " + std::to_string(epoch) + ":";
  for (const WaitEdge& e : edges) {
    s += " rank " + std::to_string(e.rank) +
         (e.peer >= 0 ? " waits on rank " + std::to_string(e.peer) +
                            " tag " + std::to_string(e.tag)
                      : " waits at SMP " + std::to_string(e.smp) +
                            "'s barrier") +
         ";";
  }
  s.pop_back();
  return s;
}

}  // namespace

Deadlock::Deadlock(int in_epoch, std::vector<WaitEdge> wait_edges)
    : std::runtime_error(describe(in_epoch, wait_edges)),
      epoch(in_epoch),
      edges(std::move(wait_edges)) {}

void detail::throw_deadlock(FiberRun& run) {
  if (run.deadlock.empty()) {
    for (const WaitEdge& e : run.parked) {
      if (e.rank >= 0) run.deadlock.push_back(e);
    }
  }
  throw Deadlock(run.epoch, run.deadlock);
}

MessageBus::MessageBus(int nranks, detail::FiberRun* fibers) : fibers_(fibers) {
  if (nranks < 1) throw std::invalid_argument("MessageBus: nranks < 1");
  exited_ = std::vector<std::atomic<bool>>(static_cast<std::size_t>(nranks));
  boxes_.reserve(static_cast<std::size_t>(nranks));
  for (int i = 0; i < nranks; ++i) {
    boxes_.push_back(std::make_unique<Mailbox>());
  }
}

void MessageBus::send(int to, Message m) {
  Mailbox& box = *boxes_.at(static_cast<std::size_t>(to));
  {
    support::MutexLock lock(box.mu);
    box.queues[{m.src, m.tag}].push_back(std::move(m));
  }
  box.cv.notify_all();
}

Message MessageBus::recv(int me, int from, int tag, int timeout_ms) {
  Mailbox& box = *boxes_.at(static_cast<std::size_t>(me));
  const std::atomic<bool>& gone = exited_.at(static_cast<std::size_t>(from));
  support::MutexLock lock(box.mu);
  auto& q = box.queues[{from, tag}];
  const auto ready = [&] {
    box.mu.assert_held();
    return !q.empty() || gone.load(std::memory_order_acquire);
  };
  if (fibers_ != nullptr) {
    detail::fiber_wait(*fibers_, box.mu, from, tag, -1, ready);
  } else if (!support::yield_until(box.mu, ready) &&
             !box.cv.wait_for(box.mu, std::chrono::milliseconds(timeout_ms),
                              ready)) {
    throw std::runtime_error("MessageBus::recv: timeout (rank " +
                             std::to_string(me) + " waiting on " +
                             std::to_string(from) + " tag " +
                             std::to_string(tag) + ")");
  }
  if (q.empty()) throw PeerExited(me, from, tag);
  Message m = std::move(q.front());
  q.pop_front();
  return m;
}

void MessageBus::mark_exited(int rank) {
  exited_.at(static_cast<std::size_t>(rank))
      .store(true, std::memory_order_release);
  // Wake every blocked receiver so it re-checks its wait predicate.
  for (auto& box : boxes_) {
    // Passing through the mailbox lock orders the flag store before the
    // predicate check of any receiver not yet asleep, so a receiver
    // between its check and its wait cannot miss this wake-up.
    { support::MutexLock lock(box->mu); }
    box->cv.notify_all();
  }
}

}  // namespace hyades::cluster
