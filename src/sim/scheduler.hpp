// Event-driven simulation core.
//
// A Scheduler owns a priority queue of (time, sequence, callback) events.
// Ties in time are broken by insertion order, which makes runs
// deterministic.  Entities (routers, links, NIUs, DMA engines) schedule
// callbacks against the shared Scheduler.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "sim/time.hpp"

namespace hyades::sim {

using EventFn = std::function<void()>;

class Scheduler {
 public:
  Scheduler() = default;
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  [[nodiscard]] SimTime now() const { return now_; }
  [[nodiscard]] bool empty() const { return queue_.empty(); }
  [[nodiscard]] std::size_t pending() const { return queue_.size(); }
  [[nodiscard]] std::uint64_t executed() const { return executed_; }

  // Schedule `fn` to run at absolute time `when` (must be >= now()).
  void schedule_at(SimTime when, EventFn fn);

  // Schedule `fn` to run `delay` after the current time.
  void schedule_after(SimTime delay, EventFn fn);

  // Run one event; returns false if the queue is empty.
  bool step();

  // Run until the queue drains or `limit` events have executed.
  // Returns the number of events executed by this call.
  std::uint64_t run(std::uint64_t limit = UINT64_MAX);

 private:
  struct Event {
    SimTime when;
    std::uint64_t seq;
    EventFn fn;

    // min-heap on (when, seq)
    bool operator>(const Event& other) const {
      if (when != other.when) return when > other.when;
      return seq > other.seq;
    }
  };

  std::priority_queue<Event, std::vector<Event>, std::greater<>> queue_;
  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
};

}  // namespace hyades::sim
