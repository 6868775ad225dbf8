// Priority job queue with admission control.
//
// Dispatch order is a total, deterministic order: highest priority
// first, FIFO (submission sequence) within a priority class -- the
// CP-PACS-style production queue where a short validation member can
// overtake a bulk sweep without starving it.  Admission control is a
// hard pending-depth cap: a full queue rejects at submit time (the
// caller records the job kRejected) instead of growing without bound --
// a resident service under heavy traffic degrades by refusing work it
// cannot schedule, never by dying.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace hyades::farm {

class JobQueue {
 public:
  // depth <= 0 means unbounded (test/benchmark convenience).
  explicit JobQueue(int max_pending = 0) : max_pending_(max_pending) {}

  // Admit job `id` at `priority`; false when the queue is full.
  bool push(int id, int priority);
  // Highest-priority, earliest-submitted pending job; -1 when drained.
  int pop();

  [[nodiscard]] std::size_t pending() const { return pending_.size(); }
  [[nodiscard]] bool empty() const { return pending_.empty(); }
  [[nodiscard]] int max_pending() const { return max_pending_; }

 private:
  struct Pending {
    int id;
    int priority;
    std::uint64_t seq;  // global submission sequence (FIFO tiebreak)
  };
  int max_pending_;
  std::uint64_t next_seq_ = 0;
  std::vector<Pending> pending_;  // small-N: a linear scan beats a map
};

}  // namespace hyades::farm
