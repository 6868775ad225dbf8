#include "sim/scheduler.hpp"

#include <stdexcept>

namespace hyades::sim {

void Scheduler::schedule_at(SimTime when, EventFn fn) {
  if (when < now_) {
    throw std::invalid_argument("Scheduler: cannot schedule in the past");
  }
  queue_.push(Event{when, next_seq_++, std::move(fn)});
}

void Scheduler::schedule_after(SimTime delay, EventFn fn) {
  schedule_at(now_ + delay, std::move(fn));
}

bool Scheduler::step() {
  if (queue_.empty()) return false;
  Event ev = queue_.top();
  queue_.pop();
  now_ = ev.when;
  ++executed_;
  ev.fn();
  return true;
}

std::uint64_t Scheduler::run(std::uint64_t limit) {
  std::uint64_t n = 0;
  while (n < limit && step()) ++n;
  return n;
}

}  // namespace hyades::sim
