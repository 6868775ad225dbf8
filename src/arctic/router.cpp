#include "arctic/router.hpp"

#include <algorithm>
#include <utility>

namespace hyades::arctic {

void OutputPort::submit(Packet p) {
  const int pri = (p.priority == Priority::kHigh) ? 1 : 0;
  queues_[pri].push_back(std::move(p));
  max_queue_depth_ = std::max(max_queue_depth_, queued());
  if (!busy_) start_next();
}

void OutputPort::start_next() {
  Packet p;
  if (!queues_[1].empty()) {
    p = std::move(queues_[1].front());
    queues_[1].pop_front();
  } else if (!queues_[0].empty()) {
    p = std::move(queues_[0].front());
    queues_[0].pop_front();
  } else {
    return;
  }

  busy_ = true;
  const double bw = cfg_.bandwidth_mbytes_per_sec;
  const int header_chunk = std::min(cfg_.forward_bytes, p.wire_bytes());
  const sim::SimTime header_time =
      sim::transfer_time(header_chunk, bw) + sim::from_us(cfg_.prop_delay_us);
  const sim::SimTime full_time = sim::transfer_time(p.wire_bytes(), bw);
  busy_time_ += full_time;
  ++transmitted_;

  // Header reaches the downstream element after the cut-through chunk.
  sched_.schedule_after(header_time,
                        [this, pkt = std::move(p)]() mutable {
                          on_header_(std::move(pkt));
                        });
  // The port frees once the tail has left.
  sched_.schedule_after(full_time, [this] {
    busy_ = false;
    start_next();
  });
}

}  // namespace hyades::arctic
