// Output-port model shared by router stages and endpoint injection links.
//
// Arctic is a virtual cut-through network: a packet's header is forwarded
// downstream as soon as the first `forward_bytes` have serialized, while
// the full packet occupies the link for its complete wire time (which is
// what creates contention).  Each port keeps two FIFO queues, one per
// packet priority; the high-priority queue is always drained first, so a
// high-priority packet can never be blocked behind *queued* low-priority
// traffic (it can at most wait out one in-flight low packet, as in the
// real hardware).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>

#include "arctic/packet.hpp"
#include "sim/scheduler.hpp"

namespace hyades::arctic {

struct LinkConfig {
  double bandwidth_mbytes_per_sec = 150.0;  // per direction, per the paper
  double stage_latency_us = 0.15;           // router stage latency (paper)
  double prop_delay_us = 0.01;              // wire propagation
  // lint:allow(magic-topology): cut-through chunk size is a link
  // calibration value (bytes serialized before forwarding), not a shape.
  int forward_bytes = 16;
};

class OutputPort {
 public:
  // `on_header` fires when the cut-through header chunk has arrived at
  // the downstream element (router input or endpoint NIU).
  using HeaderFn = std::function<void(Packet&&)>;

  OutputPort(sim::Scheduler& sched, const LinkConfig& cfg, HeaderFn on_header)
      : sched_(sched), cfg_(cfg), on_header_(std::move(on_header)) {}

  OutputPort(const OutputPort&) = delete;
  OutputPort& operator=(const OutputPort&) = delete;
  OutputPort(OutputPort&&) = default;

  // Enqueue a packet for transmission; must be called from a scheduler
  // event (uses sched.now() as the enqueue time).
  void submit(Packet p);

  [[nodiscard]] bool busy() const { return busy_; }
  [[nodiscard]] std::size_t queued() const {
    return queues_[0].size() + queues_[1].size();
  }
  [[nodiscard]] std::size_t max_queue_depth() const {
    return max_queue_depth_;
  }
  [[nodiscard]] std::uint64_t transmitted() const { return transmitted_; }
  [[nodiscard]] sim::SimTime busy_time() const { return busy_time_; }

 private:
  void start_next();

  sim::Scheduler& sched_;
  LinkConfig cfg_;
  HeaderFn on_header_;
  std::deque<Packet> queues_[2];  // [0]=low, [1]=high
  bool busy_ = false;
  std::size_t max_queue_depth_ = 0;
  std::uint64_t transmitted_ = 0;
  sim::SimTime busy_time_ = 0;
};

}  // namespace hyades::arctic
