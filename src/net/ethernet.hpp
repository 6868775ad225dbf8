// Commodity-interconnect timing models: MPI over switched Fast Ethernet
// and over Gigabit Ethernet, the two LAN alternatives of the paper's
// Figure 12.
//
// The paper reports only the *achieved primitive costs* (tgsum, texchxy,
// texchxyz) on these stacks, not the stack internals, so these models are
// calibrated so the comm library's measured primitives land on the
// paper's values: a fixed per-transfer software overhead (MPI + TCP/IP +
// interrupt costs), an effective streaming bandwidth (well under wire
// rate for 1999-era stacks; Fast Ethernet additionally suffers
// congestion when all nodes burst simultaneously), and a small-message
// half-RTT that sets the global-sum round cost.
#pragma once

#include "net/interconnect.hpp"

namespace hyades::net {

struct EthernetConfig {
  std::string name;
  Microseconds send_overhead_us;    // per-message CPU cost, sender
  Microseconds recv_overhead_us;    // per-message CPU cost, receiver
  Microseconds wire_latency_us;     // one-way latency incl. interrupts
  Microseconds transfer_overhead_us;  // fixed cost of a bulk MPI transfer
  double bandwidth_mbytes;          // effective streaming bandwidth
};

class EthernetModel final : public Interconnect {
 public:
  explicit EthernetModel(EthernetConfig cfg) : cfg_(std::move(cfg)) {}

  [[nodiscard]] std::string name() const override { return cfg_.name; }
  [[nodiscard]] LogPParams small_message(int payload_bytes) const override;
  [[nodiscard]] Microseconds transfer_time(std::int64_t bytes) const override;
  [[nodiscard]] Microseconds transfer_overhead() const override {
    return cfg_.transfer_overhead_us;
  }
  [[nodiscard]] double bandwidth_mbytes() const override {
    return cfg_.bandwidth_mbytes;
  }
  [[nodiscard]] Microseconds gsum_round_time(int round) const override;

 private:
  EthernetConfig cfg_;
};

// Factory presets calibrated against Figure 12 (see DESIGN.md section 2).
EthernetModel fast_ethernet();
EthernetModel gigabit_ethernet();

// HPVM over Myrinet (Section 6's general-purpose comparison cluster):
// same class of link hardware as Arctic, but a general-purpose software
// suite -- calibrated to the paper's two data points (a 16-way barrier
// of >50 us, i.e. >2.5x Hyades's, and ~42 MB/s for 1-KByte transfers,
// 25% below the exchange primitive).
EthernetModel hpvm_myrinet();

}  // namespace hyades::net
