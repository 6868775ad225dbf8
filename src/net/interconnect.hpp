// Interconnect timing models.
//
// The cluster runtime and the comm library are written against this
// abstraction so the same GCM run can be costed on the Arctic Switch
// Fabric, Fast Ethernet, or Gigabit Ethernet -- the comparison at the
// heart of the paper's Figure 12.
//
// A model answers three questions:
//   * what does a small message cost (LogP: Os, Or, L)?           -- used
//     by the global-sum butterfly and transfer negotiation;
//   * what does a bulk one-directional transfer of B bytes cost?  -- used
//     by the exchange primitive;
//   * what does one butterfly round of a global sum cost?
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "support/units.hpp"

namespace hyades::net {

class Topology;

struct LogPParams {
  Microseconds os = 0;   // send overhead
  Microseconds orr = 0;  // receive overhead ("or" is a C++ keyword)
  Microseconds L = 0;    // one-way network latency

  [[nodiscard]] Microseconds half_rtt() const { return os + L + orr; }
};

class Interconnect {
 public:
  virtual ~Interconnect() = default;

  [[nodiscard]] virtual std::string name() const = 0;

  // LogP characteristics of a small message with `payload_bytes` payload.
  [[nodiscard]] virtual LogPParams small_message(int payload_bytes) const = 0;

  // Bulk transfer of `bytes` of user data from send initiation to receive
  // completion, using the interconnect's optimized bulk path (StarT-X VI
  // mode / MPI on Ethernet).
  [[nodiscard]] virtual Microseconds transfer_time(std::int64_t bytes) const = 0;

  // Same, but as achieved *inside the exchange primitive*, where the
  // two-transfers-sequential rule and per-tile scatter/gather prevent the
  // standalone benchmark's full copy/DMA overlap.  Defaults to the bulk
  // path.
  [[nodiscard]] virtual Microseconds exchange_transfer_time(
      std::int64_t bytes) const {
    return transfer_time(bytes);
  }

  // Fixed per-transfer overhead and streaming bandwidth, for reporting.
  [[nodiscard]] virtual Microseconds transfer_overhead() const = 0;
  [[nodiscard]] virtual double bandwidth_mbytes() const = 0;

  // Cost of butterfly round `round` (partner node ids differ in bit
  // `round`) of a global sum, including both CPU overheads and the
  // floating-point combine.
  [[nodiscard]] virtual Microseconds gsum_round_time(int round) const = 0;

  // Cost of combining the local processors' values inside one SMP (the
  // shared-memory pre/post phase; "about 1 usec" in the paper).
  [[nodiscard]] virtual Microseconds smp_local_sum_time() const { return 1.0; }

  // Structural view of the network (endpoints, hop costs, bisection),
  // when the model has one; see net/topology.hpp.
  [[nodiscard]] virtual const Topology* topology() const { return nullptr; }
};

}  // namespace hyades::net
