// Per-rank operation tracing in virtual time.
//
// When a Tracer is attached to a RankContext, the comm primitives and
// the GCM time-stepper record (operation, begin, end) intervals on the
// rank's virtual clock.  Traces can be merged and written as a CSV
// timeline or as Chrome trace-event JSON (loadable in Perfetto /
// chrome://tracing) -- the tool one reaches for when asking where a
// step's 108 ms actually went (compute, exchange, global sums, or
// waiting for a load-imbalanced neighbour).
//
// Recording is timing-invisible: Tracer methods only *read* the virtual
// clock, never advance it, so an instrumented run's virtual timeline is
// bit-identical to an uninstrumented one (regression-locked by
// tests/observability/observability_test.cpp).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "support/units.hpp"

namespace hyades::cluster {

// Typed span taxonomy.  The category drives aggregation (wait-time
// attribution) and the "cat" field of the Chrome trace export; the op
// string stays free-form for finer labels.
enum class SpanCat : std::uint8_t {
  kPhase,     // ps, ps_interior, ps_rim, ds -- stepper phases
  kExchange,  // exchange, exchange_start, exchange_wait
  kGsum,      // gsum, gmax
  kBarrier,   // barrier
  kSolver,    // ds_cg_iter -- per-iteration CG spans
  kFault,     // retransmit -- fault-recovery intervals
  kNodeDown,  // node_down, restart -- hard-failure detection/recovery
  kOther,
};

[[nodiscard]] const char* span_cat_name(SpanCat cat);

// Optional per-span counter payload.  All counters are additive so they
// aggregate by plain summation across spans and ranks.
struct SpanCounters {
  std::int64_t bytes = 0;   // payload bytes moved by the operation
  double flops = 0;         // floating-point work attributed to the span
  int cg_iterations = 0;    // solver iterations inside the span
  Microseconds overlap_us = 0;  // comm time hidden under compute

  [[nodiscard]] bool any() const {
    return bytes != 0 || flops != 0 || cg_iterations != 0 || overlap_us != 0;
  }
};

struct TraceEvent {
  std::string op;        // e.g. "gsum", "exchange", "ps", "ds"
  SpanCat cat = SpanCat::kOther;
  Microseconds begin_us = 0;
  Microseconds end_us = 0;
  SpanCounters ctr;

  [[nodiscard]] Microseconds duration() const { return end_us - begin_us; }
};

class Tracer {
 public:
  void record(std::string op, SpanCat cat, Microseconds begin_us,
              Microseconds end_us, const SpanCounters& ctr = {}) {
    events_.push_back({std::move(op), cat, begin_us, end_us, ctr});
  }

  [[nodiscard]] const std::vector<TraceEvent>& events() const {
    return events_;
  }
  void clear() { events_.clear(); }

  // Total virtual time spent in operations whose name matches `op`.
  [[nodiscard]] Microseconds total(const std::string& op) const;
  // Total virtual time spent in spans of the given category.
  [[nodiscard]] Microseconds total_cat(SpanCat cat) const;
  // Sum of counter payloads over spans whose name matches `op`.
  [[nodiscard]] SpanCounters counters(const std::string& op) const;

 private:
  std::vector<TraceEvent> events_;
};

// Write a merged timeline: one row per event, "rank,op,begin_us,end_us".
// Timestamps are emitted at full round-trip precision (max_digits10) --
// default ostream precision silently corrupts virtual times beyond ~1 s.
void write_trace_csv(const std::string& path,
                     const std::vector<const Tracer*>& per_rank);

// Write a Chrome trace-event JSON file (the "traceEvents" array format
// understood by Perfetto and chrome://tracing): one complete "X" event
// per span, pid = the rank's SMP, tid = the rank, ts/dur in virtual
// microseconds at full precision, counters in "args".  Null tracers are
// skipped (their pid/tid simply never appear).
void write_trace_json(const std::string& path,
                      const std::vector<const Tracer*>& per_rank,
                      int procs_per_smp = 1);

}  // namespace hyades::cluster
