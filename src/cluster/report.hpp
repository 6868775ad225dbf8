// Wait-time attribution: the live analog of the paper's Figure 11.
//
// Pairs each rank's Accounting snapshot with the three comm totals only
// its Tracer holds -- halo exchange, global sums, barriers -- and prints
// where the virtual time went, including the two visibility buckets:
// communication hidden under computation (overlap credit, not part of
// the total) and the share of the comm waits caused by partner lateness
// (load imbalance) rather than wire time.
#pragma once

#include <ostream>
#include <vector>

#include "cluster/runtime.hpp"
#include "cluster/trace.hpp"

namespace hyades::cluster {

struct RankBreakdown {
  int rank = 0;
  Accounting acct;                // the rank's buckets and event counts
  Microseconds exchange_us = 0;   // SpanCat::kExchange total
  Microseconds gsum_us = 0;       // SpanCat::kGsum total
  Microseconds barrier_us = 0;    // SpanCat::kBarrier total

  // exchange + gsum + barrier; must agree with acct.comm_us to within
  // accumulation rounding (the trace and the accounting see the same
  // intervals).
  [[nodiscard]] Microseconds traced_comm_us() const {
    return exchange_us + gsum_us + barrier_us;
  }
};

// The wait-attribution column whose time is fed by spans of this
// category, or nullptr for categories accounted through another path
// (kPhase/kSolver are structure inside the compute column, kOther is
// free-form).  This switch is the single place the span taxonomy meets
// the report table: hyades-lint's spancat-coverage rule parses the
// SpanCat enum and this function's cases, so adding a category without
// deciding its column is a lint failure (and a -Wswitch build break).
[[nodiscard]] const char* span_cat_column(SpanCat cat);

// Build the per-rank breakdown.  per_rank[r] may be null (rank skipped);
// acct must have at least per_rank.size() entries.
std::vector<RankBreakdown> wait_attribution(
    const std::vector<const Tracer*>& per_rank,
    const std::vector<Accounting>& acct);

// Print the breakdown as a paper-style table (one row per rank, a mean
// row at the bottom), times in milliseconds.  `divisor` scales every
// time column (pass the step count for per-step rollups; 1 for totals).
void print_wait_attribution(std::ostream& os,
                            const std::vector<RankBreakdown>& rows,
                            double divisor = 1.0);

}  // namespace hyades::cluster
