#include "cluster/report.hpp"

#include <stdexcept>

#include "support/table.hpp"

namespace hyades::cluster {

const char* span_cat_column(SpanCat cat) {
  // No default: a new SpanCat enumerator must add its case here (and a
  // matching column below, checked by hyades-lint spancat-coverage).
  switch (cat) {
    case SpanCat::kPhase:
      return nullptr;  // stepper structure inside "compute (ms)"
    case SpanCat::kExchange:
      return "exchange (ms)";
    case SpanCat::kGsum:
      return "gsum (ms)";
    case SpanCat::kBarrier:
      return "barrier (ms)";
    case SpanCat::kSolver:
      return nullptr;  // per-iteration detail inside the ds phase
    case SpanCat::kFault:
      return "retrans (ms)";  // cost carried in Accounting::retrans_us
    case SpanCat::kNodeDown:
      return "restart (ms)";  // cost carried in Accounting::restart_us
    case SpanCat::kOther:
      return nullptr;  // free-form ops, no dedicated column
  }
  return nullptr;
}

std::vector<RankBreakdown> wait_attribution(
    const std::vector<const Tracer*>& per_rank,
    const std::vector<Accounting>& acct) {
  if (acct.size() < per_rank.size()) {
    throw std::invalid_argument(
        "wait_attribution: accounting shorter than tracer list");
  }
  std::vector<RankBreakdown> rows;
  rows.reserve(per_rank.size());
  for (std::size_t r = 0; r < per_rank.size(); ++r) {
    if (per_rank[r] == nullptr) continue;
    const Tracer& t = *per_rank[r];
    const Accounting& a = acct[r];
    RankBreakdown b;
    b.rank = static_cast<int>(r);
    b.compute_us = a.compute_us;
    b.exchange_us = t.total_cat(SpanCat::kExchange);
    b.gsum_us = t.total_cat(SpanCat::kGsum);
    b.barrier_us = t.total_cat(SpanCat::kBarrier);
    b.overlap_us = a.overlap_us;
    b.imbalance_us = a.imbalance_us;
    b.retrans_us = a.retrans_us;
    b.reroute_us = a.reroute_us;
    b.restart_us = a.restart_us;
    b.migrate_us = a.migrate_us;
    b.degraded_sends = a.degraded_sends;
    b.restarts = a.restarts;
    b.migrations = a.migrations;
    b.rebalances = a.rebalances;
    b.downgrades = a.downgrades;
    b.comm_us = a.comm_us;
    b.total_us = a.total_us();
    rows.push_back(b);
  }
  return rows;
}

void print_wait_attribution(std::ostream& os,
                            const std::vector<RankBreakdown>& rows,
                            double divisor) {
  if (divisor == 0.0) divisor = 1.0;
  Table t({"rank", "compute (ms)", "exchange (ms)", "gsum (ms)",
           "barrier (ms)", "overlap-hidden (ms)", "imbalance-wait (ms)",
           "retrans (ms)", "reroute (ms)", "restart (ms)", "migrate (ms)",
           "degraded/restarts", "migr/rebal", "downgr", "total (ms)"});
  const auto ms = [divisor](Microseconds us) {
    return Table::fmt(us / divisor / 1000.0, 3);
  };
  const auto counts = [](std::int64_t a, std::int64_t b) {
    return Table::fmt_int(static_cast<int>(a)) + "/" +
           Table::fmt_int(static_cast<int>(b));
  };
  RankBreakdown sum;
  for (const RankBreakdown& b : rows) {
    t.add_row({Table::fmt_int(b.rank), ms(b.compute_us), ms(b.exchange_us),
               ms(b.gsum_us), ms(b.barrier_us), ms(b.overlap_us),
               ms(b.imbalance_us), ms(b.retrans_us), ms(b.reroute_us),
               ms(b.restart_us), ms(b.migrate_us),
               counts(b.degraded_sends, b.restarts),
               counts(b.migrations, b.rebalances),
               Table::fmt_int(static_cast<int>(b.downgrades)),
               ms(b.total_us)});
    sum.compute_us += b.compute_us;
    sum.exchange_us += b.exchange_us;
    sum.gsum_us += b.gsum_us;
    sum.barrier_us += b.barrier_us;
    sum.overlap_us += b.overlap_us;
    sum.imbalance_us += b.imbalance_us;
    sum.retrans_us += b.retrans_us;
    sum.reroute_us += b.reroute_us;
    sum.restart_us += b.restart_us;
    sum.migrate_us += b.migrate_us;
    sum.degraded_sends += b.degraded_sends;
    sum.restarts += b.restarts;
    sum.migrations += b.migrations;
    sum.rebalances += b.rebalances;
    sum.downgrades += b.downgrades;
    sum.total_us += b.total_us;
  }
  if (!rows.empty()) {
    const auto n = static_cast<double>(rows.size());
    const auto mean = [&](Microseconds us) {
      return Table::fmt(us / n / divisor / 1000.0, 3);
    };
    t.add_row({"mean", mean(sum.compute_us), mean(sum.exchange_us),
               mean(sum.gsum_us), mean(sum.barrier_us), mean(sum.overlap_us),
               mean(sum.imbalance_us), mean(sum.retrans_us),
               mean(sum.reroute_us), mean(sum.restart_us),
               mean(sum.migrate_us), counts(sum.degraded_sends, sum.restarts),
               counts(sum.migrations, sum.rebalances),
               Table::fmt_int(static_cast<int>(sum.downgrades)),
               mean(sum.total_us)});
  }
  t.print(os, "wait-time attribution (overlap-hidden is a credit, not part "
              "of total; imbalance-wait is a subset of comm)");
}

}  // namespace hyades::cluster
