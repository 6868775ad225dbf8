#include "cluster/report.hpp"

#include <stdexcept>
#include <string>
#include <utility>

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
    rows.push_back({static_cast<int>(r), acct[r],
                    t.total_cat(SpanCat::kExchange),
                    t.total_cat(SpanCat::kGsum),
                    t.total_cat(SpanCat::kBarrier)});
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
  const auto counts = [](std::int64_t a, std::int64_t b) {
    return Table::fmt_int(static_cast<int>(a)) + "/" +
           Table::fmt_int(static_cast<int>(b));
  };
  // One table row; its times are divided by `n` ranks (1 for a rank's
  // own row, the rank count for the mean row) and by `divisor`.
  const auto add_row = [&](std::string label, const RankBreakdown& b,
                           Microseconds total_us, double n) {
    const auto ms = [&](Microseconds us) {
      return Table::fmt(us / n / divisor / 1000.0, 3);
    };
    const Accounting& a = b.acct;
    t.add_row({std::move(label), ms(a.compute_us), ms(b.exchange_us),
               ms(b.gsum_us), ms(b.barrier_us), ms(a.overlap_us),
               ms(a.imbalance_us), ms(a.retrans_us), ms(a.reroute_us),
               ms(a.restart_us), ms(a.migrate_us),
               counts(a.degraded_sends, a.restarts),
               counts(a.migrations, a.rebalances),
               Table::fmt_int(static_cast<int>(a.downgrades)), ms(total_us)});
  };
  RankBreakdown sum;
  Microseconds total_us = 0;  // the per-rank totals, summed as printed
  for (const RankBreakdown& b : rows) {
    const Accounting& a = b.acct;
    add_row(Table::fmt_int(b.rank), b, a.total_us(), 1.0);
    Accounting& s = sum.acct;
    s.compute_us += a.compute_us;
    sum.exchange_us += b.exchange_us;
    sum.gsum_us += b.gsum_us;
    sum.barrier_us += b.barrier_us;
    s.overlap_us += a.overlap_us;
    s.imbalance_us += a.imbalance_us;
    s.retrans_us += a.retrans_us;
    s.reroute_us += a.reroute_us;
    s.restart_us += a.restart_us;
    s.migrate_us += a.migrate_us;
    s.degraded_sends += a.degraded_sends;
    s.restarts += a.restarts;
    s.migrations += a.migrations;
    s.rebalances += a.rebalances;
    s.downgrades += a.downgrades;
    total_us += a.total_us();
  }
  if (!rows.empty()) {
    add_row("mean", sum, total_us, static_cast<double>(rows.size()));
  }
  t.print(os, "wait-time attribution (overlap-hidden is a credit, not part "
              "of total; imbalance-wait is a subset of comm)");
}

}  // namespace hyades::cluster
