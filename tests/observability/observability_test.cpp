// The observability layer end to end: typed spans with counter
// payloads, full-precision CSV (regression for the 6-digit truncation
// bug), Chrome trace-event JSON schema, and the wait-time-attribution
// report -- plus the load-bearing invariant that
// tracing is timing-invisible (an instrumented run's virtual timeline
// and measurements are bit-identical to an uninstrumented one).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/report.hpp"
#include "cluster/trace.hpp"
#include "gcm/model.hpp"
#include "net/arctic_model.hpp"
#include "perf/calibrate.hpp"
#include "support/table.hpp"
#include "tests/gcm/gcm_test_util.hpp"

namespace hyades::cluster {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream is(path);
  std::ostringstream ss;
  ss << is.rdbuf();
  return ss.str();
}

int count_of(const std::string& hay, const std::string& needle) {
  int n = 0;
  for (std::size_t p = hay.find(needle); p != std::string::npos;
       p = hay.find(needle, p + needle.size())) {
    ++n;
  }
  return n;
}

// ---- satellite (a): CSV precision regression ----------------------------

TEST(TraceCsv, FullPrecisionSurvivesLongRuns) {
  // Regression: write_trace_csv used the default 6-significant-digit
  // ostream precision, so any timestamp beyond ~1 s of virtual time
  // (the paper's runs sit at ~1.1e10 us) collapsed to "1e+09"-style
  // rounded values and the timeline no longer round-tripped.
  Tracer t;
  const double b = 1.0e9 + 0.125, e = 1.0e9 + 0.625;
  t.record("gsum", SpanCat::kGsum, b, e);
  const std::string path = ::testing::TempDir() + "hyades_precision.csv";
  write_trace_csv(path, {&t});
  std::ifstream is(path);
  std::string header, line;
  std::getline(is, header);
  std::getline(is, line);
  EXPECT_EQ(header, "rank,op,begin_us,end_us");
  EXPECT_EQ(line.find("1e+09"), std::string::npos) << line;
  std::replace(line.begin(), line.end(), ',', ' ');
  std::istringstream ls(line);
  int rank = -1;
  std::string op;
  double rb = 0, re = 0;
  ls >> rank >> op >> rb >> re;
  EXPECT_EQ(rank, 0);
  EXPECT_EQ(op, "gsum");
  EXPECT_EQ(rb, b);  // exact: full precision must round-trip
  EXPECT_EQ(re, e);
  std::remove(path.c_str());
}

// ---- typed spans and counters -------------------------------------------

TEST(Tracer, SpanCategoriesAndCountersRoundTrip) {
  Tracer t;
  SpanCounters c1;
  c1.bytes = 4096;
  c1.flops = 1.5e6;
  t.record("exchange", SpanCat::kExchange, 0.0, 10.0, c1);
  SpanCounters c2;
  c2.cg_iterations = 3;
  c2.overlap_us = 2.5;
  t.record("ds_cg_iter", SpanCat::kSolver, 10.0, 14.0, c2);
  t.record("ds_cg_iter", SpanCat::kSolver, 14.0, 19.0, c2);

  EXPECT_DOUBLE_EQ(t.total_cat(SpanCat::kExchange), 10.0);
  EXPECT_DOUBLE_EQ(t.total_cat(SpanCat::kSolver), 9.0);
  EXPECT_DOUBLE_EQ(t.total_cat(SpanCat::kGsum), 0.0);
  const SpanCounters ex = t.counters("exchange");
  EXPECT_EQ(ex.bytes, 4096);
  EXPECT_DOUBLE_EQ(ex.flops, 1.5e6);
  const SpanCounters cg = t.counters("ds_cg_iter");
  EXPECT_EQ(cg.cg_iterations, 6);
  EXPECT_DOUBLE_EQ(cg.overlap_us, 5.0);
}

// ---- Chrome trace-event JSON export -------------------------------------

TEST(TraceJson, SchemaFieldsPresent) {
  Tracer a, b;
  SpanCounters ctr;
  ctr.bytes = 128;
  a.record("gsum", SpanCat::kGsum, 0.0, 5.0, ctr);
  a.record("ps", SpanCat::kPhase, 5.0, 30.0);
  b.record("exchange", SpanCat::kExchange, 1.0, 7.5);
  const std::string path = ::testing::TempDir() + "hyades_schema.trace.json";
  write_trace_json(path, {&a, &b}, /*procs_per_smp=*/2);
  const std::string s = slurp(path);

  EXPECT_EQ(s.front(), '{');
  EXPECT_NE(s.find("\"traceEvents\":["), std::string::npos);
  // Three complete events, each with the required schema fields.
  EXPECT_EQ(count_of(s, "\"ph\":\"X\""), 3);
  EXPECT_EQ(count_of(s, "\"ts\":"), 3);
  EXPECT_EQ(count_of(s, "\"dur\":"), 3);
  // Every event (3 X + 4 M metadata) carries pid and tid.
  EXPECT_EQ(count_of(s, "\"ph\":\"M\""), 4);
  EXPECT_EQ(count_of(s, "\"pid\":"), 7);
  EXPECT_EQ(count_of(s, "\"tid\":"), 7);
  // Both ranks share SMP 0 (procs_per_smp = 2).
  EXPECT_NE(s.find("\"name\":\"smp0\""), std::string::npos);
  EXPECT_NE(s.find("\"name\":\"rank1\""), std::string::npos);
  // Counter payloads ride in "args"; spans without counters omit it.
  EXPECT_EQ(count_of(s, "\"bytes\":128"), 1);
  EXPECT_EQ(count_of(s, "\"args\":"), 4 + 1);  // 4 metadata + 1 counter
  // Braces and brackets balance (cheap well-formedness check).
  EXPECT_EQ(count_of(s, "{"), count_of(s, "}"));
  EXPECT_EQ(count_of(s, "["), count_of(s, "]"));
}

TEST(TraceJson, NullTracersSkippedAndPidMapsSmp) {
  Tracer a;
  a.record("barrier", SpanCat::kBarrier, 0.0, 1.0);
  const std::string path = ::testing::TempDir() + "hyades_null.trace.json";
  write_trace_json(path, {nullptr, nullptr, &a, nullptr}, 2);
  const std::string s = slurp(path);
  // Rank 2 on a 2-way SMP lives in process (SMP) 1.
  EXPECT_NE(s.find("\"pid\":1,\"tid\":2"), std::string::npos);
  EXPECT_EQ(s.find("rank0"), std::string::npos);
  EXPECT_THROW(write_trace_json(path, {&a}, 0), std::invalid_argument);
}

// ---- model-level: capture, determinism, timing invisibility --------------

perf::ModelMeasurement measure_small(perf::TraceCapture* cap) {
  const gcm::ModelConfig cfg = gcm::testing::small_ocean(2, 2);
  const net::ArcticModel net;
  return perf::measure_model(cfg, net, perf::MachineShape{2, 2}, /*steps=*/2,
                             /*warmup=*/1, cap);
}

TEST(Observability, TracingIsTimingInvisible) {
  perf::TraceCapture cap;
  const perf::ModelMeasurement plain = measure_small(nullptr);
  const perf::ModelMeasurement traced = measure_small(&cap);
  // Bit-identical measurements: tracing only reads the virtual clock.
  EXPECT_EQ(plain.step_us, traced.step_us);
  EXPECT_EQ(plain.tps_us, traced.tps_us);
  EXPECT_EQ(plain.tds_us, traced.tds_us);
  EXPECT_EQ(plain.ni, traced.ni);
  EXPECT_EQ(plain.aggregate_gflops, traced.aggregate_gflops);
  EXPECT_EQ(plain.params.ps.nps, traced.params.ps.nps);
  ASSERT_EQ(cap.tracers.size(), 4u);
  for (const Tracer& t : cap.tracers) EXPECT_FALSE(t.events().empty());
}

TEST(Observability, JsonExportIsDeterministic) {
  const std::string p1 = ::testing::TempDir() + "hyades_det1.trace.json";
  const std::string p2 = ::testing::TempDir() + "hyades_det2.trace.json";
  for (const std::string& p : {p1, p2}) {
    perf::TraceCapture cap;
    (void)measure_small(&cap);
    std::vector<const Tracer*> ptrs;
    for (const Tracer& t : cap.tracers) ptrs.push_back(&t);
    write_trace_json(p, ptrs, cap.procs_per_smp);
  }
  const std::string s1 = slurp(p1), s2 = slurp(p2);
  ASSERT_FALSE(s1.empty());
  EXPECT_EQ(s1, s2);  // identical runs produce byte-identical traces
  std::remove(p1.c_str());
  std::remove(p2.c_str());
}

TEST(Observability, WaitAttributionMatchesAccounting) {
  perf::TraceCapture cap;
  (void)measure_small(&cap);
  std::vector<const Tracer*> ptrs;
  for (const Tracer& t : cap.tracers) ptrs.push_back(&t);
  const std::vector<RankBreakdown> rows = wait_attribution(ptrs, cap.acct);
  ASSERT_EQ(rows.size(), 4u);
  for (const RankBreakdown& b : rows) {
    // The traced comm spans and the Accounting buckets see the same
    // intervals: totals agree to well under a microsecond per rank.
    EXPECT_NEAR(b.traced_comm_us(), b.acct.comm_us, 1.0) << "rank " << b.rank;
    EXPECT_GE(b.acct.imbalance_us, 0.0);
    EXPECT_LE(b.acct.imbalance_us, b.acct.comm_us + 1e-9);
    EXPECT_GT(b.acct.compute_us, 0.0);
  }
  // Printing must not throw and mentions every rank.
  std::ostringstream os;
  print_wait_attribution(os, rows, 2.0);
  for (const RankBreakdown& b : rows) {
    EXPECT_NE(os.str().find(Table::fmt_int(b.rank)), std::string::npos);
  }
}

TEST(Observability, SolverSpansCountIterations) {
  perf::TraceCapture cap;
  const perf::ModelMeasurement m = measure_small(&cap);
  const SpanCounters cg = cap.tracers[0].counters("ds_cg_iter");
  // One span per converged CG iteration, each counting itself.
  EXPECT_DOUBLE_EQ(cg.cg_iterations, m.ni * static_cast<double>(m.steps));
  const SpanCounters ex = cap.tracers[0].counters("exchange");
  EXPECT_GT(ex.bytes, 0);
}

}  // namespace
}  // namespace hyades::cluster
