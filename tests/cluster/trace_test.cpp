#include "cluster/trace.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <mutex>

#include "comm/comm.hpp"
#include "gcm/model.hpp"
#include "net/arctic_model.hpp"
#include "tests/gcm/gcm_test_util.hpp"

namespace hyades::cluster {
namespace {

TEST(Tracer, RecordsAndTotals) {
  Tracer t;
  t.record("gsum", SpanCat::kGsum, 0.0, 4.0);
  t.record("exchange", SpanCat::kExchange, 4.0, 120.0);
  t.record("gsum", SpanCat::kGsum, 120.0, 125.0);
  EXPECT_EQ(t.events().size(), 3u);
  EXPECT_DOUBLE_EQ(t.total("gsum"), 9.0);
  EXPECT_DOUBLE_EQ(t.total("exchange"), 116.0);
  EXPECT_DOUBLE_EQ(t.total("nothing"), 0.0);
  t.clear();
  EXPECT_TRUE(t.events().empty());
}

TEST(Tracer, CommPrimitivesRecordIntervals) {
  gcm::testing::run_ranks(4, [&](RankContext& ctx, comm::Comm& comm) {
    Tracer tracer;
    ctx.set_tracer(&tracer);
    (void)comm.global_sum(1.0);
    std::array<int, comm::kDirections> nb{comm.group_rank() ^ 1,
                                          comm.group_rank() ^ 1, -1, -1};
    comm::Comm::Buffers buf;
    buf.out[comm::kEast].assign(8, 1.0);
    buf.out[comm::kWest].assign(8, 1.0);
    buf.in[comm::kEast].assign(8, 0.0);
    buf.in[comm::kWest].assign(8, 0.0);
    comm.exchange(nb, buf);
    ctx.set_tracer(nullptr);

    ASSERT_EQ(tracer.events().size(), 2u);
    EXPECT_EQ(tracer.events()[0].op, "gsum");
    EXPECT_EQ(tracer.events()[1].op, "exchange");
    // Intervals are ordered and non-negative on the virtual clock.
    for (const TraceEvent& e : tracer.events()) {
      EXPECT_GE(e.end_us, e.begin_us);
    }
    EXPECT_LE(tracer.events()[0].end_us, tracer.events()[1].begin_us);
  });
}

TEST(Tracer, ModelStepProducesPhaseTimeline) {
  const gcm::ModelConfig cfg = gcm::testing::small_ocean(2, 2);
  std::mutex mu;
  gcm::testing::run_ranks(4, [&](RankContext& ctx, comm::Comm& comm) {
    Tracer tracer;
    ctx.set_tracer(&tracer);
    gcm::Model m(cfg, comm);
    m.initialize();
    m.run(2);
    ctx.set_tracer(nullptr);

    std::lock_guard<std::mutex> lock(mu);
    int ps = 0, ds = 0, gsum = 0, exch = 0;
    for (const TraceEvent& e : tracer.events()) {
      if (e.op == "ps") ++ps;
      if (e.op == "ds") ++ds;
      if (e.op == "gsum") ++gsum;
      if (e.op == "exchange") ++exch;
    }
    EXPECT_EQ(ps, 2);
    EXPECT_EQ(ds, 2);
    // Each step: >= 5 PS exchanges (x+y stages count once each at the
    // comm level: 2 per field) plus the DS-phase solver traffic.
    EXPECT_GE(exch, 2 * (5 * 2 + 2));
    EXPECT_GT(gsum, 4);
    // PS time accounted in the trace matches the stepper's observables.
    EXPECT_NEAR(tracer.total("ps"),
                m.stepper().observables().tps_us, 1e-6);
  });
}

TEST(Tracer, CsvRoundTrip) {
  Tracer a, b;
  a.record("gsum", SpanCat::kGsum, 0.0, 5.0);
  b.record("exchange", SpanCat::kExchange, 1.0, 7.5);
  const std::string path = ::testing::TempDir() + "hyades_trace.csv";
  write_trace_csv(path, {&a, &b});
  std::ifstream is(path);
  std::string header, l1, l2;
  std::getline(is, header);
  std::getline(is, l1);
  std::getline(is, l2);
  EXPECT_EQ(header, "rank,op,begin_us,end_us");
  EXPECT_EQ(l1, "0,gsum,0,5");
  EXPECT_EQ(l2, "1,exchange,1,7.5");
  std::remove(path.c_str());
}

TEST(Tracer, NullRankSkipped) {
  Tracer a;
  a.record("x", SpanCat::kOther, 0, 1);
  const std::string path = ::testing::TempDir() + "hyades_trace2.csv";
  write_trace_csv(path, {nullptr, &a});
  std::ifstream is(path);
  std::string header, l1;
  std::getline(is, header);
  std::getline(is, l1);
  EXPECT_EQ(l1, "1,x,0,1");
  std::remove(path.c_str());
}

}  // namespace
}  // namespace hyades::cluster
