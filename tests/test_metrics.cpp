// Metrics registry and text-table tests.
#include <gtest/gtest.h>

#include <thread>

#include "common/error.h"
#include "metrics/invariants.h"
#include "metrics/metrics.h"
#include "metrics/table.h"

namespace imr {
namespace {

TEST(Metrics, TrafficByCategory) {
  MetricsRegistry m(2);
  m.add_traffic(0, 1, TrafficCategory::kShuffle, 100);
  m.add_traffic(1, 1, TrafficCategory::kShuffle, 50);
  m.add_traffic(-1, 0, TrafficCategory::kDfsRead, 10);
  EXPECT_EQ(m.traffic_bytes(TrafficCategory::kShuffle), 150);
  EXPECT_EQ(m.traffic_remote_bytes(TrafficCategory::kShuffle), 100);
  EXPECT_EQ(m.traffic_transfers(TrafficCategory::kShuffle), 2);
  EXPECT_EQ(m.total_remote_bytes(), 110);
  EXPECT_EQ(m.total_bytes(), 160);
}

// Slot 0 of the matrix holds the master (-1) and every id outside the
// cluster, so the default registry, which has only that slot, keeps totals
// but books nothing as remote. count_msg = false adds bytes, no transfer.
TEST(Metrics, TrafficMatrixSlots) {
  MetricsRegistry m(2);
  m.add_traffic(-1, 1, TrafficCategory::kControl, 7);
  m.add_traffic(5, -1, TrafficCategory::kControl, 3);
  m.add_traffic(0, 1, TrafficCategory::kShuffle, 11, /*count_msg=*/false);
  const TrafficMatrixSnapshot s = m.traffic_matrix();
  EXPECT_EQ(s.workers(), 2);
  EXPECT_EQ(s.cell(-1, 1, TrafficCategory::kControl).bytes, 7);
  EXPECT_EQ(s.cell(-1, -1, TrafficCategory::kControl).bytes, 3);
  EXPECT_EQ(m.traffic_remote_bytes(TrafficCategory::kControl), 7);
  EXPECT_EQ(m.traffic_transfers(TrafficCategory::kControl), 2);
  EXPECT_EQ(m.traffic_bytes(TrafficCategory::kShuffle), 11);
  EXPECT_EQ(m.traffic_transfers(TrafficCategory::kShuffle), 0);

  MetricsRegistry flat;
  flat.add_traffic(0, 1, TrafficCategory::kShuffle, 5);
  EXPECT_EQ(flat.total_bytes(), 5);
  EXPECT_EQ(flat.total_remote_bytes(), 0);
}

TEST(Metrics, TimesAccumulate) {
  MetricsRegistry m;
  m.add_time(TimeCategory::kJobInit, sim_ms(5));
  m.add_time(TimeCategory::kJobInit, sim_ms(3));
  EXPECT_EQ(m.time(TimeCategory::kJobInit), sim_ms(8));
}

TEST(Metrics, NamedCountersThreadSafe) {
  MetricsRegistry m;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&m] {
      for (int i = 0; i < 1000; ++i) m.inc("events");
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(m.count("events"), 4000);
  EXPECT_EQ(m.count("missing"), 0);
}

TEST(Metrics, ResetClearsEverything) {
  MetricsRegistry m(2);
  m.add_traffic(0, 1, TrafficCategory::kShuffle, 100);
  m.add_time(TimeCategory::kCompute, sim_ms(1));
  m.inc("x");
  m.reset();
  EXPECT_EQ(m.total_bytes(), 0);
  EXPECT_EQ(m.time(TimeCategory::kCompute).count(), 0);
  EXPECT_EQ(m.count("x"), 0);
}

TEST(Metrics, ReportMentionsActiveCategories) {
  MetricsRegistry m(2);
  m.add_traffic(1, 0, TrafficCategory::kBroadcast, 100);
  m.inc("imr_iterations", 7);
  std::string report = m.report();
  EXPECT_NE(report.find("broadcast"), std::string::npos);
  EXPECT_NE(report.find("imr_iterations"), std::string::npos);
  EXPECT_EQ(report.find("checkpoint"), std::string::npos);
}

TEST(RunReportCapture, PullsTotalsFromRegistry) {
  MetricsRegistry m(2);
  m.add_traffic(0, 1, TrafficCategory::kShuffle, 500);
  m.add_traffic(0, 0, TrafficCategory::kDfsRead, 200);
  m.add_time(TimeCategory::kJobInit, sim_ms(12));
  RunReport r;
  r.capture(m);
  EXPECT_EQ(r.bytes[TrafficCategory::kShuffle], 500);
  EXPECT_EQ(r.bytes[TrafficCategory::kDfsRead], 200);
  EXPECT_EQ(r.total_comm_bytes(), 500);
  EXPECT_EQ(r.time[TimeCategory::kJobInit], sim_ms(12));
}

TEST(RunReportCapture, CoversEveryCommunicationCategory) {
  MetricsRegistry m(2);
  m.add_traffic(0, 0, TrafficCategory::kReduceToMap, 300);
  m.add_traffic(0, 1, TrafficCategory::kReduceToMap, 120);
  m.add_traffic(1, 0, TrafficCategory::kBroadcast, 80);
  m.add_traffic(1, 1, TrafficCategory::kCheckpoint, 64);
  m.add_traffic(1, 0, TrafficCategory::kCheckpoint, 32);
  m.add_traffic(-1, 1, TrafficCategory::kControl, 9);
  RunReport r;
  r.capture(m);
  using TC = TrafficCategory;
  EXPECT_EQ(r.bytes[TC::kReduceToMap], 420);
  EXPECT_EQ(r.remote_bytes[TC::kReduceToMap], 120);
  EXPECT_EQ(r.bytes[TC::kBroadcast], 80);
  EXPECT_EQ(r.remote_bytes[TC::kBroadcast], 80);
  EXPECT_EQ(r.bytes[TC::kCheckpoint], 96);
  EXPECT_EQ(r.remote_bytes[TC::kCheckpoint], 32);
  EXPECT_EQ(r.bytes[TC::kControl], 9);
  EXPECT_EQ(r.remote_bytes[TC::kControl], 9);
  EXPECT_EQ(r.remote_bytes[TC::kShuffle], 0);
  // The report's per-category remote slices must sum to the communication
  // total (plus DFS, absent here) — the Fig. 11 decomposition closes.
  EXPECT_EQ(r.total_comm_bytes(),
            r.remote_bytes[TC::kReduceToMap] + r.remote_bytes[TC::kBroadcast] +
                r.remote_bytes[TC::kCheckpoint] + r.remote_bytes[TC::kControl]);
}

// Every category is captured, DFS remote bytes and the compute and sort
// times included, and subtract() scopes a later capture to its window.
TEST(RunReportCapture, CapturesEveryCategoryAndSubtractsABase) {
  MetricsRegistry m(2);
  m.add_traffic(1, 0, TrafficCategory::kDfsRead, 70);
  m.add_time(TimeCategory::kCompute, sim_ms(5));
  m.add_time(TimeCategory::kSort, sim_ms(2));
  RunReport base;
  base.capture(m);
  EXPECT_EQ(base.remote_bytes[TrafficCategory::kDfsRead], 70);
  EXPECT_EQ(base.total_comm_bytes(), 70);
  EXPECT_EQ(base.time[TimeCategory::kCompute], sim_ms(5));
  EXPECT_EQ(base.time[TimeCategory::kSort], sim_ms(2));

  m.add_traffic(0, 0, TrafficCategory::kDfsRead, 30);
  m.add_time(TimeCategory::kSort, sim_ms(3));
  RunReport window;
  window.capture(m);
  window.subtract(base);
  EXPECT_EQ(window.bytes[TrafficCategory::kDfsRead], 30);
  EXPECT_EQ(window.total_comm_bytes(), 0);
  EXPECT_EQ(window.time[TimeCategory::kCompute], sim_ms(0));
  EXPECT_EQ(window.time[TimeCategory::kSort], sim_ms(3));
}

// ---------------------------------------------------------------------------
// Histograms
// ---------------------------------------------------------------------------

TEST(Histogram, BucketIndexCoversPowerOfTwoRanges) {
  EXPECT_EQ(Histogram::bucket_index(-5), 0);
  EXPECT_EQ(Histogram::bucket_index(0), 0);
  EXPECT_EQ(Histogram::bucket_index(1), 1);
  EXPECT_EQ(Histogram::bucket_index(2), 2);
  EXPECT_EQ(Histogram::bucket_index(3), 2);
  EXPECT_EQ(Histogram::bucket_index(4), 3);
  EXPECT_EQ(Histogram::bucket_index(1023), 10);
  EXPECT_EQ(Histogram::bucket_index(1024), 11);
  EXPECT_EQ(Histogram::bucket_index(INT64_MAX), 63);
  // bucket b covers [bucket_lower(b), bucket_lower(b+1)).
  for (int b = 1; b < 62; ++b) {
    EXPECT_EQ(Histogram::bucket_index(Histogram::bucket_lower(b)), b);
    EXPECT_EQ(Histogram::bucket_index(Histogram::bucket_lower(b + 1) - 1), b);
  }
}

TEST(Histogram, CountMeanAndPercentiles) {
  Histogram h;
  EXPECT_EQ(h.count(), 0);
  EXPECT_EQ(h.percentile(50), 0.0);
  // 90 samples around 1000 (bucket [512, 1024)), 10 around 100000
  // (bucket [65536, 131072)).
  for (int i = 0; i < 90; ++i) h.record(1000);
  for (int i = 0; i < 10; ++i) h.record(100000);
  EXPECT_EQ(h.count(), 100);
  EXPECT_DOUBLE_EQ(h.mean(), (90 * 1000.0 + 10 * 100000.0) / 100.0);
  // Percentiles interpolate linearly inside the target bucket: rank r of n
  // bucket samples sits at fraction (r - 0.5) / n of [lower, 2*lower).
  // p50 -> rank 50 of 90 in [512, 1024): 512 + 512 * 49.5 / 90.
  EXPECT_DOUBLE_EQ(h.percentile(50), 512 + 512 * 49.5 / 90);
  // p90 -> rank 90 of 90 in [512, 1024): near the bucket's upper edge.
  EXPECT_DOUBLE_EQ(h.percentile(90), 512 + 512 * 89.5 / 90);
  // p99 -> rank 9 of the 10 samples in [65536, 131072).
  EXPECT_DOUBLE_EQ(h.percentile(99), 65536 + 65536 * 8.5 / 10);
  // Log-bucket accuracy promise: within one bucket width of the true value.
  EXPECT_GT(h.percentile(50), 512.0);
  EXPECT_LT(h.percentile(50), 1024.0);
}

TEST(Histogram, ZeroAndNegativeSamplesLandInBucketZero) {
  Histogram h;
  h.record(0);
  h.record(-17);
  EXPECT_EQ(h.count(), 2);
  EXPECT_DOUBLE_EQ(h.percentile(99), 0.0);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);  // non-positive samples don't enter sum
}

TEST(Histogram, MergeAccumulatesAndResetClears) {
  Histogram a, b;
  for (int i = 0; i < 10; ++i) a.record(100);
  for (int i = 0; i < 10; ++i) b.record(4000);
  a.merge(b);
  EXPECT_EQ(a.count(), 20);
  EXPECT_DOUBLE_EQ(a.mean(), (10 * 100.0 + 10 * 4000.0) / 20.0);
  // p99 -> rank 19 of 20: the 9th of b's 10 samples in [2048, 4096).
  EXPECT_DOUBLE_EQ(a.percentile(99), 2048 + 2048 * 8.5 / 10);
  a.reset();
  EXPECT_EQ(a.count(), 0);
  EXPECT_DOUBLE_EQ(a.mean(), 0.0);
  EXPECT_EQ(b.count(), 10);  // merge source untouched
}

TEST(Histogram, ConcurrentRecordLosesNothing) {
  Histogram h;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&h, t] {
      for (int i = 0; i < 10000; ++i) h.record(1 + t);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(h.count(), 40000);
}

TEST(Metrics, HistogramRegistryIsStableAcrossReset) {
  MetricsRegistry m;
  Histogram& h = m.histogram("latency_ns");
  h.record(1000);
  EXPECT_EQ(&h, &m.histogram("latency_ns"));  // stable reference
  m.reset();
  // reset() clears contents but keeps the entry: cached pointers stay valid.
  EXPECT_EQ(h.count(), 0);
  h.record(2000);
  EXPECT_EQ(m.histogram("latency_ns").count(), 1);
}

TEST(Metrics, ReportShowsHistogramPercentiles) {
  MetricsRegistry m;
  Histogram& h = m.histogram("queue_wait_us");
  for (int i = 0; i < 100; ++i) h.record(1000);
  m.histogram("empty_one");  // empty histograms are skipped
  std::string report = m.report();
  EXPECT_NE(report.find("queue_wait_us"), std::string::npos);
  EXPECT_NE(report.find("p50"), std::string::npos);
  EXPECT_EQ(report.find("empty_one"), std::string::npos);
}

TEST(TextTable, RendersAlignedColumns) {
  TextTable t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "12345"});
  std::string s = t.render();
  EXPECT_NE(s.find("| alpha |     1 |"), std::string::npos);
  EXPECT_NE(s.find("| b     | 12345 |"), std::string::npos);
}

TEST(TextTable, CsvOutput) {
  TextTable t({"a", "b"});
  t.add_row({"1", "2"});
  EXPECT_EQ(t.csv(), "a,b\n1,2\n");
}

TEST(TextTable, RejectsRaggedRows) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), Error);
}

// ---------------------------------------------------------------------------
// InvariantChecker
// ---------------------------------------------------------------------------

TEST(InvariantChecker, CleanStateHasNoViolations) {
  MetricsRegistry m(2);
  m.add_traffic(0, 1, TrafficCategory::kShuffle, 100);
  ChannelStats stats;
  stats.attempts = 10;
  stats.delivered = 8;
  stats.dropped = 1;
  stats.rejected = 1;
  stats.received = 7;
  stats.discarded = 1;
  auto violations =
      InvariantChecker(m).with_channel_stats(stats).check(InvariantExpectations{});
  EXPECT_TRUE(violations.empty())
      << ::testing::PrintToString(violations);
}

TEST(InvariantChecker, DetectsChannelLedgerImbalance) {
  MetricsRegistry m;
  ChannelStats stats;
  stats.attempts = 10;
  stats.delivered = 8;  // 2 attempts unaccounted for
  auto violations = InvariantChecker(m).with_channel_stats(stats).check();
  ASSERT_FALSE(violations.empty());
  EXPECT_NE(violations[0].find("channel ledger"), std::string::npos);
}

TEST(InvariantChecker, DetectsUnquiescedDeliveries) {
  MetricsRegistry m;
  ChannelStats stats;
  stats.attempts = 5;
  stats.delivered = 5;
  stats.received = 3;  // 2 delivered messages vanished
  EXPECT_FALSE(InvariantChecker(m).with_channel_stats(stats).check().empty());
  InvariantExpectations mid_run;
  mid_run.quiesced = false;
  EXPECT_TRUE(
      InvariantChecker(m).with_channel_stats(stats).check(mid_run).empty());
}

TEST(InvariantChecker, DetectsRemoteBytesOnStateChannel) {
  MetricsRegistry m(2);
  m.add_traffic(0, 1, TrafficCategory::kReduceToMap, 64);
  auto violations = InvariantChecker(m).check();
  ASSERT_FALSE(violations.empty());
  EXPECT_NE(violations[0].find("co-located"), std::string::npos);
  InvariantExpectations one2all;
  one2all.colocated_state_channel = false;
  EXPECT_TRUE(InvariantChecker(m).check(one2all).empty());
}

TEST(InvariantChecker, IterationLedgerMustStepByOneEvenAcrossRollbacks) {
  MetricsRegistry m;
  RunReport r;
  // A recovered run reads as one consecutive sequence: the engine truncates
  // entries above the restored checkpoint before the re-run appends.
  for (int it : {1, 2, 3, 4}) {
    IterationStat st;
    st.iteration = it;
    r.iterations.push_back(st);
  }
  r.iterations_run = 4;
  r.rollback_iterations = {1};
  EXPECT_TRUE(InvariantChecker(m).with_report(r).check().empty());

  // Duplicated entries (3 -> 2 restart left in the ledger) mean the engine
  // skipped the truncation — a violation even when a rollback is on record.
  r.iterations.clear();
  for (int it : {1, 2, 3, 2, 3, 4}) {
    IterationStat st;
    st.iteration = it;
    r.iterations.push_back(st);
  }
  auto violations = InvariantChecker(m).with_report(r).check();
  ASSERT_FALSE(violations.empty());
  EXPECT_NE(violations[0].find("step by one"), std::string::npos);
}

// Rule 5 also reads each decision's reports: one per last-phase reduce, so
// no task twice in an iteration and the same count in every iteration.
TEST(InvariantChecker, IterationReportsNameDistinctTasksInEqualCounts) {
  MetricsRegistry m;
  RunReport r;
  for (int it : {1, 2}) {
    IterationStat st;
    st.iteration = it;
    for (int task : {0, 1, 2}) st.reports.push_back(TaskReport{.task = task});
    r.iterations.push_back(st);
  }
  r.iterations_run = 2;
  EXPECT_TRUE(InvariantChecker(m).with_report(r).check().empty());

  r.iterations[1].reports[2].task = 0;  // task 0 reported iteration 2 twice
  auto violations = InvariantChecker(m).with_report(r).check();
  ASSERT_EQ(violations.size(), 1u) << ::testing::PrintToString(violations);
  EXPECT_NE(violations[0].find("repeats a reporting task"), std::string::npos)
      << violations[0];

  r.iterations[1].reports.pop_back();  // iteration 2 decided on fewer
  violations = InvariantChecker(m).with_report(r).check();
  ASSERT_EQ(violations.size(), 1u) << ::testing::PrintToString(violations);
  EXPECT_NE(violations[0].find("decided on 2 reports"), std::string::npos)
      << violations[0];
}

TEST(InvariantChecker, DetectsMixedIterationPartFiles) {
  MetricsRegistry m;
  RunReport r;
  IterationStat st;
  st.iteration = 5;
  r.iterations.push_back(st);
  r.iterations_run = 5;
  r.final_part_iterations = {5, 5, 4};  // one part lagged an iteration
  auto violations = InvariantChecker(m).with_report(r).check();
  ASSERT_FALSE(violations.empty());
  EXPECT_NE(violations[0].find("part file"), std::string::npos);
}

TEST(InvariantChecker, RecoveryAccountingComparesReportAndMetrics) {
  MetricsRegistry m;
  m.inc("imr_recoveries");
  RunReport r;
  r.rollback_iterations = {2};
  InvariantExpectations expect;
  expect.expected_recoveries = 1;
  EXPECT_TRUE(InvariantChecker(m).with_report(r).check(expect).empty());

  expect.expected_recoveries = 2;  // claims a recovery that never happened
  EXPECT_FALSE(InvariantChecker(m).with_report(r).check(expect).empty());
}

}  // namespace
}  // namespace imr
