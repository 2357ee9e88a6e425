// Deterministic chaos tests: seeded fault schedules swept across injection
// points and algorithms, every run checked against the sequential reference
// and the InvariantChecker. A failing case is reproducible from its parameter
// tuple alone (docs/PROTOCOL.md, "Fault injection & chaos testing").
#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "algorithms/pagerank.h"
#include "algorithms/sssp.h"
#include "graph/generator.h"
#include "imapreduce/engine.h"
#include "tests/chaos_harness.h"
#include "tests/test_util.h"

namespace imr {
namespace {

using chaos::run_chaos_job;
using testutil::expect_near_vectors;

// ---------------------------------------------------------------------------
// The sweep: 5 seeds x 5 injection points x 2 algorithms = 50 cases.
// (kMigration is exercised by the targeted cascade test below — its respawn
// target depends on live-worker load, so it does not sweep independently.)
// ---------------------------------------------------------------------------

enum class ChaosAlgo { kSssp, kPageRank };

const char* algo_name(ChaosAlgo a) {
  return a == ChaosAlgo::kSssp ? "Sssp" : "PageRank";
}

using SweepParam = std::tuple<uint64_t, FaultPoint, ChaosAlgo>;

class ChaosSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(ChaosSweep, RecoversAndMatchesReference) {
  const auto [seed, point, algo] = GetParam();
  constexpr int kWorkers = 3;
  constexpr int kTasks = 4;
  constexpr int kIterations = 7;

  auto cluster = testutil::free_cluster(kWorkers, 4, 4);

  Graph g;
  IterJobConf conf;
  if (algo == ChaosAlgo::kSssp) {
    g = make_sssp_graph("dblp", 0.001, 5);
    Sssp::setup(*cluster, g, 0, "in");
    conf = Sssp::imapreduce("in", "out", kIterations);
  } else {
    g = make_pagerank_graph("google", 0.0003, 21);
    PageRank::setup(*cluster, g, "in");
    conf = PageRank::imapreduce("in", "out", g.num_nodes(), kIterations);
  }
  conf.num_tasks = kTasks;
  conf.checkpoint_every = 2;

  // One worker death derived from the seed; every point fires within the
  // run (at_iteration <= 5 < kIterations, and the checkpoint-write point
  // reaches a checkpoint iteration by 6 at the latest).
  FaultSchedule schedule;
  schedule.add(chaos::derive_fault(seed, kWorkers, /*max_iteration=*/5,
                                   point));

  InvariantExpectations expect;
  expect.expected_recoveries = 1;
  expect.expected_parts = kTasks;
  auto result = run_chaos_job(*cluster, conf, schedule, ChannelFaultConfig{},
                              expect);

  EXPECT_TRUE(result.violations.empty())
      << "invariant violations (seed=" << seed
      << ", point=" << fault_point_name(point) << ", algo="
      << algo_name(algo) << "):\n  "
      << ::testing::PrintToString(result.violations);
  EXPECT_EQ(result.report.iterations_run, kIterations);
  chaos::expect_all_faults_consumed(*cluster);

  // The recovered run must produce exactly the failure-free result.
  if (algo == ChaosAlgo::kSssp) {
    expect_near_vectors(Sssp::reference(g, 0, kIterations),
                        Sssp::read_result_imr(*cluster, "out", g.num_nodes()),
                        1e-12);
  } else {
    expect_near_vectors(
        PageRank::reference(g, kIterations),
        PageRank::read_result_imr(*cluster, "out", g.num_nodes()), 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsByPointsByAlgos, ChaosSweep,
    ::testing::Combine(
        ::testing::Values(uint64_t{1}, uint64_t{2}, uint64_t{3}, uint64_t{4},
                          uint64_t{5}),
        ::testing::Values(FaultPoint::kIterationBoundary, FaultPoint::kMidMap,
                          FaultPoint::kMidShuffle,
                          FaultPoint::kCheckpointWrite,
                          FaultPoint::kStatePush),
        ::testing::Values(ChaosAlgo::kSssp, ChaosAlgo::kPageRank)),
    [](const ::testing::TestParamInfo<SweepParam>& info) {
      return std::string("seed") + std::to_string(std::get<0>(info.param)) +
             "_" + fault_point_name(std::get<1>(info.param)) + "_" +
             algo_name(std::get<2>(info.param));
    });

// ---------------------------------------------------------------------------
// Targeted regressions
// ---------------------------------------------------------------------------

// §3.4.1 rollback ordering: a worker that dies DURING a checkpoint write
// leaves a torn part file behind, and recovery must restore the previous
// complete checkpoint — never the torn one. The write-then-report ordering
// guarantees it: the master never collected all of iteration 6's reports, so
// last_ckpt stays at 3.
TEST(ChaosRegression, TornCheckpointRecoversFromPreviousComplete) {
  auto cluster = testutil::free_cluster(4, 4, 4);
  Graph g = make_sssp_graph("dblp", 0.002, 5);
  Sssp::setup(*cluster, g, 0, "in");

  IterJobConf conf = Sssp::imapreduce("in", "out", 8);
  conf.checkpoint_every = 3;  // checkpoints at 3 and 6

  FaultSchedule schedule;
  schedule.add(/*worker=*/1, FaultPoint::kCheckpointWrite,
               /*at_iteration=*/4);  // trips at the k=6 checkpoint

  InvariantExpectations expect;
  expect.expected_recoveries = 1;
  auto result = run_chaos_job(*cluster, conf, schedule, ChannelFaultConfig{},
                              expect);

  EXPECT_TRUE(result.violations.empty())
      << ::testing::PrintToString(result.violations);
  EXPECT_EQ(cluster->metrics().count("imr_torn_checkpoints"), 1);
  // The one recovery rolled back to checkpoint 3, not the torn 6.
  ASSERT_EQ(result.report.rollback_iterations, std::vector<int>{3});
  EXPECT_EQ(result.report.iterations_run, 8);
  chaos::expect_all_faults_consumed(*cluster);

  // Recovering from the torn checkpoint would lose half of part 1's nodes;
  // exact agreement with the reference proves it was never read.
  expect_near_vectors(Sssp::reference(g, 0, 8),
                      Sssp::read_result_imr(*cluster, "out", g.num_nodes()),
                      1e-12);
}

// Cascading failure: the worker that receives the recovered tasks dies while
// restoring them (§3.4.2's failure-during-recovery case). With one pair per
// worker the respawn target is deterministic: pairs from worker 1 land on
// worker 0 (lowest-id least-loaded), whose scheduled kMigration fault then
// kills it, pushing everything to worker 2.
TEST(ChaosRegression, CascadingFailureDuringRecovery) {
  auto cluster = testutil::free_cluster(3, 4, 4);
  Graph g = make_sssp_graph("dblp", 0.002, 7);
  Sssp::setup(*cluster, g, 0, "in");

  IterJobConf conf = Sssp::imapreduce("in", "out", 8);
  conf.num_tasks = 3;
  conf.checkpoint_every = 2;

  FaultSchedule schedule;
  schedule.add(/*worker=*/1, FaultPoint::kIterationBoundary,
               /*at_iteration=*/3);
  schedule.add(/*worker=*/0, FaultPoint::kMigration, /*at_iteration=*/1);

  InvariantExpectations expect;
  expect.expected_recoveries = 2;
  expect.expected_parts = 3;
  auto result = run_chaos_job(*cluster, conf, schedule, ChannelFaultConfig{},
                              expect);

  EXPECT_TRUE(result.violations.empty())
      << ::testing::PrintToString(result.violations);
  // Both recoveries restored checkpoint 2: the cascade struck before any
  // later iteration could be decided.
  ASSERT_EQ(result.report.rollback_iterations, (std::vector<int>{2, 2}));
  EXPECT_FALSE(cluster->worker_alive(0));
  EXPECT_FALSE(cluster->worker_alive(1));
  EXPECT_TRUE(cluster->worker_alive(2));
  EXPECT_EQ(result.report.iterations_run, 8);
  chaos::expect_all_faults_consumed(*cluster);

  expect_near_vectors(Sssp::reference(g, 0, 8),
                      Sssp::read_result_imr(*cluster, "out", g.num_nodes()),
                      1e-12);
}

// A failure that strikes AFTER iterations beyond the last checkpoint were
// decided: the rollback must truncate those per-iteration stats before the
// re-run appends its own, leaving one strictly consecutive 1..N sequence.
// (Without truncation the report reads 1,2,3,4,4,5,... — a duplicated entry
// for every re-run iteration.)
TEST(ChaosRegression, IterationStatsStayConsecutiveAfterRollback) {
  auto cluster = testutil::free_cluster(4, 4, 4);
  Graph g = make_sssp_graph("dblp", 0.002, 15);
  Sssp::setup(*cluster, g, 0, "in");

  IterJobConf conf = Sssp::imapreduce("in", "out", 8);
  conf.checkpoint_every = 3;  // checkpoints at 3 and 6

  FaultSchedule schedule;
  // Dies entering iteration 5: iteration 4 is already decided and recorded,
  // but the restored checkpoint is at most 3 — every entry above it must be
  // dropped and re-earned. (The exact restore point is timing-dependent:
  // checkpoints are written in parallel with the iteration, and a slow run
  // — TSan — can fail before checkpoint 3 completes and restore 0 instead.
  // Either way entries above the restore point exist and must go.)
  schedule.add(/*worker=*/1, FaultPoint::kMidMap, /*at_iteration=*/5);

  InvariantExpectations expect;
  expect.expected_recoveries = 1;
  auto result = run_chaos_job(*cluster, conf, schedule, ChannelFaultConfig{},
                              expect);

  EXPECT_TRUE(result.violations.empty())
      << ::testing::PrintToString(result.violations);
  ASSERT_EQ(result.report.rollback_iterations.size(), 1u);
  EXPECT_LE(result.report.rollback_iterations[0], 3);
  ASSERT_EQ(result.report.iterations.size(), 8u);
  for (std::size_t n = 0; n < result.report.iterations.size(); ++n) {
    EXPECT_EQ(result.report.iterations[n].iteration, static_cast<int>(n) + 1);
  }
  chaos::expect_all_faults_consumed(*cluster);
  expect_near_vectors(Sssp::reference(g, 0, 8),
                      Sssp::read_result_imr(*cluster, "out", g.num_nodes()),
                      1e-12);
}

// Two independent worker deaths at different injection points.
TEST(ChaosRegression, TwoIndependentFailuresAtDifferentPoints) {
  auto cluster = testutil::free_cluster(4, 4, 4);
  Graph g = make_sssp_graph("dblp", 0.002, 9);
  Sssp::setup(*cluster, g, 0, "in");

  IterJobConf conf = Sssp::imapreduce("in", "out", 8);
  conf.checkpoint_every = 2;

  FaultSchedule schedule;
  schedule.add(/*worker=*/1, FaultPoint::kMidMap, /*at_iteration=*/2);
  schedule.add(/*worker=*/2, FaultPoint::kStatePush, /*at_iteration=*/5);

  InvariantExpectations expect;
  expect.expected_recoveries = 2;
  auto result = run_chaos_job(*cluster, conf, schedule, ChannelFaultConfig{},
                              expect);

  EXPECT_TRUE(result.violations.empty())
      << ::testing::PrintToString(result.violations);
  EXPECT_EQ(result.report.iterations_run, 8);
  chaos::expect_all_faults_consumed(*cluster);
  expect_near_vectors(Sssp::reference(g, 0, 8),
                      Sssp::read_result_imr(*cluster, "out", g.num_nodes()),
                      1e-12);
}

// A scheduled fault is consumed exactly once: a second job sharing the
// cluster (with the dead worker revived) must run failure-free even though
// it re-probes every injection point with the same worker/iteration pattern.
TEST(ChaosRegression, ConsumedFaultCannotLeakIntoNextJob) {
  auto cluster = testutil::free_cluster(4, 4, 4);
  Graph g = make_sssp_graph("dblp", 0.002, 5);
  Sssp::setup(*cluster, g, 0, "in");

  IterJobConf conf = Sssp::imapreduce("in", "out", 6);
  conf.checkpoint_every = 2;

  FaultSchedule schedule;
  schedule.add(/*worker=*/1, FaultPoint::kIterationBoundary,
               /*at_iteration=*/3);
  InvariantExpectations expect;
  expect.expected_recoveries = 1;
  auto first = run_chaos_job(*cluster, conf, schedule, ChannelFaultConfig{},
                             expect);
  EXPECT_TRUE(first.violations.empty())
      << ::testing::PrintToString(first.violations);
  EXPECT_EQ(cluster->consumed_fault_count(), 1);
  chaos::expect_all_faults_consumed(*cluster);

  // Same cluster, same worker layout, no new schedule: nothing may fire.
  cluster->revive_worker(1);
  conf.output_path = "out2";
  IterativeEngine engine(*cluster);
  RunReport second = engine.run(conf);
  EXPECT_EQ(second.iterations_run, 6);
  EXPECT_TRUE(second.rollback_iterations.empty());
  EXPECT_EQ(cluster->metrics().count("imr_recoveries"), 1);  // job 1 only
  EXPECT_EQ(cluster->consumed_fault_count(), 1);
  expect_near_vectors(Sssp::reference(g, 0, 6),
                      Sssp::read_result_imr(*cluster, "out2", g.num_nodes()),
                      1e-12);
}

// Transient channel faults: heavy seeded drops with retry/backoff lose no
// data — the ledger reconciles and the result is exact.
TEST(ChaosChannel, HeavyDropsLoseNothing) {
  auto cluster = testutil::costed_cluster(4, 4, 4);
  Graph g = make_sssp_graph("dblp", 0.002, 11);
  Sssp::setup(*cluster, g, 0, "in");

  IterJobConf conf = Sssp::imapreduce("in", "out", 6);
  conf.buffer_records = 8;  // many small batches -> many drop opportunities

  ChannelFaultConfig channel;
  channel.drop_rate = 0.3;
  channel.seed = 77;
  auto result = run_chaos_job(*cluster, conf, FaultSchedule{}, channel);

  EXPECT_TRUE(result.violations.empty())
      << ::testing::PrintToString(result.violations);
  ChannelStats stats = cluster->fabric().channel_stats();
  EXPECT_GT(stats.dropped, 0);
  EXPECT_EQ(stats.attempts, stats.delivered + stats.dropped + stats.rejected);
  EXPECT_GT(cluster->metrics().count("net_dropped_sends"), 0);
  EXPECT_EQ(result.report.iterations_run, 6);
  expect_near_vectors(Sssp::reference(g, 0, 6),
                      Sssp::read_result_imr(*cluster, "out", g.num_nodes()),
                      1e-12);
}

// Worker death and channel faults together: recovery must work over a lossy
// fabric too.
TEST(ChaosChannel, WorkerDeathUnderChannelFaults) {
  auto cluster = testutil::free_cluster(4, 4, 4);
  Graph g = make_sssp_graph("dblp", 0.002, 13);
  Sssp::setup(*cluster, g, 0, "in");

  IterJobConf conf = Sssp::imapreduce("in", "out", 7);
  conf.checkpoint_every = 2;
  conf.buffer_records = 16;

  FaultSchedule schedule;
  schedule.add(/*worker=*/2, FaultPoint::kMidShuffle, /*at_iteration=*/4);
  ChannelFaultConfig channel;
  channel.drop_rate = 0.15;
  channel.seed = 99;

  InvariantExpectations expect;
  expect.expected_recoveries = 1;
  auto result = run_chaos_job(*cluster, conf, schedule, channel, expect);

  EXPECT_TRUE(result.violations.empty())
      << ::testing::PrintToString(result.violations);
  EXPECT_GT(cluster->fabric().channel_stats().dropped, 0);
  EXPECT_EQ(result.report.iterations_run, 7);
  chaos::expect_all_faults_consumed(*cluster);
  expect_near_vectors(Sssp::reference(g, 0, 7),
                      Sssp::read_result_imr(*cluster, "out", g.num_nodes()),
                      1e-12);
}

}  // namespace
}  // namespace imr
