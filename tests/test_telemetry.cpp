// Telemetry suite — the iteration-telemetry subsystem end to end.
//
// The load-bearing properties:
//   * conservation — the registry's worker x worker traffic matrix is
//     quiet once a job returns (invariant 10), through seeded worker
//     deaths, rollbacks, and migrations, and the iteration buckets merge
//     exactly across the sending threads' shards;
//   * determinism — same-seed fault-free runs export byte-identical
//     telemetry JSONL outside the duration fields (virtual durations track
//     per-flow network contention, which depends on the real thread
//     schedule; every byte, count, and sequence field is bit-reproducible);
//   * evidence quality — an injected hot key is named by the merged
//     SpaceSaving sketches, a deliberately slowed worker is named by the
//     straggler ranking, and rollbacks leave no duplicate iteration
//     records;
//   * windowing — per-epoch session reports (RunReport::capture, then
//     subtract of the epoch base) tile: the epoch deltas sum to the
//     cumulative close() report.
#include <gtest/gtest.h>

#include <algorithm>
#include <regex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "algorithms/pagerank.h"
#include "algorithms/sssp.h"
#include "cluster/fault_schedule.h"
#include "common/codec.h"
#include "graph/generator.h"
#include "imapreduce/conf.h"
#include "imapreduce/engine.h"
#include "metrics/invariants.h"
#include "metrics/metrics.h"
#include "metrics/telemetry.h"
#include "tests/chaos_harness.h"
#include "tests/test_util.h"

namespace imr {
namespace {

using chaos::run_chaos_job;

// The telemetry iter lines are views of the report's iteration records: the
// same iteration, generation, session, decision time, distance and workset,
// in the same order.
void expect_iters_match_report(const std::vector<IterTelemetry>& iters,
                               const std::vector<IterationStat>& report) {
  ASSERT_EQ(iters.size(), report.size());
  for (std::size_t k = 0; k < iters.size(); ++k) {
    SCOPED_TRACE("iter line " + std::to_string(k));
    EXPECT_EQ(iters[k].iteration, report[k].iteration);
    EXPECT_EQ(iters[k].generation, report[k].generation);
    EXPECT_EQ(iters[k].session, report[k].session);
    EXPECT_EQ(iters[k].vt_ms, report[k].wall_ms_end);
    EXPECT_EQ(iters[k].distance, report[k].distance);
    EXPECT_EQ(iters[k].workset, report[k].workset_size);
  }
}

// ---------------------------------------------------------------------------
// Histogram percentile interpolation (companion pins to test_metrics).
// ---------------------------------------------------------------------------

TEST(HistogramPercentile, SingleSampleReportsBucketMidpoint) {
  Histogram h;
  h.record(5);  // bucket [4, 8)
  EXPECT_DOUBLE_EQ(h.percentile(50), 6.0);
  EXPECT_DOUBLE_EQ(h.percentile(99), 6.0);
}

TEST(HistogramPercentile, EmptyAndZeroBucket) {
  Histogram h;
  EXPECT_DOUBLE_EQ(h.percentile(50), 0.0);
  h.record(0);  // bucket 0 has no width
  EXPECT_DOUBLE_EQ(h.percentile(50), 0.0);
}

TEST(HistogramPercentile, SpreadsMultiSampleBucketEvenly) {
  Histogram h;
  h.record(4);
  h.record(7);  // both in [4, 8): ranks sit at 1/4 and 3/4 of the width
  EXPECT_DOUBLE_EQ(h.percentile(50), 5.0);
  EXPECT_DOUBLE_EQ(h.percentile(100), 7.0);
}

// ---------------------------------------------------------------------------
// SpaceSaving sketch
// ---------------------------------------------------------------------------

TEST(SpaceSaving, ExactUnderCapacity) {
  SpaceSaving s(8);
  s.offer("a", 3);
  s.offer("b", 2);
  s.offer("a", 1);
  auto top = s.top();
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].key, "a");
  EXPECT_EQ(top[0].count, 4);
  EXPECT_EQ(top[0].error, 0);
  EXPECT_EQ(top[1].key, "b");
  EXPECT_EQ(top[1].count, 2);
  EXPECT_EQ(top[1].error, 0);
  EXPECT_EQ(s.total(), 6);
}

TEST(SpaceSaving, EvictionInheritsMinCount) {
  SpaceSaving s(2);
  s.offer("a");
  s.offer("a");
  s.offer("b");
  s.offer("c");  // evicts b (min count 1); c inherits count 1 as error
  auto top = s.top();
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].key, "a");
  EXPECT_EQ(top[0].count, 2);
  EXPECT_EQ(top[1].key, "c");
  EXPECT_EQ(top[1].count, 2);  // inherited 1 + its own 1
  EXPECT_EQ(top[1].error, 1);
  EXPECT_EQ(s.total(), 4);
}

TEST(SpaceSaving, HeavyHitterGuaranteeAndErrorBound) {
  // One key at frequency 200 in a stream of N = 240 with capacity k = 8:
  // 200 > N/k = 30, so "hot" must survive, with error <= N/k.
  SpaceSaving s(8);
  for (int i = 0; i < 40; ++i) s.offer("cold" + std::to_string(i));
  for (int i = 0; i < 200; ++i) s.offer("hot");
  ASSERT_EQ(s.total(), 240);
  auto top = s.top();
  ASSERT_FALSE(top.empty());
  EXPECT_EQ(top[0].key, "hot");
  EXPECT_GE(top[0].count, 200);
  EXPECT_LE(top[0].error, 240 / 8);
  EXPECT_LE(top[0].count - top[0].error, 200);
}

TEST(SpaceSaving, MergeIsCommutative) {
  SpaceSaving a(4), b(4);
  for (int i = 0; i < 30; ++i) a.offer("k" + std::to_string(i % 7));
  for (int i = 0; i < 30; ++i) b.offer("k" + std::to_string((i * 3) % 11));
  SpaceSaving ab = a, ba = b;
  ab.merge(b);
  ba.merge(a);
  auto ta = ab.top(), tb = ba.top();
  ASSERT_EQ(ta.size(), tb.size());
  for (std::size_t i = 0; i < ta.size(); ++i) {
    EXPECT_EQ(ta[i].key, tb[i].key);
    EXPECT_EQ(ta[i].count, tb[i].count);
    EXPECT_EQ(ta[i].error, tb[i].error);
  }
  EXPECT_EQ(ab.total(), 60);
}

// ---------------------------------------------------------------------------
// End-to-end telemetry over real runs. The recorder gate is process-global,
// so the fixture arms it and clears recorded runs around every test.
// ---------------------------------------------------------------------------

class TelemetryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TelemetryRecorder::instance().reset();
    TelemetryRecorder::instance().enable();
  }
  void TearDown() override {
    TelemetryRecorder::instance().disable();
    TelemetryRecorder::instance().reset();
  }
};

TEST_F(TelemetryTest, CleanRunMatrixConservesAndRecordsIterations) {
  auto cluster = testutil::costed_cluster();
  Graph g = make_pagerank_graph("google", 0.0005, 7);
  PageRank::setup(*cluster, g, "in");
  IterJobConf conf = PageRank::imapreduce("in", "out", g.num_nodes(), 5);
  conf.num_tasks = 4;
  RunReport report = IterativeEngine(*cluster).run(conf);

  auto violations =
      InvariantChecker(cluster->metrics())
          .with_report(report)
          .with_traffic_matrix(cluster->metrics().traffic_matrix())
          .check();
  EXPECT_TRUE(violations.empty()) << ::testing::PrintToString(violations);

  auto runs = TelemetryRecorder::instance().runs();
  ASSERT_EQ(runs.size(), 1u);
  const RunTelemetry& rt = runs[0];
  EXPECT_EQ(rt.job, conf.name);
  EXPECT_EQ(rt.workers, 4);
  EXPECT_EQ(rt.tasks, 4);
  EXPECT_EQ(rt.iterations_run, 5);
  ASSERT_EQ(rt.iters.size(), 5u);
  for (std::size_t k = 0; k < rt.iters.size(); ++k) {
    const IterTelemetry& it = rt.iters[k];
    EXPECT_EQ(it.iteration, static_cast<int>(k) + 1);
    EXPECT_GT(it.vt_ms, 0.0);
    EXPECT_GT(it.map_ms, 0.0);
    EXPECT_GT(it.reduce_ms, 0.0);
    EXPECT_GT(it.queue_hwm, 0);
    EXPECT_GE(it.straggler_task, 0);
    EXPECT_GE(it.straggler_worker, 0);
    EXPECT_GT(it.bytes[static_cast<int>(TrafficCategory::kShuffle)], 0);
    // All 4 tasks reported a duration and a resident-state estimate.
    EXPECT_EQ(it.task_ms.size(), 4u);
    EXPECT_EQ(it.state_bytes.size(), 4u);
    for (const auto& [task, bytes] : it.state_bytes) EXPECT_GT(bytes, 0);
  }
  // Static stores were measured (PageRank keeps adjacency lists resident).
  EXPECT_GT(rt.static_bytes, 0);
  ASSERT_EQ(rt.static_bytes_per_task.size(), 4u);
  // Hot-key profile exists and its sample total matches the partition sum.
  EXPECT_FALSE(rt.hot_keys.empty());
  int64_t part_sum = 0;
  for (int64_t p : rt.partition_records) part_sum += p;
  EXPECT_EQ(part_sum, rt.hot_key_samples);
  EXPECT_GE(rt.skew, 1.0);
}

TEST_F(TelemetryTest, DisabledGateRecordsNothing) {
  TelemetryRecorder::instance().disable();
  auto cluster = testutil::costed_cluster();
  Graph g = make_pagerank_graph("google", 0.0005, 7);
  PageRank::setup(*cluster, g, "in");
  IterJobConf conf = PageRank::imapreduce("in", "out", g.num_nodes(), 3);
  conf.num_tasks = 4;
  const RunReport report = IterativeEngine(*cluster).run(conf);
  EXPECT_TRUE(TelemetryRecorder::instance().runs().empty());
  // The report still records every task's report of every decided
  // iteration; only the state-size estimate waits for the gate.
  ASSERT_EQ(report.iterations.size(), 3u);
  for (const IterationStat& st : report.iterations) {
    ASSERT_EQ(st.reports.size(), 4u);
    for (const TaskReport& r : st.reports) {
      EXPECT_GT(r.duration_ns, 0);
      EXPECT_EQ(r.state_bytes, 0);
    }
  }
  // The traffic matrix is the registry's own record, so it keeps counting
  // with the gate off: its sums are the registry's totals.
  const MetricsRegistry& metrics = cluster->metrics();
  const TrafficMatrixSnapshot m = metrics.traffic_matrix();
  EXPECT_GT(m.category_bytes(TrafficCategory::kShuffle), 0);
  for (int c = 0; c < kNumTrafficCategories; ++c) {
    const auto cat = static_cast<TrafficCategory>(c);
    SCOPED_TRACE(traffic_category_name(cat));
    EXPECT_EQ(m.category_bytes(cat), metrics.traffic_bytes(cat));
    EXPECT_EQ(m.category_remote_bytes(cat), metrics.traffic_remote_bytes(cat));
    EXPECT_EQ(m.category_msgs(cat), metrics.traffic_transfers(cat));
  }
}

// The iteration buckets are sharded by sending thread, and iter_view merges
// a (generation, iteration) key across the shards: K concurrent senders
// read back the bytes, messages and per-endpoint high-water mark that one
// sender of the same messages produces.
TEST_F(TelemetryTest, IterViewMergesBucketsAcrossSendingThreads) {
  constexpr int kSenders = 8;
  constexpr int kPerSender = 350;
  constexpr int kEndpoints = 3;
  // Message n of a sender goes to endpoint n % 3 and alternates shuffle
  // batches of n % 5 records with control messages. It is tagged (gen 2,
  // iter 5), except every seventh, tagged iter 6 — outside the view.
  auto tagged_iter = [](int n) { return n % 7 == 0 ? 6 : 5; };
  auto category = [](int n) {
    return n % 2 == 0 ? TrafficCategory::kShuffle : TrafficCategory::kControl;
  };
  auto run = [&](bool concurrent) {
    auto cluster = testutil::free_cluster(2);
    std::vector<std::shared_ptr<Endpoint>> eps;
    for (int e = 0; e < kEndpoints; ++e) {
      eps.push_back(
          cluster->fabric().create_endpoint("ep" + std::to_string(e), e % 2));
    }
    auto send_all = [&](int sender) {
      VClock vt;
      for (int n = 0; n < kPerSender; ++n) {
        NetMessage msg;
        msg.generation = 2;
        msg.iteration = tagged_iter(n);
        if (category(n) == TrafficCategory::kShuffle) {
          msg.set_records(KVVec(static_cast<std::size_t>(n % 5), KV{"k", "v"}));
        } else {
          msg.control = "ctl";
        }
        cluster->fabric().send(sender % 2, vt, *eps[n % kEndpoints],
                               std::move(msg), category(n));
      }
    };
    if (concurrent) {
      std::vector<std::thread> senders;
      for (int s = 0; s < kSenders; ++s) senders.emplace_back(send_all, s);
      for (auto& th : senders) th.join();
    } else {
      for (int s = 0; s < kSenders; ++s) send_all(s);
    }
    IterationStat st;
    st.generation = 2;
    st.iteration = 5;
    return cluster->telemetry().iter_view(st);
  };

  const IterTelemetry one = run(false);
  const IterTelemetry many = run(true);
  EXPECT_EQ(many.bytes, one.bytes);
  EXPECT_EQ(many.msgs, one.msgs);
  EXPECT_EQ(many.queue_hwm, one.queue_hwm);

  int64_t msgs[kNumTrafficCategories] = {};
  int64_t per_endpoint[kEndpoints] = {};
  for (int n = 0; n < kPerSender; ++n) {
    if (tagged_iter(n) != 5) continue;
    msgs[static_cast<int>(category(n))] += kSenders;
    per_endpoint[n % kEndpoints] += kSenders;
  }
  for (int c = 0; c < kNumTrafficCategories; ++c) {
    EXPECT_EQ(many.msgs[static_cast<std::size_t>(c)], msgs[c]);
    EXPECT_EQ(many.bytes[static_cast<std::size_t>(c)] > 0, msgs[c] > 0);
  }
  EXPECT_EQ(many.queue_hwm,
            *std::max_element(per_endpoint, per_endpoint + kEndpoints));
}

// Seeded worker deaths at different injection points: no traffic may be
// charged after the job returns, through kill, rollback, respawn, and re-run
// (run_chaos_job attaches the matrix snapshot whenever telemetry is armed,
// arming invariant 10 on every case).
TEST_F(TelemetryTest, ChaosDeathSweepConservesMatrix) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    for (FaultPoint point :
         {FaultPoint::kIterationBoundary, FaultPoint::kMidShuffle,
          FaultPoint::kStatePush}) {
      TelemetryRecorder::instance().reset();
      auto cluster = testutil::free_cluster(3, 4, 4);
      Graph g = make_sssp_graph("dblp", 0.001, 5);
      Sssp::setup(*cluster, g, 0, "in");
      IterJobConf conf = Sssp::imapreduce("in", "out", 7);
      conf.num_tasks = 4;
      conf.checkpoint_every = 2;
      FaultSchedule schedule;
      schedule.add(chaos::derive_fault(seed, 3, /*max_iteration=*/5, point));
      InvariantExpectations expect;
      expect.expected_recoveries = 1;
      auto result = run_chaos_job(*cluster, conf, schedule,
                                  ChannelFaultConfig{}, expect);
      EXPECT_TRUE(result.violations.empty())
          << "seed=" << seed << " point=" << fault_point_name(point) << ":\n  "
          << ::testing::PrintToString(result.violations);

      // Rollback hygiene: the recorded iterations read as one consecutive
      // 1..N sequence — the rollback truncated the in-flight records.
      auto runs = TelemetryRecorder::instance().runs();
      ASSERT_EQ(runs.size(), 1u);
      ASSERT_EQ(runs[0].iters.size(),
                static_cast<std::size_t>(runs[0].iterations_run));
      for (std::size_t k = 0; k < runs[0].iters.size(); ++k) {
        EXPECT_EQ(runs[0].iters[k].iteration, static_cast<int>(k) + 1)
            << "seed=" << seed << " point=" << fault_point_name(point);
      }
      // The iter lines are the returned report's records, re-run
      // generation included.
      SCOPED_TRACE("seed=" + std::to_string(seed) +
                   " point=" + fault_point_name(point));
      expect_iters_match_report(runs[0].iters, result.report.iterations);
    }
  }
}

// Load balancing migrates a task pair off the slow worker mid-run; the
// matrix must stay quiet after a migration handoff (we do not assert a
// migration happened — that is timing-dependent — only that the invariants
// hold when one does).
TEST_F(TelemetryTest, MigrationRunConservesMatrix) {
  auto cluster = testutil::costed_cluster();
  cluster->set_worker_speed(1, 0.25);
  Graph g = make_pagerank_graph("google", 0.0005, 7);
  PageRank::setup(*cluster, g, "in");
  IterJobConf conf = PageRank::imapreduce("in", "out", g.num_nodes(), 6);
  conf.num_tasks = 4;
  conf.load_balancing = true;
  conf.checkpoint_every = 2;
  RunReport report = IterativeEngine(*cluster).run(conf);
  auto violations =
      InvariantChecker(cluster->metrics())
          .with_report(report)
          .with_traffic_matrix(cluster->metrics().traffic_matrix())
          .check();
  EXPECT_TRUE(violations.empty()) << ::testing::PrintToString(violations);
}

// Masks the duration-valued fields of an export. Virtual durations are
// charged per network flow against the flows concurrently in flight, so they
// depend on the real thread schedule; everything else — iteration sequences,
// byte buckets, matrix cells, sketches, state sizes — must reproduce
// bit-for-bit across same-seed fault-free runs. (Under injected faults even
// byte fields can split differently: peers racing a mid-shuffle death may or
// may not land their sends before the rollback. Conservation under faults is
// covered by ChaosDeathSweepConserves.)
std::string mask_durations(const std::string& jsonl) {
  static const std::regex kDurations(
      "\"(vt_ms|map_ms|reduce_ms)\":[-0-9.eE+]+|"
      "\"straggler\":\\{[^}]*\\}|"
      "\"task_ms\":\\[[^\\]]*\\]");
  return std::regex_replace(jsonl, kDurations, "#");
}

TEST_F(TelemetryTest, SameSeedRunsExportIdenticalJsonlOutsideDurations) {
  auto run_once = [] {
    TelemetryRecorder::instance().reset();
    auto cluster = testutil::costed_cluster(3, 4, 4);
    Graph g = make_pagerank_graph("google", 0.0003, 21);
    PageRank::setup(*cluster, g, "in");
    IterJobConf conf = PageRank::imapreduce("in", "out", g.num_nodes(), 6);
    conf.num_tasks = 4;
    conf.checkpoint_every = 2;
    IterativeEngine(*cluster).run(conf);
    std::ostringstream os;
    TelemetryRecorder::instance().export_jsonl(os);
    return os.str();
  };
  const std::string first = run_once();
  const std::string second = run_once();
  EXPECT_FALSE(first.empty());
  EXPECT_GT(first.size(), 1000u);  // several iter lines + the run line
  // The mask must have found real material to strip, or it is vacuous.
  const std::string masked = mask_durations(first);
  EXPECT_NE(masked, first);
  EXPECT_NE(masked.find("\"matrix\":"), std::string::npos);
  EXPECT_EQ(masked, mask_durations(second));
}

// A star graph funnels every node's rank share onto node 0: the merged
// sketches must name u32_key(0) as the top hot key, and the partition
// holding it must read as skewed.
TEST_F(TelemetryTest, InjectedHotKeyIsNamed) {
  constexpr uint32_t kNodes = 60;
  Graph g;
  g.adj.resize(kNodes);
  for (uint32_t u = 1; u < kNodes; ++u) g.adj[u].push_back(WEdge{0, 1.0});
  g.adj[0].push_back(WEdge{1, 1.0});

  auto cluster = testutil::free_cluster();
  PageRank::setup(*cluster, g, "in");
  IterJobConf conf = PageRank::imapreduce("in", "out", kNodes, 4);
  conf.num_tasks = 4;
  IterativeEngine(*cluster).run(conf);

  auto runs = TelemetryRecorder::instance().runs();
  ASSERT_EQ(runs.size(), 1u);
  const RunTelemetry& rt = runs[0];
  ASSERT_FALSE(rt.hot_keys.empty());
  EXPECT_EQ(rt.hot_keys[0].key, u32_key(0));
  // 59 in-edges funnel into node 0 every iteration; nothing else comes
  // close. The guaranteed lower bound (count - error) must dominate too.
  EXPECT_GE(rt.hot_keys[0].count, 4 * 59);
  if (rt.hot_keys.size() > 1) {
    EXPECT_GE(rt.hot_keys[0].count - rt.hot_keys[0].error,
              5 * rt.hot_keys[1].count);
  }
  EXPECT_GT(rt.skew, 1.5);
}

// One worker slowed 50x: the straggler ranking must name it (tasks are
// placed round-robin, so worker 1 hosts task 1 of 4 on 4 workers). The
// slowdown is deliberately deep: virtual compute is measured thread-CPU
// time scaled by compute_scale, so a real scheduling hiccup on a fast
// worker shows up as tens of virtual milliseconds — the handicap must
// dwarf that noise for the vt-latest report to be reliably the slow one.
TEST_F(TelemetryTest, SlowedWorkerIsNamedStraggler) {
  auto cluster = testutil::costed_cluster();
  cluster->set_worker_speed(1, 0.02);
  Graph g = make_pagerank_graph("google", 0.0005, 7);
  PageRank::setup(*cluster, g, "in");
  IterJobConf conf = PageRank::imapreduce("in", "out", g.num_nodes(), 5);
  conf.num_tasks = 4;
  RunReport report = IterativeEngine(*cluster).run(conf);
  ASSERT_EQ(report.iterations_run, 5);

  auto runs = TelemetryRecorder::instance().runs();
  ASSERT_EQ(runs.size(), 1u);
  int gated_by_slow = 0;
  for (const IterTelemetry& it : runs[0].iters) {
    if (it.straggler_worker == 1) ++gated_by_slow;
    // The straggler is the report that closed the barrier last; its duration
    // is that task's own, bounded by the phase max (a later-starting,
    // shorter task can be the last to arrive under pipelining).
    ASSERT_GE(it.straggler_task, 0);
    ASSERT_EQ(it.task_ms.count(it.straggler_task), 1u);
    EXPECT_DOUBLE_EQ(it.straggler_ms, it.task_ms.at(it.straggler_task));
    EXPECT_LE(it.straggler_ms, it.reduce_ms + 1e-9);
  }
  EXPECT_GE(gated_by_slow, 4) << "slowed worker gated only " << gated_by_slow
                              << " of 5 iterations";
}

// Session epochs are reported as tiling windows: the converge epoch plus
// each apply_update epoch (RunReport::capture minus the epoch base)
// must sum to the cumulative close() report, category by category. The
// windows are gapless — each window's end snapshot is the next window's
// base — but the LAST window can close before a parked map's trailing
// empty-eos shuffle envelope lands (the quiesce ack barrier covers the
// reduces, not a map speculatively opening the next iteration), so the
// shuffle comparison tolerates a few stray envelopes; reduce-to-map pushes
// all precede the reduce acks and must tile exactly.
TEST_F(TelemetryTest, SessionEpochReportsTile) {
  auto cluster = testutil::free_cluster();
  Graph g0 = make_sssp_graph("dblp", 0.001, 5);
  Sssp::setup(*cluster, g0, 0, "in");
  IterJobConf conf = Sssp::imapreduce("in", "out", /*max_iterations=*/60);
  conf.num_tasks = 4;
  conf.workset_mode = true;
  conf.distance_threshold = -1.0;  // drain-converged only

  IterativeEngine engine(*cluster);
  JobSession session = engine.open_session(conf);
  const RunReport initial = session.last_report();
  int64_t epoch_shuffle = initial.bytes[TrafficCategory::kShuffle];
  int64_t epoch_r2m = initial.bytes[TrafficCategory::kReduceToMap];
  std::vector<IterationStat> epoch_iters = initial.iterations;

  // Perturb two edges and reconverge incrementally, twice.
  Graph g = g0;
  for (int round = 0; round < 2; ++round) {
    Graph g1 = g;
    const uint32_t u = static_cast<uint32_t>(1 + round);
    g1.adj[u].push_back(WEdge{(u + 7) % g1.num_nodes(), 1.0});
    const RunReport ep = session.apply_update(Sssp::static_delta(g, g1));
    EXPECT_GE(ep.bytes[TrafficCategory::kShuffle], 0);
    epoch_shuffle += ep.bytes[TrafficCategory::kShuffle];
    epoch_r2m += ep.bytes[TrafficCategory::kReduceToMap];
    ASSERT_FALSE(ep.iterations.empty());
    EXPECT_EQ(ep.iterations.front().session, round + 1);
    epoch_iters.insert(epoch_iters.end(), ep.iterations.begin(),
                       ep.iterations.end());
    g = std::move(g1);
  }
  const RunReport total = session.close();
  EXPECT_LE(epoch_shuffle, total.bytes[TrafficCategory::kShuffle]);
  EXPECT_LE(total.bytes[TrafficCategory::kShuffle] - epoch_shuffle, 1024)
      << "more than stray eos envelopes leaked past the epoch windows";
  EXPECT_EQ(epoch_r2m, total.bytes[TrafficCategory::kReduceToMap]);
  // The recorded run carries the session depth, and its iter lines are the
  // epochs' iteration records back to back.
  auto runs = TelemetryRecorder::instance().runs();
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0].session_epochs, 2);
  EXPECT_TRUE(runs[0].converged);
  expect_iters_match_report(runs[0].iters, epoch_iters);
}

}  // namespace
}  // namespace imr
