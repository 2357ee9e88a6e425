// iMapReduce engine core tests: correctness parity with both the sequential
// references and the MapReduce baseline, across worker counts, task counts,
// async/sync modes, and buffer sizes (parameterized property sweeps).
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <stdexcept>

#include "algorithms/jacobi.h"
#include "algorithms/pagerank.h"
#include "algorithms/sssp.h"
#include "graph/generator.h"
#include "imapreduce/engine.h"
#include "mapreduce/iterative_driver.h"
#include "tests/test_util.h"

namespace imr {
namespace {

using testutil::expect_near_vectors;

struct ParitySetup {
  int workers;
  int num_tasks;
  bool async;
  int buffer_records;
};

class ImrParity : public ::testing::TestWithParam<ParitySetup> {};

TEST_P(ImrParity, SsspMatchesReferenceAndBaseline) {
  const ParitySetup p = GetParam();
  auto cluster = testutil::free_cluster(p.workers, 4, 4);
  LogNormalGraphSpec gspec;
  gspec.num_nodes = 300;
  gspec.seed = 11;
  Graph g = generate_lognormal_graph(gspec);
  Sssp::setup(*cluster, g, 0, "sssp");

  IterJobConf conf = Sssp::imapreduce("sssp", "out", 4);
  conf.num_tasks = p.num_tasks;
  conf.async_maps = p.async;
  conf.buffer_records = p.buffer_records;
  IterativeEngine engine(*cluster);
  RunReport report = engine.run(conf);
  EXPECT_EQ(report.iterations_run, 4);

  auto expected = Sssp::reference(g, 0, 4);
  expect_near_vectors(expected,
                      Sssp::read_result_imr(*cluster, "out", g.num_nodes()),
                      1e-12);
}

TEST_P(ImrParity, PageRankMatchesReference) {
  const ParitySetup p = GetParam();
  auto cluster = testutil::free_cluster(p.workers, 4, 4);
  Graph g = make_pagerank_graph("google", 0.0005, 21);
  PageRank::setup(*cluster, g, "pr");

  IterJobConf conf = PageRank::imapreduce("pr", "out", g.num_nodes(), 5);
  conf.num_tasks = p.num_tasks;
  conf.async_maps = p.async;
  conf.buffer_records = p.buffer_records;
  IterativeEngine engine(*cluster);
  RunReport report = engine.run(conf);
  EXPECT_EQ(report.iterations_run, 5);

  auto expected = PageRank::reference(g, 5);
  expect_near_vectors(
      expected, PageRank::read_result_imr(*cluster, "out", g.num_nodes()),
      1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ImrParity,
    ::testing::Values(ParitySetup{1, 1, true, 4096},
                      ParitySetup{2, 2, true, 4096},
                      ParitySetup{4, 4, true, 4096},
                      ParitySetup{4, 8, true, 4096},
                      ParitySetup{3, 5, true, 4096},
                      ParitySetup{4, 4, false, 4096},
                      ParitySetup{4, 8, false, 4096},
                      ParitySetup{4, 4, true, 1},
                      ParitySetup{4, 4, true, 7},
                      ParitySetup{2, 4, false, 3}),
    [](const ::testing::TestParamInfo<ParitySetup>& info) {
      const ParitySetup& p = info.param;
      return "w" + std::to_string(p.workers) + "_t" +
             std::to_string(p.num_tasks) + (p.async ? "_async" : "_sync") +
             "_b" + std::to_string(p.buffer_records);
    });

TEST(ImrCore, MatchesMapReduceBaselineBitwise) {
  // SSSP min() is order-insensitive: baseline and iMapReduce agree exactly.
  auto cluster = testutil::free_cluster(4, 4, 4);
  Graph g = make_sssp_graph("dblp", 0.002, 5);
  Sssp::setup(*cluster, g, 0, "sssp");

  IterativeDriver driver(*cluster);
  driver.run(Sssp::baseline("sssp", "work", 6));
  auto mr = Sssp::read_result_mr(*cluster, driver.final_output(),
                                 g.num_nodes());

  IterativeEngine engine(*cluster);
  engine.run(Sssp::imapreduce("sssp", "out", 6));
  auto imr = Sssp::read_result_imr(*cluster, "out", g.num_nodes());
  EXPECT_EQ(mr, imr);
}

TEST(ImrCore, RepeatedRunsAreDeterministic) {
  auto ref = [] {
    auto cluster = testutil::free_cluster(4, 4, 4);
    Graph g = make_pagerank_graph("berkstan", 0.0005, 9);
    PageRank::setup(*cluster, g, "pr");
    IterativeEngine engine(*cluster);
    engine.run(PageRank::imapreduce("pr", "out", g.num_nodes(), 4));
    return PageRank::read_result_imr(*cluster, "out", g.num_nodes());
  };
  auto first = ref();
  for (int i = 0; i < 3; ++i) {
    auto again = ref();
    EXPECT_EQ(first, again) << "run " << i;  // bitwise identical
  }
}

TEST(ImrCore, ThresholdTerminationStopsEarly) {
  auto cluster = testutil::free_cluster();
  LogNormalGraphSpec gspec;
  gspec.num_nodes = 150;
  gspec.seed = 2;
  Graph g = generate_lognormal_graph(gspec);
  Sssp::setup(*cluster, g, 0, "sssp");

  // Count-changed distance < 0.5 means a fixpoint; the graph converges well
  // before 50 iterations.
  IterJobConf conf = Sssp::imapreduce("sssp", "out", 50, 0.5);
  IterativeEngine engine(*cluster);
  RunReport report = engine.run(conf);
  EXPECT_TRUE(report.converged);
  EXPECT_LT(report.iterations_run, 50);

  auto expected = Sssp::reference(g, 0, -1);
  expect_near_vectors(expected,
                      Sssp::read_result_imr(*cluster, "out", g.num_nodes()),
                      1e-12);
}

// The termination verdict's precedence: when the threshold is met on the
// last budgeted iteration, the run converged — the spent budget does not
// override it. One iteration less is a budget stop.
TEST(ImrCore, ThresholdMetOnLastBudgetedIterationConverges) {
  auto cluster = testutil::free_cluster();
  LogNormalGraphSpec gspec;
  gspec.num_nodes = 150;
  gspec.seed = 2;
  Graph g = generate_lognormal_graph(gspec);
  Sssp::setup(*cluster, g, 0, "sssp");
  IterativeEngine engine(*cluster);
  auto run = [&](int budget) {
    return engine.run(Sssp::imapreduce(
        "sssp", "out" + std::to_string(budget), budget, 0.5));
  };

  const RunReport free_run = run(50);
  ASSERT_TRUE(free_run.converged);
  const int x = free_run.iterations_run;
  ASSERT_GT(x, 1);

  const RunReport exact = run(x);
  EXPECT_TRUE(exact.converged);
  EXPECT_EQ(exact.iterations_run, x);

  const RunReport short_of_it = run(x - 1);
  EXPECT_FALSE(short_of_it.converged);
  EXPECT_EQ(short_of_it.iterations_run, x - 1);
}

// Same precedence for the workset drain: a frontier that drains on the last
// budgeted iteration is convergence.
TEST(ImrCore, DrainOnLastBudgetedIterationConverges) {
  auto cluster = testutil::free_cluster();
  LogNormalGraphSpec gspec;
  gspec.num_nodes = 150;
  gspec.seed = 2;
  Graph g = generate_lognormal_graph(gspec);
  Sssp::setup(*cluster, g, 0, "sssp");
  IterativeEngine engine(*cluster);

  // No distance check: the drain is the only way the run can converge.
  IterJobConf conf = Sssp::imapreduce("sssp", "out_free", 50, -1.0);
  conf.workset_mode = true;
  const RunReport free_run = engine.run(conf);
  ASSERT_TRUE(free_run.converged);
  const int d = free_run.iterations_run;
  ASSERT_LT(d, 50);

  conf.max_iterations = d;
  conf.output_path = "out_exact";
  const RunReport exact = engine.run(conf);
  EXPECT_TRUE(exact.converged);
  EXPECT_EQ(exact.iterations_run, d);
  EXPECT_EQ(exact.iterations.back().workset_size, 0);
}

TEST(ImrCore, MaxIterTerminationReportsNotConverged) {
  auto cluster = testutil::free_cluster();
  Graph g = make_pagerank_graph("google", 0.0002, 3);
  PageRank::setup(*cluster, g, "pr");
  IterJobConf conf = PageRank::imapreduce("pr", "out", g.num_nodes(), 3);
  IterativeEngine engine(*cluster);
  RunReport report = engine.run(conf);
  EXPECT_EQ(report.iterations_run, 3);
  EXPECT_FALSE(report.converged);
}

TEST(ImrCore, DistancesDecreaseForPageRank) {
  auto cluster = testutil::free_cluster();
  Graph g = make_pagerank_graph("google", 0.0005, 4);
  PageRank::setup(*cluster, g, "pr");
  IterJobConf conf = PageRank::imapreduce("pr", "out", g.num_nodes(), 6);
  IterativeEngine engine(*cluster);
  RunReport report = engine.run(conf);
  ASSERT_EQ(report.iterations.size(), 6u);
  // Manhattan distance between consecutive rank vectors shrinks (power
  // iteration contraction); allow the first pair to be anything.
  for (std::size_t i = 2; i < report.iterations.size(); ++i) {
    EXPECT_LT(report.iterations[i].distance, report.iterations[i - 1].distance);
  }
}

// The reduce's output framing (§3.3): a batch leaves after the group that
// brings it to `buffer_records`, and EOS goes to the paired map, or to all T
// maps under one2all. At a buffer of 1 every record is one transfer; at a
// buffer of at least N each reduce sends one batch and one EOS per map.
TEST(ImrCore, ReduceOutputFramingTransferCounts) {
  auto transfers = [](Cluster& cluster, const IterJobConf& conf,
                      TrafficCategory cat) {
    IterativeEngine(cluster).run(conf);
    return cluster.metrics().traffic_transfers(cat);
  };

  const Graph pr = make_pagerank_graph("google", 0.0005, 21);
  const int64_t pr_n = pr.num_nodes();
  ASSERT_EQ(pr_n, 458);
  const JacobiSystem jac = Jacobi::generate(120, 0.05, 7);
  for (const bool whole : {false, true}) {
    SCOPED_TRACE(whole ? "buffer >= N" : "buffer 1");
    {
      // PageRank, one2one: T = 5, K = 5.
      auto cluster = testutil::free_cluster(3, 4, 4);
      PageRank::setup(*cluster, pr, "pr");
      IterJobConf conf = PageRank::imapreduce("pr", "out", pr.num_nodes(), 5);
      conf.num_tasks = 5;
      conf.buffer_records = whole ? static_cast<int>(pr_n) : 1;
      EXPECT_EQ(transfers(*cluster, conf, TrafficCategory::kReduceToMap),
                whole ? 5 * 2 * 5 : 5 * (pr_n + 5));
    }
    {
      // Jacobi, one2all: T = 3, K = 4; a broadcast is T transfers.
      auto cluster = testutil::free_cluster(3, 4, 4);
      Jacobi::setup(*cluster, jac, "jac");
      IterJobConf conf = Jacobi::imapreduce("jac", "out", 4);
      conf.num_tasks = 3;
      conf.buffer_records = whole ? 120 : 1;
      EXPECT_EQ(transfers(*cluster, conf, TrafficCategory::kBroadcast),
                whole ? 4 * 3 * 2 * 3 : 4 * 3 * (120 + 3));
    }
  }

  // Workset SSSP: the shipped records are the frontier the master records.
  LogNormalGraphSpec gspec;
  gspec.num_nodes = 300;
  gspec.seed = 11;
  const Graph g = generate_lognormal_graph(gspec);
  auto cluster = testutil::free_cluster(3, 4, 4);
  Sssp::setup(*cluster, g, 0, "sssp");
  IterJobConf conf = Sssp::imapreduce("sssp", "out", 50);
  conf.workset_mode = true;
  conf.num_tasks = 4;
  conf.buffer_records = 1;
  IterativeEngine engine(*cluster);
  const RunReport report = engine.run(conf);
  ASSERT_TRUE(report.converged);
  int64_t frontier = 0;
  for (const IterationStat& st : report.iterations) {
    frontier += st.workset_size;
  }
  const int64_t sent =
      cluster->metrics().traffic_transfers(TrafficCategory::kReduceToMap);
  EXPECT_EQ(sent, frontier + 4 * static_cast<int64_t>(report.iterations_run));
  EXPECT_EQ(sent, 984 + 12 * 4);
}

TEST(ImrCore, StaticDataNeverShuffledOne2One) {
  auto cluster = testutil::costed_cluster();
  Graph g = make_sssp_graph("dblp", 0.002, 5);
  Sssp::setup(*cluster, g, 0, "sssp");
  cluster->metrics().reset();

  IterativeEngine engine(*cluster);
  engine.run(Sssp::imapreduce("sssp", "out", 5));

  // Shuffle carries only state-derived records: with ~5 edges/node and 8-byte
  // distances, shuffled bytes per iteration must stay well below the static
  // (adjacency) size per iteration that the baseline would move.
  int64_t shuffle = cluster->metrics().traffic_bytes(TrafficCategory::kShuffle);
  auto static_bytes =
      static_cast<int64_t>(cluster->dfs().file_bytes("sssp/static"));
  // The static file is read from DFS exactly once in total (5 iterations).
  int64_t dfs_read = cluster->metrics().traffic_bytes(TrafficCategory::kDfsRead);
  EXPECT_LT(dfs_read, 2 * static_bytes + 100000);
  EXPECT_GT(shuffle, 0);
}

TEST(ImrCore, RejectsInvalidConfigs) {
  auto cluster = testutil::free_cluster();
  IterativeEngine engine(*cluster);

  IterJobConf empty;
  EXPECT_THROW(engine.run(empty), ConfigError);

  Graph g = make_sssp_graph("dblp", 0.001, 5);
  Sssp::setup(*cluster, g, 0, "sssp");
  IterJobConf too_many = Sssp::imapreduce("sssp", "out", 2);
  too_many.num_tasks = 1000;
  EXPECT_THROW(engine.run(too_many), ConfigError);

  IterJobConf bad_balance = Sssp::imapreduce("sssp", "out", 2);
  bad_balance.load_balancing = true;  // requires checkpointing
  EXPECT_THROW(engine.run(bad_balance), ConfigError);
}

// A job whose user code throws must still tear everything down: no endpoint
// left registered on the fabric, no ckpt/ files left in the DFS. (The error
// used to be rethrown before teardown, leaking both.)
TEST(ImrCore, FailedJobLeaksNoEndpointsOrCheckpoints) {
  auto cluster = testutil::free_cluster();
  LogNormalGraphSpec gspec;
  gspec.num_nodes = 300;
  gspec.seed = 19;
  Graph g = generate_lognormal_graph(gspec);
  Sssp::setup(*cluster, g, 0, "sssp");

  IterJobConf conf = Sssp::imapreduce("sssp", "out", 10);
  conf.checkpoint_every = 1;
  conf.num_tasks = 4;
  // A pass-through mapper that dies partway into iteration 3 — late enough
  // that checkpoints exist when the job aborts.
  auto calls = std::make_shared<std::atomic<int64_t>>(0);
  const int64_t limit = 2 * static_cast<int64_t>(g.num_nodes()) + 10;
  conf.phases[0].mapper = make_iter_mapper(
      [calls, limit](const Bytes& key, const Bytes& value, const Bytes&,
                     IterEmitter& out) {
        if (calls->fetch_add(1) >= limit) {
          throw std::runtime_error("injected user-code failure");
        }
        out.emit(key, value);
      });

  const std::size_t eps_before = cluster->fabric().endpoint_count();
  IterativeEngine engine(*cluster);
  EXPECT_THROW(engine.run(conf), std::runtime_error);
  EXPECT_EQ(cluster->fabric().endpoint_count(), eps_before);
  EXPECT_GT(cluster->metrics().count("imr_checkpoints"), 0);
  EXPECT_TRUE(cluster->dfs().list("ckpt/").empty());
}

}  // namespace
}  // namespace imr
