// Partition-aware placement and aggregated exchange (DESIGN.md §9).
//
// The load-bearing property: the final state of a job is byte-identical
// whatever the partitioner (hash, BFS region, external file) and whether the
// cross-worker shuffle streams per-partition or coalesces into one batch per
// destination worker — across bulk, workset, and session modes, with and
// without injected worker deaths. A partitioner moves keys BETWEEN tasks and
// the aggregated exchange changes WHEN batches arrive; neither may ever
// change a value.
//
// Also here: the partitioner library's own contracts (same-seed determinism,
// the 1.1 balance bound on grid and RMAT graphs, BFS cut <= hash cut, the
// METIS-style file round-trip), the plan_placement layout rules, and the
// partition_of zero-partition guard.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "algorithms/concomp.h"
#include "algorithms/pagerank.h"
#include "algorithms/sssp.h"
#include "cluster/fault_schedule.h"
#include "cluster/placement.h"
#include "common/codec.h"
#include "common/error.h"
#include "common/hash.h"
#include "graph/generator.h"
#include "graph/partition.h"
#include "imapreduce/conf.h"
#include "imapreduce/engine.h"
#include "mapreduce/engine.h"  // resolve_input_paths
#include "tests/chaos_harness.h"
#include "tests/test_util.h"

namespace imr {
namespace {

using chaos::run_chaos_job;
using chaos::workset_expectations;

// ---------------------------------------------------------------------------
// Partitioner library
// ---------------------------------------------------------------------------

Graph small_grid() {
  GridGraphSpec spec;
  spec.rows = 24;
  spec.cols = 24;
  spec.weighted = false;
  spec.seed = 5;
  return generate_grid_graph(spec);
}

Graph small_rmat() {
  RmatGraphSpec spec;
  spec.num_nodes = 1 << 11;
  spec.edges_per_node = 6;
  spec.weighted = false;
  spec.seed = 9;
  return generate_rmat_graph(spec);
}

std::vector<uint32_t> assignment_of(const Partitioner& p, uint32_t n) {
  std::vector<uint32_t> a(n);
  for (uint32_t u = 0; u < n; ++u) a[u] = p.partition(u32_key(u));
  return a;
}

TEST(PartitionOf, RejectsZeroPartitions) {
  const Bytes key = u32_key(7);
  EXPECT_THROW(partition_of(key, 0), Error);
  EXPECT_EQ(partition_of(key, 1), 0u);
}

TEST(HashPartitioner, MatchesBuiltInHash) {
  auto p = make_hash_partitioner(7);
  EXPECT_EQ(p->num_partitions(), 7u);
  EXPECT_TRUE(p->affinity().empty());
  for (uint32_t u = 0; u < 100; ++u) {
    const Bytes key = u32_key(u);
    EXPECT_EQ(p->partition(key), partition_of(key, 7));
  }
}

TEST(BfsPartitioner, SameSeedSameAssignment) {
  const Graph g = small_rmat();
  auto a = make_bfs_partitioner(g, 8, 42);
  auto b = make_bfs_partitioner(g, 8, 42);
  EXPECT_EQ(assignment_of(*a, g.num_nodes()), assignment_of(*b, g.num_nodes()));
  // Affinity is a pure function of the assignment, so it matches too.
  EXPECT_EQ(a->affinity(), b->affinity());
}

TEST(BfsPartitioner, BalanceBoundOnGridAndRmat) {
  for (const Graph& g : {small_grid(), small_rmat()}) {
    for (uint32_t parts : {4u, 8u, 13u}) {
      for (uint64_t seed : {1ull, 2ull}) {
        auto p = make_bfs_partitioner(g, parts, seed);
        const auto sizes = partition_sizes(g, *p);
        EXPECT_EQ(sizes.size(), parts);
        EXPECT_LE(balance_factor(sizes), 1.1)
            << "parts=" << parts << " seed=" << seed;
      }
    }
  }
}

TEST(BfsPartitioner, CutsNoWorseThanHashOnBenchGraphs) {
  for (const Graph& g : {small_grid(), small_rmat()}) {
    for (uint32_t parts : {4u, 8u}) {
      auto hash = make_hash_partitioner(parts);
      auto bfs = make_bfs_partitioner(g, parts, 1);
      EXPECT_LE(edge_cut(g, *bfs), edge_cut(g, *hash))
          << "parts=" << parts << " n=" << g.num_nodes();
    }
  }
}

TEST(BfsPartitioner, CoversEveryVertexExactlyOnce) {
  const Graph g = small_grid();
  auto p = make_bfs_partitioner(g, 5, 3);
  int64_t total = 0;
  for (int64_t s : partition_sizes(g, *p)) {
    EXPECT_GT(s, 0);
    total += s;
  }
  EXPECT_EQ(total, static_cast<int64_t>(g.num_nodes()));
  // The affinity matrix accounts for every in-range directed edge.
  int64_t aff_total = 0;
  for (int64_t a : p->affinity()) aff_total += a;
  EXPECT_EQ(aff_total, static_cast<int64_t>(g.num_edges()));
}

TEST(FilePartitioner, RoundTripsThroughMetisFile) {
  const Graph g = small_grid();
  auto bfs = make_bfs_partitioner(g, 6, 17);
  const auto assignment = assignment_of(*bfs, g.num_nodes());

  const std::string path = ::testing::TempDir() + "/parts.txt";
  write_partition_file(path, assignment);
  const auto loaded = load_partition_file(path, g.num_nodes());
  EXPECT_EQ(loaded, assignment);

  auto file = make_file_partitioner(loaded, g, 6);
  EXPECT_EQ(assignment_of(*file, g.num_nodes()), assignment);
  EXPECT_EQ(file->affinity(), bfs->affinity());
  std::remove(path.c_str());
}

TEST(FilePartitioner, RejectsBadFiles) {
  const Graph g = small_grid();
  EXPECT_THROW(load_partition_file("/no/such/partition/file", g.num_nodes()),
               ConfigError);

  const std::string path = ::testing::TempDir() + "/bad_parts.txt";
  write_partition_file(path, {0, 1, 2});  // wrong vertex count
  EXPECT_THROW(load_partition_file(path, g.num_nodes()), ConfigError);

  // Right count, but names a partition out of range.
  std::vector<uint32_t> assignment(g.num_nodes(), 0);
  assignment[3] = 6;
  EXPECT_THROW(make_file_partitioner(assignment, g, 6), ConfigError);
  // And a count that disagrees with the graph.
  EXPECT_THROW(make_file_partitioner({0, 1}, g, 6), ConfigError);

  // Ids that only wrap into range: a negated or a 33-bit value must not load
  // as partition 1.
  for (const char* id : {"-4294967295", "4294967297"}) {
    {
      std::FILE* f = std::fopen(path.c_str(), "w");
      ASSERT_NE(f, nullptr);
      std::fprintf(f, "0\n%s\n2\n", id);
      std::fclose(f);
    }
    EXPECT_THROW(load_partition_file(path, 3), ConfigError) << id;
  }
  std::remove(path.c_str());
}

TEST(FilePartitioner, ParsesCommentsAndBlankLines) {
  const std::string path = ::testing::TempDir() + "/commented_parts.txt";
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("# header comment\n1\n\n0  # trailing comment\n2\n", f);
    std::fclose(f);
  }
  EXPECT_EQ(load_partition_file(path, 3), (std::vector<uint32_t>{1, 0, 2}));
  std::remove(path.c_str());
}

// Non-4-byte keys (aux key spaces) fall back to the flat hash.
TEST(VertexPartitioner, ForeignKeysFallBackToHash) {
  const Graph g = small_grid();
  auto p = make_bfs_partitioner(g, 4, 1);
  const Bytes key = u64_key(123456789);
  EXPECT_EQ(p->partition(key), partition_of(key, 4));
}

// ---------------------------------------------------------------------------
// plan_placement
// ---------------------------------------------------------------------------

TEST(PlanPlacement, RoundRobinWithoutAffinity) {
  const auto plan =
      plan_placement(5, 3, {}, CostModel::local_cluster());
  EXPECT_EQ(plan, (std::vector<int>{0, 1, 2, 0, 1}));
}

TEST(PlanPlacement, RoundRobinWhenColocationIsFree) {
  // CostModel::free() zeroes the bandwidth gap, so affinity is ignored —
  // this is what keeps logic-test layouts identical to the seed behavior.
  std::vector<int64_t> aff(16, 1);
  const auto plan = plan_placement(4, 2, aff, CostModel::free());
  EXPECT_EQ(plan, (std::vector<int>{0, 1, 0, 1}));
}

TEST(PlanPlacement, GroupsHighAffinityPartitions) {
  // Partitions {0,1} and {2,3} form two heavy pairs; the greedy layout must
  // put each pair on one worker (capacity ceil(4/2) = 2).
  std::vector<int64_t> aff(16, 0);
  aff[0 * 4 + 1] = 100;
  aff[2 * 4 + 3] = 100;
  const auto plan = plan_placement(4, 2, aff, CostModel::local_cluster());
  ASSERT_EQ(plan.size(), 4u);
  EXPECT_EQ(plan[0], plan[1]);
  EXPECT_EQ(plan[2], plan[3]);
  EXPECT_NE(plan[0], plan[2]);
}

TEST(PlanPlacement, RespectsCapacityAndIsDeterministic) {
  // A fully-connected affinity clique would love one worker; the capacity
  // cap ceil(6/3)=2 forces an even spread anyway.
  std::vector<int64_t> aff(36, 10);
  const auto a = plan_placement(6, 3, aff, CostModel::local_cluster());
  const auto b = plan_placement(6, 3, aff, CostModel::local_cluster());
  EXPECT_EQ(a, b);
  std::vector<int> load(3, 0);
  for (int w : a) {
    ASSERT_GE(w, 0);
    ASSERT_LT(w, 3);
    ++load[static_cast<std::size_t>(w)];
  }
  for (int l : load) EXPECT_EQ(l, 2);
}

// ---------------------------------------------------------------------------
// Conf validation
// ---------------------------------------------------------------------------

TEST(PartitionConf, PartitionCountMustMatchTaskCount) {
  const Graph g = small_grid();
  auto cluster = testutil::free_cluster(3, 4, 4);
  Sssp::setup(*cluster, g, 0, "in");
  IterJobConf conf = Sssp::imapreduce("in", "out", 5);
  conf.num_tasks = 3;
  conf.partitioner = make_bfs_partitioner(g, 4, 1);  // 4 != 3
  IterativeEngine engine(*cluster);
  EXPECT_THROW(engine.run(conf), ConfigError);
}

// ---------------------------------------------------------------------------
// Engine equivalence: every partitioner/exchange combination lands on the
// hash run's exact bytes.
// ---------------------------------------------------------------------------

enum class PAlgo { kSssp, kConComp, kPrDelta };

const char* algo_name(PAlgo a) {
  switch (a) {
    case PAlgo::kSssp:
      return "Sssp";
    case PAlgo::kConComp:
      return "ConComp";
    case PAlgo::kPrDelta:
      return "PrDelta";
  }
  return "?";
}

constexpr double kPrTheta = 1e-4;

std::map<Bytes, Bytes> read_state(Cluster& cluster, const std::string& path) {
  std::map<Bytes, Bytes> state;
  for (const auto& part : resolve_input_paths(cluster.dfs(), path)) {
    for (const KV& kv : cluster.dfs().read_all(part, -1, nullptr)) {
      state[kv.key] = kv.value;
    }
  }
  return state;
}

Graph sweep_graph(PAlgo algo, uint64_t seed) {
  LogNormalGraphSpec spec;
  spec.num_nodes = 70 + static_cast<uint32_t>((seed * 31) % 90);
  spec.degree_mu = 0.5 + 0.3 * static_cast<double>(seed % 3);
  spec.degree_sigma = 0.7;
  spec.weighted = algo == PAlgo::kSssp;
  spec.seed = 9000 + 23 * seed + static_cast<uint64_t>(algo);
  return generate_lognormal_graph(spec);
}

void setup_algo(PAlgo algo, Cluster& cluster, const Graph& g,
                const std::string& base) {
  switch (algo) {
    case PAlgo::kSssp:
      Sssp::setup(cluster, g, 0, base);
      break;
    case PAlgo::kConComp:
      ConComp::setup(cluster, g, base);
      break;
    case PAlgo::kPrDelta:
      PageRank::setup_delta(cluster, g, base);
      break;
  }
}

IterJobConf make_conf(PAlgo algo, const std::string& base,
                      const std::string& out) {
  switch (algo) {
    case PAlgo::kSssp:
      return Sssp::imapreduce(base, out, /*max_iterations=*/60, 0.5);
    case PAlgo::kConComp:
      return ConComp::imapreduce(base, out, /*max_iterations=*/60, 0.5);
    case PAlgo::kPrDelta:
      return PageRank::imapreduce_delta(base, out, /*max_iterations=*/80,
                                        kPrTheta);
  }
  return {};
}

// A contiguous-range assignment: deliberately NOT what the BFS grower
// produces, so the file path exercises a genuinely external layout.
std::vector<uint32_t> range_assignment(uint32_t n, uint32_t parts) {
  std::vector<uint32_t> a(n);
  for (uint32_t u = 0; u < n; ++u) {
    a[u] = static_cast<uint32_t>((static_cast<uint64_t>(u) * parts) / n);
  }
  return a;
}

using EquivParam = std::tuple<uint64_t, PAlgo>;

class PartitionerEquivalence : public ::testing::TestWithParam<EquivParam> {};

TEST_P(PartitionerEquivalence, BulkMatchesHashByteForByte) {
  const auto [seed, algo] = GetParam();
  const Graph g = sweep_graph(algo, seed);
  const auto n = static_cast<int64_t>(g.num_nodes());
  const int tasks = 3 + static_cast<int>(seed % 2);
  const auto parts = static_cast<uint32_t>(tasks);

  auto cluster = testutil::free_cluster(3, 4, 4);
  setup_algo(algo, *cluster, g, "in");

  InvariantExpectations expect;
  expect.expected_parts = tasks;
  expect.expected_state_records = n;

  auto run_one = [&](const std::string& out,
                     std::shared_ptr<const Partitioner> part, bool agg) {
    IterJobConf conf = make_conf(algo, "in", out);
    conf.num_tasks = tasks;
    conf.partitioner = std::move(part);
    conf.aggregated_shuffle = agg;
    auto r = run_chaos_job(*cluster, conf, FaultSchedule{},
                           ChannelFaultConfig{}, expect);
    EXPECT_TRUE(r.violations.empty()) << ::testing::PrintToString(r.violations);
    EXPECT_TRUE(r.report.converged);
    return r.report;
  };

  const RunReport base = run_one("out_hash", nullptr, false);
  const auto reference = read_state(*cluster, "out_hash");
  ASSERT_EQ(reference.size(), static_cast<std::size_t>(n));

  struct Variant {
    const char* label;
    std::shared_ptr<const Partitioner> part;
    bool agg;
  };
  const Variant variants[] = {
      {"hash+agg", nullptr, true},
      {"bfs", make_bfs_partitioner(g, parts, seed), false},
      {"bfs+agg", make_bfs_partitioner(g, parts, seed), true},
      {"file", make_file_partitioner(range_assignment(g.num_nodes(), parts),
                                     g, parts),
       false},
  };
  for (const Variant& v : variants) {
    const std::string out = std::string("out_") + v.label;
    const RunReport r = run_one(out, v.part, v.agg);
    // Same fixpoint at the same iteration, and the same bytes.
    EXPECT_EQ(r.iterations_run, base.iterations_run) << v.label;
    EXPECT_EQ(read_state(*cluster, out), reference)
        << v.label << " diverged from hash (seed=" << seed
        << ", algo=" << algo_name(algo) << ")";
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsByAlgos, PartitionerEquivalence,
    ::testing::Combine(::testing::Values(uint64_t{1}, uint64_t{2},
                                         uint64_t{3}),
                       ::testing::Values(PAlgo::kSssp, PAlgo::kConComp,
                                         PAlgo::kPrDelta)),
    [](const ::testing::TestParamInfo<EquivParam>& info) {
      return std::string("seed") + std::to_string(std::get<0>(info.param)) +
             "_" + algo_name(std::get<1>(info.param));
    });

// Workset mode: the frontier drain must reach the same bytes under a BFS
// partitioner with the aggregated exchange as bulk hash does.
TEST(PartitionerWorkset, FrontierRunMatchesBulkHash) {
  const Graph g = sweep_graph(PAlgo::kSssp, 4);
  const auto n = static_cast<int64_t>(g.num_nodes());
  const int tasks = 4;

  auto cluster = testutil::free_cluster(3, 4, 4);
  Sssp::setup(*cluster, g, 0, "in");

  IterJobConf bulk = make_conf(PAlgo::kSssp, "in", "out_bulk");
  bulk.num_tasks = tasks;
  InvariantExpectations expect;
  expect.expected_parts = tasks;
  expect.expected_state_records = n;
  auto bulk_run = run_chaos_job(*cluster, bulk, FaultSchedule{},
                                ChannelFaultConfig{}, expect);
  ASSERT_TRUE(bulk_run.report.converged);

  IterJobConf ws = make_conf(PAlgo::kSssp, "in", "out_ws");
  ws.num_tasks = tasks;
  ws.workset_mode = true;
  ws.distance_threshold = -1.0;
  ws.partitioner = make_bfs_partitioner(g, static_cast<uint32_t>(tasks), 4);
  ws.aggregated_shuffle = true;
  auto ws_run = run_chaos_job(*cluster, ws, FaultSchedule{},
                              ChannelFaultConfig{},
                              workset_expectations(n, tasks));
  EXPECT_TRUE(ws_run.violations.empty())
      << ::testing::PrintToString(ws_run.violations);
  ASSERT_TRUE(ws_run.report.converged);
  EXPECT_EQ(ws_run.report.iterations_run, bulk_run.report.iterations_run);
  EXPECT_EQ(read_state(*cluster, "out_ws"), read_state(*cluster, "out_bulk"));
}

// A costed cluster exercises the affinity-guided placement for real (the
// free cost model falls back to round-robin); values must not move.
TEST(PartitionerPlacement, CostedPlacementKeepsBytes) {
  const Graph g = sweep_graph(PAlgo::kSssp, 6);
  const auto n = static_cast<int64_t>(g.num_nodes());
  const int tasks = 6;

  auto free_c = testutil::free_cluster(3, 4, 4);
  Sssp::setup(*free_c, g, 0, "in");
  IterJobConf hash_conf = make_conf(PAlgo::kSssp, "in", "out");
  hash_conf.num_tasks = tasks;
  ASSERT_TRUE(IterativeEngine(*free_c).run(hash_conf).converged);
  const auto reference = read_state(*free_c, "out");
  ASSERT_EQ(reference.size(), static_cast<std::size_t>(n));

  auto costed = testutil::costed_cluster(3, 4, 4);
  Sssp::setup(*costed, g, 0, "in");
  IterJobConf conf = make_conf(PAlgo::kSssp, "in", "out");
  conf.num_tasks = tasks;
  conf.partitioner = make_bfs_partitioner(g, static_cast<uint32_t>(tasks), 6);
  conf.aggregated_shuffle = true;
  ASSERT_TRUE(IterativeEngine(*costed).run(conf).converged);
  EXPECT_EQ(read_state(*costed, "out"), reference);
}

// Session mode: converge under a BFS partitioner + aggregated exchange,
// absorb a delta batch, and land on the cold hash recompute's bytes.
TEST(PartitionerSession, UpdateEpochMatchesColdHashRun) {
  const Graph g0 = sweep_graph(PAlgo::kSssp, 7);
  Graph g1 = g0;
  // A deterministic fresh edge: node 1 gains a shortcut to the last node.
  const auto last = static_cast<uint32_t>(g1.num_nodes() - 1);
  g1.adj[1].push_back(WEdge{last, 0.25});
  const int tasks = 4;

  auto make_session_conf = [&](const std::string& out) {
    IterJobConf conf = make_conf(PAlgo::kSssp, "in", out);
    conf.num_tasks = tasks;
    conf.workset_mode = true;
    conf.distance_threshold = -1.0;  // the drain is the only way to converge
    return conf;
  };

  // Cold reference over the FINAL graph, hash partitioning.
  auto cold = testutil::free_cluster(3, 4, 4);
  Sssp::setup(*cold, g1, 0, "in");
  ASSERT_TRUE(IterativeEngine(*cold).run(make_session_conf("out")).converged);
  const auto reference = read_state(*cold, "out");

  auto live = testutil::free_cluster(3, 4, 4);
  Sssp::setup(*live, g0, 0, "in");
  IterJobConf conf = make_session_conf("out");
  conf.partitioner =
      make_bfs_partitioner(g0, static_cast<uint32_t>(tasks), 7);
  conf.aggregated_shuffle = true;
  IterativeEngine engine(*live);
  JobSession session = engine.open_session(conf);
  ASSERT_TRUE(session.last_report().converged);
  EXPECT_TRUE(session.apply_update(Sssp::static_delta(g0, g1)).converged);
  session.close();
  EXPECT_EQ(read_state(*live, "out"), reference);
}

// ---------------------------------------------------------------------------
// Chaos: worker deaths under BFS partitioning + aggregated exchange must
// recover to the clean run's bytes (the PR-5/6 sweep pattern).
// ---------------------------------------------------------------------------

using ChaosParam = std::tuple<uint64_t, FaultPoint>;

class PartitionerChaos : public ::testing::TestWithParam<ChaosParam> {};

TEST_P(PartitionerChaos, RecoversToCleanBytes) {
  const auto [seed, point] = GetParam();
  LogNormalGraphSpec spec;
  spec.num_nodes = 90;
  spec.degree_mu = 1.0;
  spec.degree_sigma = 0.8;
  spec.weighted = true;
  spec.seed = 300 + seed;
  const Graph g = generate_lognormal_graph(spec);
  const auto n = static_cast<int64_t>(g.num_nodes());
  const int tasks = 4;

  auto make_pconf = [&](const std::string& out) {
    IterJobConf conf = Sssp::imapreduce("in", out, /*max_iterations=*/60, 0.5);
    conf.num_tasks = tasks;
    conf.partitioner = make_bfs_partitioner(g, static_cast<uint32_t>(tasks),
                                            seed);
    conf.aggregated_shuffle = true;
    conf.checkpoint_every = 2;
    return conf;
  };

  auto clean = testutil::free_cluster(4, 4, 4);
  Sssp::setup(*clean, g, 0, "in");
  auto clean_run = run_chaos_job(*clean, make_pconf("out"), FaultSchedule{});
  ASSERT_TRUE(clean_run.report.converged);
  const auto reference = read_state(*clean, "out");
  ASSERT_EQ(reference.size(), static_cast<std::size_t>(n));
  const int k_star = clean_run.report.iterations_run;
  ASSERT_GE(k_star, 3) << "graph converges too fast to inject faults";

  auto faulty = testutil::free_cluster(4, 4, 4);
  Sssp::setup(*faulty, g, 0, "in");
  FaultSchedule schedule;
  schedule.add(chaos::derive_fault(seed, 4, k_star - 1, point));
  InvariantExpectations expect;
  expect.expected_parts = tasks;
  expect.expected_state_records = n;
  expect.expected_recoveries = 1;
  auto result = run_chaos_job(*faulty, make_pconf("out"), schedule,
                              ChannelFaultConfig{}, expect);
  EXPECT_TRUE(result.violations.empty())
      << ::testing::PrintToString(result.violations);
  ASSERT_TRUE(result.report.converged);
  chaos::expect_all_faults_consumed(*faulty);
  EXPECT_EQ(read_state(*faulty, "out"), reference)
      << "seed=" << seed;
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, PartitionerChaos,
    ::testing::Combine(::testing::Values(uint64_t{1}, uint64_t{2},
                                         uint64_t{3}),
                       ::testing::Values(FaultPoint::kIterationBoundary,
                                         FaultPoint::kMidShuffle)),
    [](const ::testing::TestParamInfo<ChaosParam>& info) {
      return std::string("seed") + std::to_string(std::get<0>(info.param)) +
             (std::get<1>(info.param) == FaultPoint::kMidShuffle
                  ? "_MidShuffle"
                  : "_IterationBoundary");
    });

}  // namespace
}  // namespace imr
