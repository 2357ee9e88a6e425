// Job-session (incremental recomputation) suite — DESIGN.md §8.
//
// The load-bearing property: a session that converges on graph g0, absorbs
// static-delta batches toward graph g1, and reconverges must hold the SAME
// final state, byte for byte, as a cold workset run over g1. Refining deltas
// (per the algorithms' perturbed_keys hooks) take the incremental path —
// frontier iterations seeded only at the perturbed keys; non-refining deltas
// take the reset_all path — an in-session replay from the original initial
// state over the mutated static data. Both must land on identical bytes.
//
// Also here: the StaticStore mutation contract (apply_delta == fresh build of
// the mutated partition, epoch bump per mutation), the perturbed_keys hook
// classifications for all three algorithms, session fault sweeps (worker
// death mid-reconvergence with delta replay, torn converged-* checkpoints),
// and the InvariantChecker's session-aware rules (5: resume jumps, 8:
// per-session drain suffix, 9: delta conservation).
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <random>
#include <string>
#include <tuple>
#include <vector>

#include "algorithms/concomp.h"
#include "algorithms/pagerank.h"
#include "algorithms/sssp.h"
#include "cluster/fault_schedule.h"
#include "common/codec.h"
#include "common/error.h"
#include "graph/generator.h"
#include "imapreduce/api.h"
#include "imapreduce/conf.h"
#include "imapreduce/delta.h"
#include "imapreduce/engine.h"
#include "imapreduce/static_store.h"
#include "mapreduce/engine.h"  // resolve_input_paths
#include "mapreduce/shuffle_util.h"
#include "metrics/invariants.h"
#include "tests/chaos_harness.h"
#include "tests/test_util.h"

namespace imr {
namespace {

using chaos::workset_expectations;

enum class SesAlgo { kSssp, kConComp, kPrDelta };

const char* algo_name(SesAlgo a) {
  switch (a) {
    case SesAlgo::kSssp:
      return "Sssp";
    case SesAlgo::kConComp:
      return "ConComp";
    case SesAlgo::kPrDelta:
      return "PrDelta";
  }
  return "?";
}

constexpr double kPrTheta = 1e-6;

std::map<Bytes, Bytes> read_state(Cluster& cluster, const std::string& path) {
  std::map<Bytes, Bytes> state;
  for (const auto& part : resolve_input_paths(cluster.dfs(), path)) {
    for (const KV& kv : cluster.dfs().read_all(part, -1, nullptr)) {
      state[kv.key] = kv.value;
    }
  }
  return state;
}

void setup_algo(SesAlgo algo, Cluster& cluster, const Graph& g,
                const std::string& base) {
  switch (algo) {
    case SesAlgo::kSssp:
      Sssp::setup(cluster, g, 0, base);
      break;
    case SesAlgo::kConComp:
      ConComp::setup(cluster, g, base);
      break;
    case SesAlgo::kPrDelta:
      PageRank::setup_delta(cluster, g, base);
      break;
  }
}

IterJobConf make_conf(SesAlgo algo, const std::string& base,
                      const std::string& out, int tasks) {
  IterJobConf conf;
  switch (algo) {
    case SesAlgo::kSssp:
      conf = Sssp::imapreduce(base, out, /*max_iterations=*/60);
      break;
    case SesAlgo::kConComp:
      conf = ConComp::imapreduce(base, out, /*max_iterations=*/60);
      break;
    case SesAlgo::kPrDelta:
      conf = PageRank::imapreduce_delta(base, out, /*max_iterations=*/80,
                                        kPrTheta);
      break;
  }
  conf.num_tasks = tasks;
  conf.workset_mode = true;
  conf.distance_threshold = -1.0;  // the drain is the only way to converge
  return conf;
}

StaticDelta build_delta(SesAlgo algo, const Graph& before,
                        const Graph& after) {
  switch (algo) {
    case SesAlgo::kSssp:
      return Sssp::static_delta(before, after);
    case SesAlgo::kConComp:
      return ConComp::static_delta(before, after);
    case SesAlgo::kPrDelta:
      return PageRank::static_delta(before, after);
  }
  return {};
}

Graph base_graph(SesAlgo algo, uint64_t seed) {
  LogNormalGraphSpec spec;
  spec.num_nodes = 60 + static_cast<uint32_t>((seed * 41) % 100);
  spec.degree_mu = 0.6 + 0.3 * static_cast<double>(seed % 3);
  spec.degree_sigma = 0.7;
  spec.weighted = algo == SesAlgo::kSssp;
  spec.seed = 4000 + 11 * seed + static_cast<uint64_t>(algo);
  return generate_lognormal_graph(spec);
}

// Adds an edge between a deterministically-chosen non-adjacent pair, so every
// mutation is guaranteed to change at least one adjacency list even after
// symmetrization (ConComp's delta ignores duplicate edges).
void add_fresh_edge(Graph& g, std::mt19937_64& rng, bool weighted) {
  const uint32_t n = g.num_nodes();
  for (int tries = 0; tries < 64; ++tries) {
    auto u = static_cast<uint32_t>(rng() % n);
    auto v = static_cast<uint32_t>(rng() % n);
    if (u == v) continue;
    bool adjacent = false;
    for (const WEdge& e : g.adj[u]) adjacent |= e.dst == v;
    for (const WEdge& e : g.adj[v]) adjacent |= e.dst == u;
    if (adjacent) continue;
    double w = weighted ? 0.25 + 0.5 * (static_cast<double>(rng() % 8)) : 1.0;
    g.adj[u].push_back(WEdge{v, w});
    return;
  }
}

enum class Mutation { kRefine, kMixed };

// Deterministic graph edit batch. kRefine only adds edges or lowers weights,
// so SSSP/ConComp hooks accept the whole batch and the session takes the
// incremental path; kMixed also removes edges and raises weights, forcing
// reset_all. The node universe never changes.
Graph mutate(Graph g, uint64_t seed, Mutation kind, bool weighted) {
  std::mt19937_64 rng(seed * 977 + 13 + (kind == Mutation::kMixed ? 1 : 0));
  const uint32_t n = g.num_nodes();
  add_fresh_edge(g, rng, weighted);
  const int edits = 3 + static_cast<int>(rng() % 5);
  for (int i = 0; i < edits; ++i) {
    auto u = static_cast<uint32_t>(rng() % n);
    switch (rng() % (kind == Mutation::kMixed ? 3u : 2u)) {
      case 0:
        add_fresh_edge(g, rng, weighted);
        break;
      case 1:  // cheapen an existing edge (a no-op delta for unweighted algos)
        if (weighted && !g.adj[u].empty()) {
          g.adj[u][rng() % g.adj[u].size()].weight *= 0.5;
        } else {
          add_fresh_edge(g, rng, weighted);
        }
        break;
      case 2:  // remove an edge: never refining
        if (!g.adj[u].empty()) {
          g.adj[u].erase(g.adj[u].begin() +
                         static_cast<std::ptrdiff_t>(rng() % g.adj[u].size()));
        }
        break;
    }
  }
  return g;
}

// ---------------------------------------------------------------------------
// StaticStore mutation contract.
// ---------------------------------------------------------------------------

KVVec sorted_records(std::vector<std::pair<std::string, std::string>> kvs) {
  KVVec records;
  for (auto& [k, v] : kvs) records.emplace_back(k, v);
  sort_records(records, /*sort_values=*/false);
  return records;
}

TEST(StaticStoreDelta, ApplyDeltaMatchesFreshBuild) {
  std::mt19937_64 rng(7);
  for (int round = 0; round < 20; ++round) {
    // Random base partition (with occasional duplicate keys, as a real
    // static partition may hold) and a random op batch over the key space.
    std::vector<std::pair<std::string, std::string>> base;
    const int nkeys = 5 + static_cast<int>(rng() % 20);
    for (int i = 0; i < nkeys; ++i) {
      std::string key = "k" + std::to_string(rng() % 16);
      base.emplace_back(key, "v" + std::to_string(rng() % 100));
    }
    std::vector<StaticDeltaOp> ops;
    const int nops = 1 + static_cast<int>(rng() % 8);
    for (int i = 0; i < nops; ++i) {
      std::string key = "k" + std::to_string(rng() % 16);
      if (rng() % 3 == 0) {
        ops.emplace_back(DeltaOpKind::kErase, key);
      } else {
        ops.emplace_back(DeltaOpKind::kUpsert, key,
                         "u" + std::to_string(rng() % 100));
      }
    }

    StaticStore incremental;
    incremental.build(sorted_records(base));
    incremental.apply_delta(ops);

    // The reference: replay the batch against a plain multimap — an upsert
    // replaces ALL records of its key with the single new value, an erase
    // removes them all, and untouched keys keep every duplicate — then
    // build fresh from the surviving records.
    std::multimap<std::string, std::string> expect_map;
    for (auto& r : sorted_records(base)) {
      expect_map.emplace(std::string(r.key), std::string(r.value));
    }
    for (const auto& op : ops) {
      expect_map.erase(std::string(op.key));
      if (op.kind == DeltaOpKind::kUpsert) {
        expect_map.emplace(std::string(op.key), std::string(op.value));
      }
    }
    StaticStore fresh;
    {
      KVVec records;
      for (auto& [k, v] : expect_map) records.emplace_back(k, v);
      sort_records(records, /*sort_values=*/false);
      fresh.build(std::move(records));
    }

    ASSERT_EQ(incremental.records().size(), fresh.records().size())
        << "round " << round;
    for (std::size_t i = 0; i < fresh.records().size(); ++i) {
      EXPECT_EQ(incremental.records()[i].key, fresh.records()[i].key);
      EXPECT_EQ(incremental.records()[i].value, fresh.records()[i].value);
    }
    for (int k = 0; k < 16; ++k) {
      std::string key = "k" + std::to_string(k);
      const Bytes* a = incremental.find(key);
      const Bytes* b = fresh.find(key);
      ASSERT_EQ(a == nullptr, b == nullptr) << "key " << key;
      if (a != nullptr) EXPECT_EQ(*a, *b) << "key " << key;
    }
  }
}

TEST(StaticStoreDelta, UpsertCollapsesDuplicatesEraseRemovesAll) {
  StaticStore store;
  store.build(sorted_records({{"a", "1"}, {"a", "2"}, {"b", "3"},
                              {"b", "4"}, {"c", "5"}}));
  ASSERT_NE(store.find("a"), nullptr);
  EXPECT_EQ(*store.find("a"), "1");  // first in sorted order

  store.apply_delta({{DeltaOpKind::kUpsert, Bytes("a"), Bytes("9")},
                     {DeltaOpKind::kErase, Bytes("b")}});
  ASSERT_NE(store.find("a"), nullptr);
  EXPECT_EQ(*store.find("a"), "9");
  EXPECT_EQ(store.find("b"), nullptr);
  EXPECT_EQ(*store.find("c"), "5");
  EXPECT_EQ(store.records().size(), 2u);  // a collapsed, b gone, c kept
}

TEST(StaticStoreDelta, EveryMutationBumpsTheEpoch) {
  StaticStore store;
  const uint64_t e0 = store.epoch();
  store.build(sorted_records({{"a", "1"}}));
  const uint64_t e1 = store.epoch();
  EXPECT_GT(e1, e0);
  store.apply_delta({{DeltaOpKind::kUpsert, Bytes("a"), Bytes("2")}});
  const uint64_t e2 = store.epoch();
  EXPECT_GT(e2, e1);
  store.apply_delta({});  // even an empty batch invalidates probes
  EXPECT_GT(store.epoch(), e2);
}

// ---------------------------------------------------------------------------
// perturbed_keys hook classifications.
// ---------------------------------------------------------------------------

Bytes wedges(const std::vector<WEdge>& edges) {
  Bytes b;
  encode_wedges(edges, b);
  return b;
}

Bytes adj_bytes(const std::vector<uint32_t>& adj) {
  Bytes b;
  encode_adj(adj, b);
  return b;
}

TEST(PerturbHooks, SsspRefinesOnlyWhenNoDestinationGetsFarther) {
  IterJobConf conf = Sssp::imapreduce("in", "out", 5);
  auto mapper = conf.phases[0].mapper();
  const Bytes old_edges = wedges({{1, 2.0}, {2, 5.0}});

  KVVec seeds;
  // Added edge + lowered weight: refining, seed = the perturbed key.
  EXPECT_TRUE(mapper->perturbed_keys(
      {DeltaOpKind::kUpsert, u32_key(7), wedges({{1, 2.0}, {2, 4.0}, {3, 1.0}})},
      &old_edges, seeds));
  ASSERT_EQ(seeds.size(), 1u);
  EXPECT_EQ(seeds[0].key, u32_key(7));

  // Raised weight: the path through dst 2 may lengthen.
  seeds.clear();
  EXPECT_FALSE(mapper->perturbed_keys(
      {DeltaOpKind::kUpsert, u32_key(7), wedges({{1, 2.0}, {2, 6.0}})},
      &old_edges, seeds));
  EXPECT_EQ(seeds.size(), 1u);  // the seed is pushed either way

  // Removed destination.
  seeds.clear();
  EXPECT_FALSE(mapper->perturbed_keys(
      {DeltaOpKind::kUpsert, u32_key(7), wedges({{1, 2.0}})}, &old_edges,
      seeds));

  // A parallel cheaper edge covers the old one: still refining.
  seeds.clear();
  EXPECT_TRUE(mapper->perturbed_keys(
      {DeltaOpKind::kUpsert, u32_key(7),
       wedges({{1, 2.0}, {2, 9.0}, {2, 3.0}})},
      &old_edges, seeds));

  // Erase and no-prior-static cases.
  seeds.clear();
  EXPECT_FALSE(mapper->perturbed_keys({DeltaOpKind::kErase, u32_key(7)},
                                      &old_edges, seeds));
  seeds.clear();
  EXPECT_TRUE(mapper->perturbed_keys(
      {DeltaOpKind::kUpsert, u32_key(9), wedges({{1, 1.0}})}, nullptr,
      seeds));
}

TEST(PerturbHooks, ConCompRefinesOnlyOnNeighborSupersets) {
  IterJobConf conf = ConComp::imapreduce("in", "out", 5);
  auto mapper = conf.phases[0].mapper();
  const Bytes old_adj = adj_bytes({1, 4});

  KVVec seeds;
  EXPECT_TRUE(mapper->perturbed_keys(
      {DeltaOpKind::kUpsert, u32_key(3), adj_bytes({1, 2, 4})}, &old_adj,
      seeds));
  ASSERT_EQ(seeds.size(), 1u);
  EXPECT_EQ(seeds[0].key, u32_key(3));
  EXPECT_EQ(seeds[0].value, u32_key(3));  // fallback label = own id

  seeds.clear();
  EXPECT_FALSE(mapper->perturbed_keys(
      {DeltaOpKind::kUpsert, u32_key(3), adj_bytes({1, 2})}, &old_adj,
      seeds));
  seeds.clear();
  EXPECT_FALSE(mapper->perturbed_keys({DeltaOpKind::kErase, u32_key(3)},
                                      &old_adj, seeds));
  seeds.clear();
  EXPECT_TRUE(mapper->perturbed_keys(
      {DeltaOpKind::kUpsert, u32_key(3), adj_bytes({5})}, nullptr, seeds));
}

TEST(PerturbHooks, PageRankDeltaAlwaysResets) {
  IterJobConf conf = PageRank::imapreduce_delta("in", "out", 5, kPrTheta);
  auto mapper = conf.phases[0].mapper();
  const Bytes old_adj = adj_bytes({1});
  KVVec seeds;
  // Even a pure superset is non-refining: share mass already banked
  // downstream redistributes, so only a reset replay is byte-exact.
  EXPECT_FALSE(mapper->perturbed_keys(
      {DeltaOpKind::kUpsert, u32_key(0), adj_bytes({1, 2})}, &old_adj,
      seeds));
}

// ---------------------------------------------------------------------------
// Session equivalence sweep: the session's reconverged state must be
// byte-identical to a cold workset run over the mutated graph — across
// seeds, algorithms, and both the refining and reset_all paths, with TWO
// update batches applied back to back.
// ---------------------------------------------------------------------------

using SesParam = std::tuple<uint64_t, SesAlgo, Mutation>;

class SessionEquivalence : public ::testing::TestWithParam<SesParam> {};

TEST_P(SessionEquivalence, ReconvergesToColdRunBytes) {
  const auto [seed, algo, kind] = GetParam();
  const bool weighted = algo == SesAlgo::kSssp;
  const Graph g0 = base_graph(algo, seed);
  const Graph g1 = mutate(g0, seed, kind, weighted);
  const Graph g2 = mutate(g1, seed + 100, kind, weighted);
  const auto n = static_cast<int64_t>(g0.num_nodes());
  const int tasks = 2 + static_cast<int>(seed % 3);

  // Cold reference: a plain workset run over the FINAL graph.
  auto cold = testutil::free_cluster(3, 4, 4);
  setup_algo(algo, *cold, g2, "in");
  IterativeEngine cold_engine(*cold);
  RunReport cold_run = cold_engine.run(make_conf(algo, "in", "out", tasks));
  ASSERT_TRUE(cold_run.converged);
  const auto reference = read_state(*cold, "out");

  // Session: converge on g0, then absorb g0->g1 and g1->g2.
  auto live = testutil::free_cluster(3, 4, 4);
  setup_algo(algo, *live, g0, "in");
  IterativeEngine engine(*live);
  JobSession session = engine.open_session(make_conf(algo, "in", "out", tasks));
  ASSERT_TRUE(session.last_report().converged);

  const StaticDelta d1 = build_delta(algo, g0, g1);
  const StaticDelta d2 = build_delta(algo, g1, g2);
  RunReport epoch1 = session.apply_update(d1);
  EXPECT_TRUE(epoch1.converged);
  RunReport epoch2 = session.apply_update(d2);
  EXPECT_TRUE(epoch2.converged);
  RunReport full = session.close();
  EXPECT_TRUE(session.closed());

  // The property under test: byte-identical reconverged state.
  EXPECT_EQ(reference, read_state(*live, "out"))
      << "session state diverged from the cold run (seed=" << seed
      << ", algo=" << algo_name(algo)
      << ", kind=" << (kind == Mutation::kRefine ? "refine" : "mixed") << ")";

  // Epoch accounting and the delta-conservation invariant over the whole
  // session run.
  EXPECT_EQ(live->metrics().count("imr_session_epochs"), 2);
  if (algo == SesAlgo::kPrDelta) {
    // Non-monotone: every batch resets.
    EXPECT_EQ(live->metrics().count("imr_session_resets"), 2);
  } else if (kind == Mutation::kRefine) {
    // Purely refining batches must take the incremental path.
    EXPECT_EQ(live->metrics().count("imr_session_resets"), 0);
  }
  InvariantExpectations expect = workset_expectations(n, tasks);
  expect.expected_delta_ops = static_cast<int64_t>(d1.size() + d2.size());
  auto violations = InvariantChecker(live->metrics())
                        .with_channel_stats(live->fabric().channel_stats())
                        .with_report(full)
                        .check(expect);
  EXPECT_TRUE(violations.empty()) << ::testing::PrintToString(violations);
}

INSTANTIATE_TEST_SUITE_P(
    SeedsByAlgosByMutations, SessionEquivalence,
    ::testing::Combine(
        ::testing::Values(uint64_t{1}, uint64_t{2}, uint64_t{3}),
        ::testing::Values(SesAlgo::kSssp, SesAlgo::kConComp,
                          SesAlgo::kPrDelta),
        ::testing::Values(Mutation::kRefine, Mutation::kMixed)),
    [](const ::testing::TestParamInfo<SesParam>& info) {
      return std::string("seed") + std::to_string(std::get<0>(info.param)) +
             "_" + algo_name(std::get<1>(info.param)) +
             (std::get<2>(info.param) == Mutation::kRefine ? "_refine"
                                                           : "_mixed");
    });

// Sessions are defined over frontiers: a bulk-mode conf must be rejected at
// open time, before any task spawns.
TEST(SessionConf, RejectsBulkModeJobs) {
  IterJobConf conf = Sssp::imapreduce("in", "out", 5);
  auto cluster = testutil::free_cluster(2, 2, 2);
  IterativeEngine engine(*cluster);
  EXPECT_THROW(engine.open_session(conf), ConfigError);
}

// An empty update batch is a legal no-op epoch: the frontier starts empty
// and drains immediately, and the state is untouched.
TEST(SessionConf, EmptyDeltaIsANoOpEpoch) {
  const Graph g = base_graph(SesAlgo::kSssp, 1);
  auto cluster = testutil::free_cluster(3, 4, 4);
  Sssp::setup(*cluster, g, 0, "in");
  IterativeEngine engine(*cluster);
  JobSession session =
      engine.open_session(make_conf(SesAlgo::kSssp, "in", "out", 3));
  RunReport epoch = session.apply_update(StaticDelta{});
  EXPECT_TRUE(epoch.converged);
  session.close();

  auto fresh = testutil::free_cluster(3, 4, 4);
  Sssp::setup(*fresh, g, 0, "in");
  IterativeEngine cold_engine(*fresh);
  cold_engine.run(make_conf(SesAlgo::kSssp, "in", "out", 3));
  EXPECT_EQ(read_state(*fresh, "out"), read_state(*cluster, "out"));
}

// ---------------------------------------------------------------------------
// Session fault sweeps.
// ---------------------------------------------------------------------------

// A long tail hanging off node 0 guarantees reconvergence takes at least
// `len` iterations (the halved weights re-propagate hop by hop), giving the
// mid-reconvergence fault a window to fire.
Graph with_tail(Graph g, int len) {
  uint32_t prev = 0;
  for (int t = 0; t < len; ++t) {
    auto node = static_cast<uint32_t>(g.adj.size());
    g.adj.emplace_back();
    g.adj[prev].push_back(WEdge{node, 1.0});
    prev = node;
  }
  return g;
}

Graph halve_weights(Graph g) {
  for (auto& adj : g.adj) {
    for (WEdge& e : adj) e.weight *= 0.5;
  }
  return g;
}

struct ChaosGraphs {
  Graph g0, g1;
  int64_t n = 0;
};

ChaosGraphs chaos_graphs() {
  LogNormalGraphSpec spec;
  spec.num_nodes = 90;
  spec.degree_mu = 1.0;
  spec.degree_sigma = 0.8;
  spec.weighted = true;
  spec.seed = 7321;
  ChaosGraphs g;
  g.g0 = with_tail(generate_lognormal_graph(spec), 8);
  // Halving EVERY weight perturbs every node that has out-edges — the delta
  // spans all partitions, so any respawned map task must replay ops — and is
  // refining (no destination gets farther), so the session reconverges
  // incrementally over >= 8 frontier iterations down the tail.
  g.g1 = halve_weights(g.g0);
  g.n = static_cast<int64_t>(g.g0.num_nodes());
  return g;
}

// Worker death in the middle of a reconvergence epoch: the master rolls the
// epoch back, the respawned map tasks rebuild their static stores from the
// ORIGINAL input and replay the session's delta history, and the re-drained
// state must still match the cold run bytes.
TEST(SessionChaos, WorkerDeathMidReconvergenceReplaysDeltas) {
  const ChaosGraphs g = chaos_graphs();
  const int kTasks = 4;
  IterJobConf conf = make_conf(SesAlgo::kSssp, "in", "out", kTasks);
  conf.checkpoint_every = 2;

  auto cold = testutil::free_cluster(3, 4, 4);
  Sssp::setup(*cold, g.g1, 0, "in");
  IterativeEngine cold_engine(*cold);
  ASSERT_TRUE(cold_engine.run(conf).converged);
  const auto reference = read_state(*cold, "out");

  auto live = testutil::free_cluster(3, 4, 4);
  Sssp::setup(*live, g.g0, 0, "in");
  IterativeEngine engine(*live);
  JobSession session = engine.open_session(conf);
  const RunReport& initial = session.last_report();
  ASSERT_TRUE(initial.converged);
  ASSERT_FALSE(initial.iterations.empty());
  const int k_star = initial.iterations.back().iteration;

  // The epoch resumes at k*+2; parked tasks may already have probed the
  // k*+2 boundary while draining, so strike one iteration later — the >= 8
  // tail iterations guarantee the epoch reaches it.
  FaultSchedule schedule;
  schedule.add(/*worker=*/1, FaultPoint::kIterationBoundary,
               /*at_iteration=*/k_star + 3);
  live->set_fault_schedule(schedule);

  const StaticDelta delta = Sssp::static_delta(g.g0, g.g1);
  RunReport epoch = session.apply_update(delta);
  EXPECT_TRUE(epoch.converged);
  RunReport full = session.close();

  EXPECT_EQ(reference, read_state(*live, "out"))
      << "recovered session diverged from the cold run bytes";
  EXPECT_EQ(live->metrics().count("imr_recoveries"), 1);
  EXPECT_GT(live->metrics().count("imr_delta_ops_replayed"), 0)
      << "respawned maps must replay the session's delta history";
  EXPECT_EQ(live->metrics().count("imr_session_resets"), 0);
  chaos::expect_all_faults_consumed(*live);

  InvariantExpectations expect = workset_expectations(g.n, kTasks,
                                                      /*expected_recoveries=*/1);
  expect.expected_delta_ops = static_cast<int64_t>(delta.size());
  auto violations = InvariantChecker(live->metrics())
                        .with_channel_stats(live->fabric().channel_stats())
                        .with_report(full)
                        .check(expect);
  EXPECT_TRUE(violations.empty()) << ::testing::PrintToString(violations);
}

// A fault tears the converged-* checkpoint mid-write (half the records land,
// then the task dies). The master must roll back, re-drain, and re-quiesce
// with a complete baseline — and the following update epoch must still
// reconverge to the cold bytes (the torn half must never be read back).
TEST(SessionChaos, TornConvergedCheckpointRetriesQuiesce) {
  const ChaosGraphs g = chaos_graphs();
  const int kTasks = 4;
  IterJobConf conf = make_conf(SesAlgo::kSssp, "in", "out", kTasks);
  // Suppress periodic checkpoints so the converged-* dump is the ONLY
  // kCheckpointWrite probe: the rollback restarts from iteration 0.
  conf.checkpoint_every = 100;

  auto cold = testutil::free_cluster(3, 4, 4);
  Sssp::setup(*cold, g.g1, 0, "in");
  IterativeEngine cold_engine(*cold);
  ASSERT_TRUE(cold_engine.run(conf).converged);
  const auto reference = read_state(*cold, "out");

  auto live = testutil::free_cluster(3, 4, 4);
  Sssp::setup(*live, g.g0, 0, "in");
  FaultSchedule schedule;
  schedule.add(/*worker=*/1, FaultPoint::kCheckpointWrite, /*at_iteration=*/1);
  live->set_fault_schedule(schedule);

  IterativeEngine engine(*live);
  JobSession session = engine.open_session(conf);
  ASSERT_TRUE(session.last_report().converged);
  EXPECT_EQ(live->metrics().count("imr_torn_checkpoints"), 1);
  EXPECT_EQ(live->metrics().count("imr_recoveries"), 1);

  const StaticDelta delta = Sssp::static_delta(g.g0, g.g1);
  EXPECT_TRUE(session.apply_update(delta).converged);
  RunReport full = session.close();

  EXPECT_EQ(reference, read_state(*live, "out"))
      << "session resumed from a torn converged checkpoint";
  chaos::expect_all_faults_consumed(*live);

  InvariantExpectations expect = workset_expectations(g.n, kTasks,
                                                      /*expected_recoveries=*/1);
  expect.expected_delta_ops = static_cast<int64_t>(delta.size());
  auto violations = InvariantChecker(live->metrics())
                        .with_channel_stats(live->fabric().channel_stats())
                        .with_report(full)
                        .check(expect);
  EXPECT_TRUE(violations.empty()) << ::testing::PrintToString(violations);
}

// Worker death inside a reset_all epoch: the replay is a full cold run in
// place, and recovery during it must still land on the cold bytes.
TEST(SessionChaos, WorkerDeathDuringResetReplay) {
  const ChaosGraphs g = chaos_graphs();
  // Drop one edge so the delta is non-refining and the epoch resets.
  Graph g1 = g.g1;
  uint32_t victim = 0;
  while (g1.adj[victim].empty()) ++victim;
  g1.adj[victim].pop_back();

  const int kTasks = 4;
  IterJobConf conf = make_conf(SesAlgo::kSssp, "in", "out", kTasks);
  conf.checkpoint_every = 2;

  auto cold = testutil::free_cluster(3, 4, 4);
  Sssp::setup(*cold, g1, 0, "in");
  IterativeEngine cold_engine(*cold);
  ASSERT_TRUE(cold_engine.run(conf).converged);
  const auto reference = read_state(*cold, "out");

  auto live = testutil::free_cluster(3, 4, 4);
  Sssp::setup(*live, g.g0, 0, "in");
  IterativeEngine engine(*live);
  JobSession session = engine.open_session(conf);
  ASSERT_TRUE(session.last_report().converged);
  const int k_star = session.last_report().iterations.back().iteration;

  FaultSchedule schedule;
  schedule.add(/*worker=*/2, FaultPoint::kIterationBoundary,
               /*at_iteration=*/k_star + 3);
  live->set_fault_schedule(schedule);

  EXPECT_TRUE(session.apply_update(Sssp::static_delta(g.g0, g1)).converged);
  session.close();

  EXPECT_EQ(live->metrics().count("imr_session_resets"), 1);
  EXPECT_EQ(live->metrics().count("imr_recoveries"), 1);
  chaos::expect_all_faults_consumed(*live);
  EXPECT_EQ(reference, read_state(*live, "out"))
      << "reset replay diverged after recovery";
}

// Forwards to a mapper, except that its perturbed_keys hook throws.
class ThrowingPerturbMapper : public IterMapper {
 public:
  explicit ThrowingPerturbMapper(std::unique_ptr<IterMapper> inner)
      : inner_(std::move(inner)) {}
  void configure(const Params& params) override { inner_->configure(params); }
  void map(const Bytes& key, const Bytes& state, const Bytes& stat,
           IterEmitter& out) override {
    inner_->map(key, state, stat, out);
  }
  void flush(IterEmitter& out) override { inner_->flush(out); }
  bool perturbed_keys(const StaticDeltaOp&, const Bytes*, KVVec&) override {
    throw Error("perturbed_keys hook failed");
  }

 private:
  std::unique_ptr<IterMapper> inner_;
};

// A task that dies inside the delta barrier is reported like any other task
// error: apply_update throws the task's own error, and the session is closed.
TEST(SessionChaos, TaskErrorDuringDeltaBarrierReachesCaller) {
  const ChaosGraphs g = chaos_graphs();
  IterJobConf conf = make_conf(SesAlgo::kSssp, "in", "out", 4);
  conf.phases[0].mapper = [inner = conf.phases[0].mapper] {
    return std::make_unique<ThrowingPerturbMapper>(inner());
  };
  auto cluster = testutil::free_cluster(3, 4, 4);
  Sssp::setup(*cluster, g.g0, 0, "in");
  IterativeEngine engine(*cluster);
  JobSession session = engine.open_session(conf);
  ASSERT_TRUE(session.last_report().converged);

  try {
    session.apply_update(Sssp::static_delta(g.g0, g.g1));
    ADD_FAILURE() << "apply_update swallowed the hook's error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("perturbed_keys hook failed"),
              std::string::npos)
        << e.what();
  }
  EXPECT_TRUE(session.closed());
  EXPECT_NO_THROW(session.close());
}

// A worker that dies as its map applies an update, inside the delta barrier,
// fails the update: the surviving maps' acks and seeds would not outlive a
// rollback. apply_update throws an error naming the worker and the epoch,
// and the torn-down session leaves no endpoint and no checkpoint behind.
TEST(SessionChaos, WorkerDeathInsideDeltaBarrierFailsTheUpdate) {
  const ChaosGraphs g = chaos_graphs();
  IterJobConf conf = make_conf(SesAlgo::kSssp, "in", "out", 4);
  conf.checkpoint_every = 2;
  auto cluster = testutil::free_cluster(3, 4, 4);
  Sssp::setup(*cluster, g.g0, 0, "in");
  IterativeEngine engine(*cluster);
  JobSession session = engine.open_session(conf);
  ASSERT_TRUE(session.last_report().converged);

  FaultSchedule schedule;
  schedule.add(/*worker=*/1, FaultPoint::kDeltaApply, /*at_iteration=*/1);
  cluster->set_fault_schedule(schedule);
  try {
    session.apply_update(Sssp::static_delta(g.g0, g.g1));
    ADD_FAILURE() << "apply_update returned after a failure in its barrier";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "worker 1 failed while applying the update of session "
                  "epoch 1"),
              std::string::npos)
        << e.what();
  }
  EXPECT_TRUE(session.closed());
  EXPECT_NO_THROW(session.close());
  chaos::expect_all_faults_consumed(*cluster);
  EXPECT_EQ(cluster->metrics().count("imr_recoveries"), 0);
  EXPECT_EQ(cluster->fabric().endpoint_count(), 0u);
  EXPECT_TRUE(cluster->dfs().list("ckpt/").empty());
}

// ---------------------------------------------------------------------------
// InvariantChecker session-aware rules (5, 8, 9) — synthetic reports.
// ---------------------------------------------------------------------------

RunReport session_report(
    const std::vector<std::tuple<int, int, int64_t>>& entries) {
  RunReport r;
  r.converged = true;
  for (const auto& [iteration, session, ws] : entries) {
    IterationStat st;
    st.iteration = iteration;
    st.session = session;
    st.workset_size = ws;
    r.iterations.push_back(st);
  }
  r.iterations_run = r.iterations.empty() ? 0 : r.iterations.back().iteration;
  r.final_state_records = 100;
  return r;
}

std::vector<std::string> check_synthetic(const MetricsRegistry& metrics,
                                         const RunReport& report,
                                         const InvariantExpectations& expect) {
  return InvariantChecker(metrics).with_report(report).check(expect);
}

TEST(SessionInvariants, ResumeJumpAcrossSessionsIsClean) {
  // Session 0 drains at 3; the update epoch resumes at 5 (drain + 2).
  RunReport r = session_report(
      {{1, 0, 100}, {2, 0, 10}, {3, 0, 0}, {5, 1, 4}, {6, 1, 0}});
  MetricsRegistry m;
  auto violations = check_synthetic(m, r, workset_expectations(100));
  EXPECT_TRUE(violations.empty()) << ::testing::PrintToString(violations);
}

TEST(SessionInvariants, IterationRegressAcrossSessionBoundaryFlagged) {
  RunReport r = session_report({{1, 0, 100}, {2, 0, 0}, {2, 1, 4}, {3, 1, 0}});
  MetricsRegistry m;
  auto violations = check_synthetic(m, r, workset_expectations(100));
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_NE(violations[0].find("regresses"), std::string::npos)
      << violations[0];
}

TEST(SessionInvariants, JumpWithinASessionStillFlagged) {
  RunReport r = session_report({{1, 0, 100}, {3, 0, 0}});
  MetricsRegistry m;
  auto violations = check_synthetic(m, r, workset_expectations(100));
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_NE(violations[0].find("jumps"), std::string::npos) << violations[0];
}

TEST(SessionInvariants, SessionRegressFlagged) {
  RunReport r = session_report({{1, 1, 100}, {2, 0, 0}});
  MetricsRegistry m;
  auto violations = check_synthetic(m, r, workset_expectations(100));
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_NE(violations[0].find("session ledger"), std::string::npos)
      << violations[0];
}

TEST(SessionInvariants, DrainedSuffixWithinSessionIsClean) {
  // A recovery that rolled back to the drain checkpoint re-decides drained
  // iterations before quiescing: trailing zeros are legal.
  RunReport r = session_report(
      {{1, 0, 100}, {2, 0, 0}, {4, 1, 6}, {5, 1, 0}, {6, 1, 0}});
  MetricsRegistry m;
  auto violations = check_synthetic(m, r, workset_expectations(100));
  EXPECT_TRUE(violations.empty()) << ::testing::PrintToString(violations);
}

TEST(SessionInvariants, ZeroThenNonzeroSameSessionFlagged) {
  RunReport r = session_report({{1, 0, 100}, {2, 0, 0}, {3, 0, 5}, {4, 0, 0}});
  MetricsRegistry m;
  auto violations = check_synthetic(m, r, workset_expectations(100));
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_NE(violations[0].find("past its fixpoint"), std::string::npos)
      << violations[0];
}

TEST(SessionInvariants, DeltaLedgerImbalanceFlagged) {
  RunReport r = session_report({{1, 0, 100}, {2, 0, 0}});
  MetricsRegistry m;
  m.inc("imr_delta_ops_routed", 5);
  m.inc("imr_delta_ops_applied", 4);
  auto violations = check_synthetic(m, r, workset_expectations(100));
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_NE(violations[0].find("delta ledger"), std::string::npos)
      << violations[0];
}

TEST(SessionInvariants, DeltaLedgerBalancedAndExpectedCountChecked) {
  RunReport r = session_report({{1, 0, 100}, {2, 0, 0}});
  MetricsRegistry m;
  m.inc("imr_delta_ops_routed", 5);
  m.inc("imr_delta_ops_applied", 5);
  // Replayed ops are outside the balance on purpose.
  m.inc("imr_delta_ops_replayed", 3);
  InvariantExpectations expect = workset_expectations(100);
  expect.expected_delta_ops = 5;
  EXPECT_TRUE(check_synthetic(m, r, expect).empty());
  expect.expected_delta_ops = 7;
  auto violations = check_synthetic(m, r, expect);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_NE(violations[0].find("expected 7 delta ops"), std::string::npos)
      << violations[0];
}

}  // namespace
}  // namespace imr
