// Auxiliary-phase tests beyond the K-means happy path: reduce-sourced aux
// phases, aux monitoring without termination, multiple aux reducers, and
// configuration guards.
#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <map>

#include "algorithms/kmeans.h"
#include "algorithms/sssp.h"
#include "graph/generator.h"
#include "imapreduce/engine.h"
#include "mapreduce/engine.h"  // resolve_input_paths
#include "tests/test_util.h"

namespace imr {
namespace {

Graph aux_graph(uint64_t seed = 83) {
  LogNormalGraphSpec spec;
  spec.num_nodes = 300;
  spec.seed = seed;
  return generate_lognormal_graph(spec);
}

// An aux pipeline that counts records it saw, into a shared atomic (test
// instrumentation only — real aux phases communicate via the signal key).
struct CountingAux {
  std::shared_ptr<std::atomic<int64_t>> seen =
      std::make_shared<std::atomic<int64_t>>(0);

  AuxConf conf(AuxConf::Source source) {
    AuxConf aux;
    aux.source = source;
    auto seen_ptr = seen;
    aux.mapper = make_iter_mapper(
        [seen_ptr](const Bytes& key, const Bytes& value, const Bytes&,
                   IterEmitter& out) {
          seen_ptr->fetch_add(1);
          out.emit(key, value);
        });
    aux.reducer = make_iter_reducer(
        [](const Bytes&, const std::vector<Bytes>&, IterEmitter&) {});
    aux.num_reduce_tasks = 2;
    return aux;
  }
};

TEST(ImrAuxMore, ReduceSourcedAuxSeesEveryStateRecord) {
  auto cluster = testutil::free_cluster();
  Graph g = aux_graph();
  Sssp::setup(*cluster, g, 0, "sssp");

  CountingAux counting;
  IterJobConf conf = Sssp::imapreduce("sssp", "out", 4);
  conf.aux = counting.conf(AuxConf::Source::kReduceOutput);
  IterativeEngine engine(*cluster);
  RunReport r = engine.run(conf);
  EXPECT_EQ(r.iterations_run, 4);
  // Every node's state record per iteration flows through the aux phase.
  EXPECT_EQ(counting.seen->load(),
            static_cast<int64_t>(g.num_nodes()) * 4);
}

TEST(ImrAuxMore, MapSideAuxSeesSideOutputsOnly) {
  auto cluster = testutil::free_cluster();
  Graph g = aux_graph(89);
  Sssp::setup(*cluster, g, 0, "sssp");

  CountingAux counting;
  IterJobConf conf = Sssp::imapreduce("sssp", "out", 3);
  // The SSSP mapper never calls side(): the aux phase sees nothing but the
  // per-iteration EOS markers.
  conf.aux = counting.conf(AuxConf::Source::kMapSideOutput);
  IterativeEngine engine(*cluster);
  RunReport r = engine.run(conf);
  EXPECT_EQ(r.iterations_run, 3);
  EXPECT_EQ(counting.seen->load(), 0);
}

TEST(ImrAuxMore, AuxSignalOnFirstIterationStopsImmediately) {
  auto cluster = testutil::free_cluster();
  Graph g = aux_graph(97);
  Sssp::setup(*cluster, g, 0, "sssp");

  IterJobConf conf = Sssp::imapreduce("sssp", "out", 20);
  AuxConf aux;
  aux.source = AuxConf::Source::kReduceOutput;
  aux.mapper = make_iter_mapper([](const Bytes& key, const Bytes& value,
                                   const Bytes&, IterEmitter& out) {
    out.emit(key, value);
  });
  aux.reducer = make_iter_reducer(
      [](const Bytes&, const std::vector<Bytes>&, IterEmitter& out) {
        out.emit(kTerminateSignalKey, Bytes("now"));
      });
  aux.num_reduce_tasks = 1;
  conf.aux = std::move(aux);

  IterativeEngine engine(*cluster);
  RunReport r = engine.run(conf);
  EXPECT_TRUE(r.converged);
  EXPECT_LE(r.iterations_run, 4);  // signal defers to the next decision
  // Final output exists and matches the state of the last decided iteration.
  auto d = Sssp::read_result_imr(*cluster, "out", g.num_nodes());
  auto expected = Sssp::reference(g, 0, r.iterations_run);
  for (uint32_t u = 0; u < g.num_nodes(); ++u) {
    bool both_inf = std::isinf(expected[u]) && std::isinf(d[u]);
    EXPECT_TRUE(both_inf || expected[u] == d[u]) << u;
  }
}

TEST(ImrAuxMore, AuxKeepsReceivingAcrossRollback) {
  auto cluster = testutil::free_cluster();
  Graph g = aux_graph(101);
  Sssp::setup(*cluster, g, 0, "sssp");
  CountingAux counting;

  IterJobConf conf = Sssp::imapreduce("sssp", "out", 5);
  conf.aux = counting.conf(AuxConf::Source::kReduceOutput);
  conf.checkpoint_every = 1;
  cluster->schedule_fault({/*worker=*/1, FaultPoint::kIterationBoundary,
                           /*at_iteration=*/2});

  IterativeEngine engine(*cluster);
  RunReport r = engine.run(conf);
  cluster->assert_faults_consumed();
  EXPECT_EQ(r.iterations_run, 5);
  ASSERT_EQ(r.rollback_iterations.size(), 1u);
  // After the rollback the main phase re-sends the aux copies under the
  // bumped generation. A generation-unaware aux phase would stash that data
  // forever and stop seeing records at the failure point; a generation-aware
  // one sees at least one full copy of every decided iteration.
  EXPECT_GE(counting.seen->load(),
            static_cast<int64_t>(g.num_nodes()) * 5);
  // The recovered output is still exact.
  auto d = Sssp::read_result_imr(*cluster, "out", g.num_nodes());
  auto expected = Sssp::reference(g, 0, 5);
  testutil::expect_near_vectors(expected, d, 0.0);
}

TEST(ImrAuxMore, AuxSignalStillFiresAfterRecovery) {
  auto cluster = testutil::free_cluster();
  Graph g = aux_graph(107);
  Sssp::setup(*cluster, g, 0, "sssp");

  // Distance-based stopping disabled: the aux signal is the ONLY way this
  // job can converge before the 20-iteration cap.
  IterJobConf conf = Sssp::imapreduce("sssp", "out", 20);
  conf.checkpoint_every = 1;
  auto seen = std::make_shared<std::atomic<int64_t>>(0);
  const int64_t threshold = 4 * static_cast<int64_t>(g.num_nodes());
  AuxConf aux;
  aux.source = AuxConf::Source::kReduceOutput;
  aux.mapper = make_iter_mapper(
      [seen](const Bytes& key, const Bytes& value, const Bytes&,
             IterEmitter& out) {
        seen->fetch_add(1);
        out.emit(key, value);
      });
  aux.reducer = make_iter_reducer(
      [seen, threshold](const Bytes&, const std::vector<Bytes>&,
                        IterEmitter& out) {
        if (seen->load() >= threshold) {
          out.emit(kTerminateSignalKey, Bytes("enough"));
        }
      });
  aux.num_reduce_tasks = 1;
  conf.aux = std::move(aux);
  // The failure hits before the signal threshold can be reached, so the
  // signal must come from a post-rollback aux generation.
  cluster->schedule_fault({/*worker=*/1, FaultPoint::kIterationBoundary,
                           /*at_iteration=*/2});

  IterativeEngine engine(*cluster);
  RunReport r = engine.run(conf);
  cluster->assert_faults_consumed();
  EXPECT_EQ(r.rollback_iterations.size(), 1u);
  // A generation-stuck aux phase would never signal again and the run would
  // grind to the cap unconverged.
  EXPECT_TRUE(r.converged);
  EXPECT_LT(r.iterations_run, 20);
}

TEST(ImrAuxMore, AuxSlotsCountAgainstLimits) {
  // 4 workers x 2 map slots = 8; T=4 main + 4 aux + one phase = fits;
  // T=8 main + 8 aux does not.
  ClusterConfig cfg;
  cfg.num_workers = 4;
  cfg.map_slots_per_worker = 2;
  cfg.reduce_slots_per_worker = 2;
  cfg.cost = CostModel::free();
  Cluster cluster(cfg);
  Graph g = aux_graph(103);
  Sssp::setup(cluster, g, 0, "sssp");
  CountingAux counting;

  IterJobConf conf = Sssp::imapreduce("sssp", "out", 2);
  conf.aux = counting.conf(AuxConf::Source::kReduceOutput);
  conf.num_tasks = 8;
  IterativeEngine engine(cluster);
  EXPECT_THROW(engine.run(conf), ConfigError);

  conf.num_tasks = 4;
  EXPECT_NO_THROW(engine.run(conf));
}

// Forwards to an aux reducer and records the first call whose output holds
// the terminate signal. The K-means aux phase runs one reduce task over one
// key, so its n-th call reduces iteration n.
class FirstSignalProbe : public IterReducer, public IterEmitter {
 public:
  FirstSignalProbe(std::unique_ptr<IterReducer> inner,
                   std::shared_ptr<std::atomic<int>> first)
      : inner_(std::move(inner)), first_(std::move(first)) {}
  void configure(const Params& params) override { inner_->configure(params); }
  void reduce(const Bytes& key, const std::vector<Bytes>& values,
              IterEmitter& out) override {
    ++calls_;
    out_ = &out;
    inner_->reduce(key, values, *this);
  }
  void emit(Bytes key, Bytes value) override {
    int none = 0;
    if (key == kTerminateSignalKey) {
      first_->compare_exchange_strong(none, calls_);
    }
    out_->emit(std::move(key), std::move(value));
  }
  void side(Bytes key, Bytes value) override {
    out_->side(std::move(key), std::move(value));
  }

 private:
  std::unique_ptr<IterReducer> inner_;
  std::shared_ptr<std::atomic<int>> first_;
  IterEmitter* out_ = nullptr;
  int calls_ = 0;
};

// Counters a job's aux phase fills in, read once the run is over.
struct AuxProbes {
  // Records the aux maps saw (CountingAux).
  std::shared_ptr<std::atomic<int64_t>> mapped =
      std::make_shared<std::atomic<int64_t>>(0);
  // Iteration of the first aux signal (FirstSignalProbe).
  std::shared_ptr<std::atomic<int>> first_signal =
      std::make_shared<std::atomic<int>>(0);
};

// What an aux job's run decides, and the bytes it writes.
struct AuxOutcome {
  int iterations_run = 0;
  bool converged = false;
  int64_t aux_signals = 0;
  int64_t aux_mapped = 0;
  int first_signal = 0;
  std::map<Bytes, Bytes> output;
};

// Runs the job `setup` prepares on a fresh cluster, under a task memory
// budget of `budget` bytes (0 = unlimited).
AuxOutcome run_under_budget(
    const std::function<IterJobConf(Cluster&, const AuxProbes&)>& setup,
    int64_t budget) {
  auto cluster = testutil::free_cluster();
  const AuxProbes probes;
  IterJobConf conf = setup(*cluster, probes);
  conf.max_task_memory_bytes = budget;
  IterativeEngine engine(*cluster);
  const RunReport r = engine.run(conf);
  AuxOutcome out;
  out.iterations_run = r.iterations_run;
  out.converged = r.converged;
  out.aux_signals = cluster->metrics().count("imr_aux_signals");
  out.aux_mapped = probes.mapped->load();
  out.first_signal = probes.first_signal->load();
  for (const auto& part : resolve_input_paths(cluster->dfs(), "out")) {
    for (const KV& kv : cluster->dfs().read_all(part, -1, nullptr)) {
      out.output[kv.key] = kv.value;
    }
  }
  return out;
}

constexpr int64_t kAuxBudgets[] = {512, 4096};

// Aux tasks run under the job's task memory budget like every other task:
// the aux maps ship early and the aux reduces spill. A reduce-sourced aux
// phase that never signals leaves the job at its cap, so every budget must
// reproduce the unlimited run exactly.
TEST(ImrAuxMore, ReduceSourcedAuxUnderTaskBudget) {
  auto setup = [](Cluster& cluster, const AuxProbes& probes) {
    Sssp::setup(cluster, aux_graph(109), 0, "sssp");
    IterJobConf conf = Sssp::imapreduce("sssp", "out", 4);
    CountingAux counting;
    counting.seen = probes.mapped;
    conf.aux = counting.conf(AuxConf::Source::kReduceOutput);
    return conf;
  };
  const AuxOutcome unlimited = run_under_budget(setup, 0);
  ASSERT_EQ(unlimited.iterations_run, 4);
  for (int64_t budget : kAuxBudgets) {
    const AuxOutcome got = run_under_budget(setup, budget);
    EXPECT_EQ(got.iterations_run, unlimited.iterations_run) << budget;
    EXPECT_EQ(got.converged, unlimited.converged) << budget;
    EXPECT_EQ(got.aux_signals, unlimited.aux_signals) << budget;
    EXPECT_EQ(got.aux_mapped, unlimited.aux_mapped) << budget;
    EXPECT_EQ(got.output, unlimited.output) << budget;
  }
}

// The K-means aux phase under a budget must signal at the same iteration
// and the job must write the same bytes. Where the job then stops, and how
// many signals go out before it does, varies between identical unlimited
// runs: the master defers a signal to the decision after the one in flight,
// so a signal that reaches it after that iteration's last report stops the
// job one iteration later. The centroids are a fixpoint by then, so the
// bytes do not move.
TEST(ImrAuxMore, KMeansAuxUnderTaskBudget) {
  auto setup = [](Cluster& cluster, const AuxProbes& probes) {
    KMeansDataSpec spec;
    spec.num_points = 600;
    spec.dim = 4;
    spec.num_clusters = 4;
    spec.spread = 0.05;
    KMeans::setup(cluster, KMeans::generate_points(spec), 4, "km");
    IterJobConf conf =
        KMeans::imapreduce_with_aux("km", "out", 30, /*move_threshold=*/1);
    conf.aux->reducer = [inner = conf.aux->reducer,
                         first = probes.first_signal] {
      return std::make_unique<FirstSignalProbe>(inner(), first);
    };
    return conf;
  };
  const AuxOutcome unlimited = run_under_budget(setup, 0);
  ASSERT_TRUE(unlimited.converged);
  ASSERT_GT(unlimited.first_signal, 0);
  for (int64_t budget : kAuxBudgets) {
    const AuxOutcome got = run_under_budget(setup, budget);
    EXPECT_EQ(got.converged, unlimited.converged) << budget;
    EXPECT_EQ(got.first_signal, unlimited.first_signal) << budget;
    EXPECT_GE(got.iterations_run, got.first_signal) << budget;
    EXPECT_GE(got.aux_signals, 1) << budget;
    EXPECT_EQ(got.output, unlimited.output) << budget;
  }
}

}  // namespace
}  // namespace imr
