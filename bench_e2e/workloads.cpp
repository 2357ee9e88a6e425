// The four benchmark workloads. Each one stresses a different set of layers
// (README.md, "Workloads"); sizes keep one job at roughly 1-3 s of host wall
// time on a 4-core box so a run can take several samples.
#include <algorithm>
#include <cmath>

#include "algorithms/kmeans.h"
#include "algorithms/pagerank.h"
#include "algorithms/sssp.h"
#include "bench_e2e.h"
#include "common/arena.h"
#include "common/strings.h"
#include "graph/generator.h"

namespace imr::e2e {

ClusterConfig bench_cluster_config() {
  ClusterConfig config;
  config.num_workers = kWorkers;
  config.map_slots_per_worker = kTasks / kWorkers;
  config.reduce_slots_per_worker = kTasks / kWorkers;
  config.cost = CostModel::local_cluster();
  return config;
}

namespace {

constexpr uint32_t kPageRankNodes = 100000;
constexpr int kPageRankIterations = 10;
constexpr uint32_t kGridSide = 200;
// Workset SSSP stops when the frontier drains; this cap is never reached.
constexpr int kSsspMaxIterations = 100000;
// The BFS regions depend only on the grid's shape, never on the workload
// seed, so every seed runs the same partition layout.
constexpr uint64_t kPartitionSeed = 1;
constexpr uint32_t kKMeansPoints = 150000;
constexpr int kKMeansDim = 16;
constexpr int kKMeansClusters = 10;
constexpr int kKMeansIterations = 10;

// Tolerances of the repository's own reference-comparison tests.
constexpr double kRankTolerance = 1e-9;
constexpr double kDistanceTolerance = 1e-12;
constexpr double kCentroidTolerance = 1e-9;

std::string compare_vectors(const std::vector<double>& expected,
                            const std::vector<double>& actual, double tol) {
  if (expected.size() != actual.size()) {
    return strprintf("result has %zu entries, reference %zu", actual.size(),
                     expected.size());
  }
  for (std::size_t i = 0; i < expected.size(); ++i) {
    const bool inf_e = std::isinf(expected[i]);
    if (inf_e != std::isinf(actual[i]) ||
        (!inf_e && !(std::abs(expected[i] - actual[i]) <= tol))) {
      return strprintf("entry %zu is %.17g, reference %.17g", i, actual[i],
                       expected[i]);
    }
  }
  return "";
}

InvariantExpectations clean_run(int64_t state_records) {
  InvariantExpectations e;
  e.expected_recoveries = 0;
  e.expected_parts = kTasks;
  e.expected_state_records = state_records;
  return e;
}

// Power-iteration PageRank, hash partitioned, async maps, fixed iterations.
// With `spill` the task memory budget is a quarter of the unbudgeted warm-up
// job's per-task per-iteration reduce input; the driver holds every
// budgeted job's output to that job's bytes.
class PageRankWorkload : public Workload {
 public:
  PageRankWorkload(uint64_t seed, bool spill) : spill_(spill) {
    LogNormalGraphSpec spec;
    spec.num_nodes = kPageRankNodes;
    spec.degree_mu = -0.5;  // the paper's PageRank degree parameters
    spec.degree_sigma = 2.0;
    spec.weighted = false;
    spec.seed = seed;
    graph_ = generate_lognormal_graph(spec);
    reference_ = PageRank::reference(graph_, kPageRankIterations);
    partitioner_ = make_hash_partitioner(kTasks);
  }

  const char* name() const override {
    return spill_ ? "pagerank-spill" : "pagerank-bulk";
  }

  IterJobConf setup(Cluster& cluster) const override {
    PageRank::setup(cluster, graph_, "pr");
    IterJobConf conf = PageRank::imapreduce("pr", "pr/out", graph_.num_nodes(),
                                            kPageRankIterations);
    conf.num_tasks = kTasks;
    conf.max_task_memory_bytes = budget_;
    return conf;
  }

  void calibrate(int64_t shuffle_bytes) override {
    if (!spill_) return;
    // The bench_oom_spill_ab rule, floored at a few arena blocks.
    budget_ = std::max<int64_t>(
        shuffle_bytes / (kTasks * kPageRankIterations * 4),
        3 * static_cast<int64_t>(RecordArena::kBlockBytes));
  }

  std::string check_result(Cluster& cluster,
                           const IterJobConf& conf) const override {
    return compare_vectors(
        reference_,
        PageRank::read_result_imr(cluster, conf.output_path,
                                  graph_.num_nodes()),
        kRankTolerance);
  }

  InvariantExpectations expectations() const override {
    return clean_run(graph_.num_nodes());
  }

  bool exact_remote_bytes() const override { return !spill_; }
  const Graph& graph() const override { return graph_; }
  std::shared_ptr<const Partitioner> partitioner() const override {
    return partitioner_;
  }

 private:
  bool spill_;
  Graph graph_;
  std::vector<double> reference_;
  std::shared_ptr<const Partitioner> partitioner_;
  int64_t budget_ = 0;
};

// Workset SSSP from vertex 0 on a weighted grid, BFS region partitioner and
// aggregated cross-worker exchange, until the frontier drains.
class SsspWorkload : public Workload {
 public:
  explicit SsspWorkload(uint64_t seed) {
    GridGraphSpec spec;
    spec.rows = kGridSide;
    spec.cols = kGridSide;
    spec.weighted = true;
    spec.seed = seed;
    graph_ = generate_grid_graph(spec);
    reference_ = Sssp::reference(graph_, 0, -1);
    partitioner_ = make_bfs_partitioner(graph_, kTasks, kPartitionSeed);
  }

  const char* name() const override { return "sssp-workset"; }

  IterJobConf setup(Cluster& cluster) const override {
    Sssp::setup(cluster, graph_, 0, "sssp");
    IterJobConf conf = Sssp::imapreduce("sssp", "sssp/out", kSsspMaxIterations);
    conf.num_tasks = kTasks;
    conf.workset_mode = true;
    conf.partitioner = partitioner_;
    conf.aggregated_shuffle = true;
    return conf;
  }

  std::string check_result(Cluster& cluster,
                           const IterJobConf& conf) const override {
    return compare_vectors(
        reference_,
        Sssp::read_result_imr(cluster, conf.output_path, graph_.num_nodes()),
        kDistanceTolerance);
  }

  InvariantExpectations expectations() const override {
    InvariantExpectations e = clean_run(graph_.num_nodes());
    e.workset_mode = true;
    return e;
  }

  const Graph& graph() const override { return graph_; }
  std::shared_ptr<const Partitioner> partitioner() const override {
    return partitioner_;
  }

 private:
  Graph graph_;
  std::vector<double> reference_;
  std::shared_ptr<const Partitioner> partitioner_;
};

// K-means with one2all centroid broadcast, synchronous maps and the
// map-side combiner, fixed iterations.
class KMeansWorkload : public Workload {
 public:
  explicit KMeansWorkload(uint64_t seed) {
    KMeansDataSpec spec;
    spec.num_points = kKMeansPoints;
    spec.dim = kKMeansDim;
    spec.num_clusters = kKMeansClusters;
    spec.seed = seed;
    points_ = KMeans::generate_points(spec);
    // KMeans::setup seeds the centroids with the first k points.
    std::map<uint32_t, std::vector<double>> init;
    for (int c = 0; c < kKMeansClusters; ++c) {
      init[static_cast<uint32_t>(c)] = points_[static_cast<std::size_t>(c)];
    }
    reference_ = KMeans::reference(points_, init, kKMeansIterations);
    graph_.adj.resize(points_.size());
    partitioner_ = make_hash_partitioner(kTasks);
  }

  const char* name() const override { return "kmeans-one2all"; }

  IterJobConf setup(Cluster& cluster) const override {
    KMeans::setup(cluster, points_, kKMeansClusters, "km");
    IterJobConf conf = KMeans::imapreduce("km", "km/out", kKMeansIterations,
                                          /*threshold=*/-1.0,
                                          /*with_combiner=*/true);
    conf.num_tasks = kTasks;
    return conf;
  }

  std::string check_result(Cluster& cluster,
                           const IterJobConf& conf) const override {
    auto actual = KMeans::read_result(cluster, conf.output_path, false);
    if (actual.size() != reference_.size()) {
      return strprintf("%zu centroids, reference %zu", actual.size(),
                       reference_.size());
    }
    for (const auto& [cid, c] : reference_) {
      auto it = actual.find(cid);
      if (it == actual.end()) return strprintf("centroid %u missing", cid);
      std::string err = compare_vectors(c, it->second, kCentroidTolerance);
      if (!err.empty()) return strprintf("centroid %u: ", cid) + err;
    }
    return "";
  }

  InvariantExpectations expectations() const override {
    InvariantExpectations e =
        clean_run(static_cast<int64_t>(reference_.size()));
    e.colocated_state_channel = false;  // one2all broadcasts the state
    return e;
  }

  const Graph& graph() const override { return graph_; }
  std::shared_ptr<const Partitioner> partitioner() const override {
    return partitioner_;
  }

 private:
  std::vector<std::vector<double>> points_;
  std::map<uint32_t, std::vector<double>> reference_;
  Graph graph_;
  std::shared_ptr<const Partitioner> partitioner_;
};

// Counting decorators for the unit-count run.
class CountingMapper : public IterMapper {
 public:
  CountingMapper(std::unique_ptr<IterMapper> inner, UnitCounts& counts)
      : inner_(std::move(inner)), counts_(counts) {}
  ~CountingMapper() override { counts_.map_calls += calls_; }
  CountingMapper(const CountingMapper&) = delete;
  CountingMapper& operator=(const CountingMapper&) = delete;

  void configure(const Params& params) override { inner_->configure(params); }
  void map(const Bytes& key, const Bytes& state, const Bytes& stat,
           IterEmitter& out) override {
    ++calls_;
    inner_->map(key, state, stat, out);
  }
  void flush(IterEmitter& out) override { inner_->flush(out); }
  void map_all(const Bytes& key, const Bytes& stat, const KVVec& states,
               IterEmitter& out) override {
    ++calls_;
    inner_->map_all(key, stat, states, out);
  }
  bool perturbed_keys(const StaticDeltaOp& op, const Bytes* old_value,
                      KVVec& seeds) override {
    return inner_->perturbed_keys(op, old_value, seeds);
  }

 private:
  std::unique_ptr<IterMapper> inner_;
  UnitCounts& counts_;
  int64_t calls_ = 0;
};

class CountingReducer : public IterReducer {
 public:
  CountingReducer(std::unique_ptr<IterReducer> inner,
                  std::atomic<int64_t>* groups, std::atomic<int64_t>& values)
      : inner_(std::move(inner)), groups_(groups), values_(values) {}
  ~CountingReducer() override {
    if (groups_ != nullptr) *groups_ += group_count_;
    values_ += value_count_;
  }
  CountingReducer(const CountingReducer&) = delete;
  CountingReducer& operator=(const CountingReducer&) = delete;

  void configure(const Params& params) override { inner_->configure(params); }
  void reduce(const Bytes& key, const std::vector<Bytes>& values,
              IterEmitter& out) override {
    ++group_count_;
    value_count_ += static_cast<int64_t>(values.size());
    inner_->reduce(key, values, out);
  }
  double distance(const Bytes& key, const Bytes& prev,
                  const Bytes& cur) override {
    return inner_->distance(key, prev, cur);
  }
  Bytes merge(const Bytes& key, const Bytes& prev, const Bytes& cur) override {
    return inner_->merge(key, prev, cur);
  }

 private:
  std::unique_ptr<IterReducer> inner_;
  std::atomic<int64_t>* groups_;
  std::atomic<int64_t>& values_;
  int64_t group_count_ = 0;
  int64_t value_count_ = 0;
};

}  // namespace

void wrap_counting(IterJobConf& conf, UnitCounts& counts) {
  for (PhaseConf& ph : conf.phases) {
    ph.mapper = [inner = ph.mapper, &counts] {
      return std::make_unique<CountingMapper>(inner(), counts);
    };
    ph.reducer = [inner = ph.reducer, &counts] {
      return std::make_unique<CountingReducer>(inner(), &counts.reduce_groups,
                                               counts.reduce_values);
    };
    if (ph.combiner) {
      ph.combiner = [inner = ph.combiner, &counts] {
        return std::make_unique<CountingReducer>(inner(), nullptr,
                                                 counts.combine_values);
      };
    }
  }
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "pagerank-bulk", "pagerank-spill", "sssp-workset", "kmeans-one2all"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        uint64_t seed) {
  if (name == "pagerank-bulk") {
    return std::make_unique<PageRankWorkload>(seed, /*spill=*/false);
  }
  if (name == "pagerank-spill") {
    return std::make_unique<PageRankWorkload>(seed, /*spill=*/true);
  }
  if (name == "sssp-workset") return std::make_unique<SsspWorkload>(seed);
  if (name == "kmeans-one2all") return std::make_unique<KMeansWorkload>(seed);
  return nullptr;
}

}  // namespace imr::e2e
