// Whole-job benchmark: shared types of the driver (main.cpp), the workloads,
// the per-layer replay and the traced-job breakdown.
//
// Every workload runs on the same small cluster — 2 workers with one map and
// one reduce slot each, one persistent task pair per worker — so the four
// task threads fit the cores of a small box and the numbers measure the
// engine rather than the OS scheduler.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "graph/graph.h"
#include "graph/partition.h"
#include "imapreduce/conf.h"
#include "metrics/invariants.h"
#include "metrics/metrics.h"

namespace imr::e2e {

inline constexpr int kWorkers = 2;
inline constexpr int kTasks = 2;

ClusterConfig bench_cluster_config();

// One fixed iterative job over input generated from the workload seed. The
// engine sees only the generated input; the reference answer is computed
// once, up front, by the algorithm's sequential implementation.
class Workload {
 public:
  virtual ~Workload() = default;

  virtual const char* name() const = 0;

  // Writes the job's static and state data to the cluster's DFS and returns
  // the configuration, ready to submit.
  virtual IterJobConf setup(Cluster& cluster) const = 0;

  // Empty when the final state under conf.output_path matches the
  // sequential reference.
  virtual std::string check_result(Cluster& cluster,
                                   const IterJobConf& conf) const = 0;

  virtual InvariantExpectations expectations() const = 0;

  // Called with the shuffle volume of the run's first (warm-up) job. A
  // workload configured from an unbudgeted run of its own input
  // (pagerank-spill's memory budget) takes its setting from it.
  virtual void calibrate(int64_t /*shuffle_bytes*/) {}

  // False when spill points, and so remote bytes, follow arrival timing.
  virtual bool exact_remote_bytes() const { return true; }

  // Graph and key-space partitioner for the partition diagnostics; K-means
  // reports an edge-free graph over its points.
  virtual const Graph& graph() const = 0;
  virtual std::shared_ptr<const Partitioner> partitioner() const = 0;
};

// nullptr for an unknown workload name.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        uint64_t seed);
const std::vector<std::string>& workload_names();

// Exact per-run unit counts, taken by wrapping the job's UDFs (counting job
// only; the wrappers stay out of every timed job).
struct UnitCounts {
  std::atomic<int64_t> map_calls{0};
  std::atomic<int64_t> reduce_groups{0};
  std::atomic<int64_t> reduce_values{0};
  std::atomic<int64_t> combine_values{0};
};

// Wraps every phase's mapper, reducer and combiner factory with counters.
void wrap_counting(IterJobConf& conf, UnitCounts& counts);

// Plain copy of UnitCounts, passed between processes.
struct UnitTotals {
  int64_t map_calls = 0;
  int64_t reduce_groups = 0;
  int64_t reduce_values = 0;
  int64_t combine_values = 0;
};

// Host nanoseconds per unit of work of each layer's public entry points,
// replayed in one thread on a finished job's own data. Zero for a layer the
// workload does not exercise.
struct ReplayCosts {
  double read_partition_ns_per_byte = 0;
  double write_ns_per_byte = 0;
  double join_build_ns_per_rec = 0;
  double join_probe_ns = 0;
  double map_udf_ns_per_rec = 0;
  double reduce_udf_ns_per_group = 0;
  double sort_ns_per_rec = 0;
  double group_ns_per_rec = 0;
  double combine_ns_per_rec = 0;
  double merge_ns_per_rec = 0;
  double send_recv_ns_per_msg = 0;
};

// `batch_bytes` sizes the fabric replay's message; `merge` replays the
// spill-run merge (budgeted workloads only).
ReplayCosts replay_layers(Cluster& cluster, const IterJobConf& conf,
                          std::size_t batch_bytes, bool merge);

// Registry values of one finished job, read before the result check (whose
// DFS reads are charged to the same registry).
struct Counters {
  explicit Counters(MetricsRegistry& m);

  int64_t remote_bytes = 0;
  int64_t map_records = 0;
  std::array<int64_t, kNumTrafficCategories> bytes{};
  std::array<int64_t, kNumTrafficCategories> remote{};
  std::array<int64_t, kNumTrafficCategories> msgs{};
  std::array<double, kNumTimeCategories> time_s{};
  int64_t spill_written = 0;
  int64_t spill_read = 0;
  int64_t spill_runs = 0;
  int64_t reduce_merges = 0;
  int64_t arena_hwm = 0;
  double batch_bytes_p50 = 0;     // trace-gated histogram
  double queue_wait_ns_p50 = 0;   // trace-gated histogram
  double queue_wait_ns_p99 = 0;

  int64_t cat_bytes(TrafficCategory c) const {
    return bytes[static_cast<int>(c)];
  }
  int64_t cat_remote(TrafficCategory c) const {
    return remote[static_cast<int>(c)];
  }
  int64_t cat_msgs(TrafficCategory c) const {
    return msgs[static_cast<int>(c)];
  }
  double time(TimeCategory c) const { return time_s[static_cast<int>(c)]; }
  // Mean bytes per data-path message: the batch size the fabric replay
  // sends.
  std::size_t mean_batch_bytes() const;
};

// Per-span virtual time of one traced job, from TraceRecorder::snapshot().
struct SpanTimes {
  std::map<std::string, int64_t> self_ns;
  int64_t dropped = 0;     // events lost to ring wrap, all tracks
  int64_t unmatched = 0;   // span ends without a begin, or never ended
};

// Nesting is by event order within a track (a strict begin/end stack), not
// by timestamp containment: a checkpoint span may end after its iteration.
SpanTimes span_self_times();

// One finished job, as the process that ran it sees it.
struct Job {
  std::unique_ptr<Cluster> cluster;
  IterJobConf conf;
  RunReport report;
  std::optional<Counters> counters;
  SpanTimes spans;           // traced jobs only
  int64_t deep_copies = 0;   // NetMessage payload deep copies during the job
  double wall_s = 0;
};

struct Metric {
  std::string name;
  std::string unit;
  double value;
};

// The per-layer metrics of a traced job, with the replay costs, the counting
// job's unit totals and the untraced jobs' median wall and CPU seconds.
std::vector<Metric> layer_metrics(const Workload& w, const Job& traced,
                                  const UnitTotals& units,
                                  const ReplayCosts& rc,
                                  double untraced_wall_s,
                                  double untraced_cpu_s);

}  // namespace imr::e2e
