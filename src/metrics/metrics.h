// Metrics: counters and simulated-time accounting for one engine run.
//
// Every experiment creates a fresh MetricsRegistry; the cluster, DFS, network
// fabric, and engines write into it. Three kinds of entries:
//   - traffic:   the worker x worker x TrafficCategory matrix of bytes and
//                transfers, charged once per fabric send and per DFS block
//   - counters:  monotonically increasing int64 values (bytes, records, events)
//   - sim times: accumulated simulated nanoseconds by category
//
// The matrix is the one record of traffic: the per-category totals behind
// the paper's decomposition figures (Fig. 10, Fig. 11) are sums over one
// snapshot of it, and remote bytes are its off-diagonal cells.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/sim_time.h"

namespace imr {

// Categories of data motion and charged time. Every byte that moves through
// net:: or dfs:: carries one of these.
enum class TrafficCategory {
  kShuffle,        // map -> reduce intermediate data
  kReduceToMap,    // iMapReduce persistent reduce -> map channel
  kBroadcast,      // one-to-all reduce -> map broadcast
  kDfsRead,        // DFS file reads
  kDfsWrite,       // DFS file writes
  kCheckpoint,     // checkpoint dumps (also DFS writes, tracked separately)
  kControl,        // termination / report / migration control messages
  kShuffleAgg,     // aggregated cross-worker shuffle batches (DESIGN.md §9)
  kSpill,          // budgeted spill runs written to / read from MiniDfs
                   // (out-of-core record path, DESIGN.md §10)
};

const char* traffic_category_name(TrafficCategory c);
// Static-storage counter-track name for the per-category in-flight bytes
// samples the fabric records into the TraceRecorder ("inflight_shuffle"...).
const char* traffic_inflight_counter_name(TrafficCategory c);
inline constexpr int kNumTrafficCategories = 9;

// Categories of charged simulated time, used for the Fig. 10 factor
// decomposition.
enum class TimeCategory {
  kJobInit,     // per-job setup (scheduling, JVM-equivalent startup)
  kTaskInit,    // per-task setup
  kDfsIo,       // DFS read/write transfer time
  kNetwork,     // shuffle / broadcast / reduce-to-map transfer time
  kCompute,     // user map/reduce function execution (measured, not charged)
  kSort,        // sort/group time in reduce (measured)
};

const char* time_category_name(TimeCategory c);
inline constexpr int kNumTimeCategories = 6;

// Lock-free log2-bucketed histogram of non-negative int64 samples (latency
// nanoseconds, batch bytes, ...). record() is two relaxed atomic RMWs — no
// mutex, no allocation — so it is safe on the fabric's send/receive hot
// paths. Bucket b >= 1 covers [2^(b-1), 2^b); bucket 0 holds samples <= 0.
// Percentiles come from a cumulative walk over the buckets with linear
// interpolation inside the target bucket — exact for single-sample buckets
// and within one bucket width otherwise (see docs/OBSERVABILITY.md).
class Histogram {
 public:
  static constexpr int kNumBuckets = 64;

  void record(int64_t v) {
    buckets_[bucket_index(v)].fetch_add(1, std::memory_order_relaxed);
    if (v > 0) sum_.fetch_add(v, std::memory_order_relaxed);
  }

  int64_t count() const;
  double mean() const;
  // p in [0, 100]; returns 0 on an empty histogram.
  double percentile(double p) const;
  // Adds `other`'s buckets into this one (merging per-shard or per-run
  // histograms); concurrent record()s on either side stay countable.
  void merge(const Histogram& other);
  void reset();

  static int bucket_index(int64_t v) {
    if (v <= 0) return 0;
    int b = 0;
    for (uint64_t u = static_cast<uint64_t>(v); u != 0; u >>= 1) ++b;
    return b;  // highest set bit + 1; int64 max lands in bucket 63
  }
  static int64_t bucket_lower(int b) {
    return b <= 0 ? 0 : int64_t{1} << (b - 1);
  }

 private:
  std::atomic<int64_t> buckets_[kNumBuckets] = {};
  std::atomic<int64_t> sum_{0};
};

// The calling thread's stripe among `n`, fixed for the thread's life.
// Striped stores (the registry's traffic matrix and named counters,
// telemetry's iteration buckets) index their shards with it, so a thread
// always writes the same shard and threads started together spread evenly
// over the shards.
std::size_t thread_stripe(std::size_t n);

struct TrafficCell {
  int64_t bytes = 0;
  int64_t msgs = 0;
};

// Plain (non-atomic) view of the traffic matrix. Slot 0 is the master/driver
// (worker -1, and any id outside [0, workers)); worker w maps to slot w + 1.
class TrafficMatrixSnapshot {
 public:
  TrafficMatrixSnapshot() = default;
  explicit TrafficMatrixSnapshot(int num_workers)
      : workers_(num_workers), cells_(cell_count(num_workers)) {}

  int workers() const { return workers_; }

  // `from` / `to` are worker ids; -1 addresses the master/driver slot.
  const TrafficCell& cell(int from, int to, TrafficCategory c) const {
    return cells_[index(workers_, from, to, c)];
  }
  TrafficCell& cell(int from, int to, TrafficCategory c) {
    return cells_[index(workers_, from, to, c)];
  }

  // Per-category sums: every cell, the off-diagonal (remote) cells, and the
  // transfers.
  int64_t category_bytes(TrafficCategory c) const;
  int64_t category_remote_bytes(TrafficCategory c) const;
  int64_t category_msgs(TrafficCategory c) const;

  // The flat layout, shared with the registry's striped counters.
  static std::size_t cell_count(int workers) {
    const auto slots = static_cast<std::size_t>(workers + 1);
    return slots * slots * kNumTrafficCategories;
  }
  static std::size_t index(int workers, int from, int to, TrafficCategory c) {
    auto slot = [workers](int w) {
      return static_cast<std::size_t>(w < 0 || w >= workers ? 0 : w + 1);
    };
    return (slot(from) * static_cast<std::size_t>(workers + 1) + slot(to)) *
               kNumTrafficCategories +
           static_cast<std::size_t>(c);
  }

 private:
  friend class MetricsRegistry;
  int workers_ = 0;
  std::vector<TrafficCell> cells_;
};

class MetricsRegistry {
 public:
  // `num_workers` sizes the traffic matrix (a cluster passes its worker
  // count); the default registry has only the master slot, so it keeps
  // totals but no remote bytes.
  explicit MetricsRegistry(int num_workers = 0);
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // --- traffic ---
  // The one way to charge a byte: `bytes` of category `c` moved from worker
  // `from_worker` to worker `to_worker` (-1 = the master/driver), counted as
  // one transfer unless `count_msg` is false. Two relaxed atomic adds on
  // the calling thread's stripe of the matrix — no mutex, no allocation.
  void add_traffic(int from_worker, int to_worker, TrafficCategory c,
                   std::size_t bytes, bool count_msg = true);
  // Merges the stripes. Every reader below is a sum over one snapshot; they
  // are the cold path, taken at window boundaries and by the checker.
  TrafficMatrixSnapshot traffic_matrix() const;
  int64_t traffic_bytes(TrafficCategory c) const {
    return traffic_matrix().category_bytes(c);
  }
  int64_t traffic_remote_bytes(TrafficCategory c) const {
    return traffic_matrix().category_remote_bytes(c);
  }
  int64_t traffic_transfers(TrafficCategory c) const {
    return traffic_matrix().category_msgs(c);
  }
  // All bytes that crossed between two distinct workers (the paper's
  // "communication cost").
  int64_t total_remote_bytes() const;
  int64_t total_bytes() const;

  // --- simulated / measured time ---
  void add_time(TimeCategory c, SimDuration d) {
    times_[static_cast<int>(c)].fetch_add(d.count(),
                                          std::memory_order_relaxed);
  }
  SimDuration time(TimeCategory c) const {
    return SimDuration(times_[static_cast<int>(c)].load());
  }

  // --- named counters (records emitted, iterations run, tasks launched...) ---
  // Writes are striped: each thread increments its own shard
  // (thread_stripe), so concurrent tasks never contend on one counter mutex.
  // Reads (count / named_counters / report) merge the shards — they are the
  // cold path, taken once per run by benches and the invariant checker.
  void inc(const std::string& name, int64_t by = 1);
  int64_t count(const std::string& name) const;
  std::map<std::string, int64_t> named_counters() const;

  // --- gauges (high-water marks) ---
  // Named counters are additive across shards; a high-water mark is not.
  // gauge_max keeps the maximum ever reported under `name` (e.g. the
  // largest per-task arena footprint, "imr_arena_hwm"). Cold path: tasks
  // report once at exit.
  void gauge_max(const std::string& name, int64_t value);
  int64_t gauge(const std::string& name) const;  // 0 when never reported
  std::map<std::string, int64_t> gauges() const;

  // --- histograms (latency/size distributions) ---
  // Returns the named histogram, registering it on first use. The reference
  // is stable for the registry's lifetime (reset() clears contents, never
  // entries), so hot call sites cache the pointer and record lock-free.
  Histogram& histogram(const std::string& name);
  std::map<std::string, const Histogram*> histograms() const;

  // Render everything as a human-readable report.
  std::string report() const;

  void reset();

 private:
  struct TrafficCounter {
    std::atomic<int64_t> bytes{0};
    std::atomic<int64_t> msgs{0};
  };
  // kTrafficStripes copies of the matrix, back to back, each laid out as
  // TrafficMatrixSnapshot's cells and padded to whole cache lines.
  static constexpr std::size_t kTrafficStripes = 8;
  const int workers_;
  const std::size_t stripe_cells_;
  std::vector<TrafficCounter> traffic_;
  std::atomic<int64_t> times_[kNumTimeCategories] = {};

  // One shard per stripe of threads; a thread always hits the same shard,
  // so each shard's map sees a consistent, uncontended stream of updates.
  static constexpr std::size_t kNamedShards = 16;
  struct NamedShard {
    mutable std::mutex mu;
    std::map<std::string, int64_t> counts;
  };
  mutable NamedShard named_shards_[kNamedShards];

  mutable std::mutex gauge_mu_;
  std::map<std::string, int64_t> gauges_;

  // unique_ptr values keep Histogram references stable across rehashes.
  mutable std::mutex hist_mu_;
  std::map<std::string, std::unique_ptr<Histogram>> hists_;
};

// A fixed array indexed by a category enum (TrafficCategory, TimeCategory);
// plain integer indexing and iteration come from std::array.
template <typename Category, typename T, std::size_t N>
struct CategoryArray : std::array<T, N> {
  using std::array<T, N>::operator[];
  T& operator[](Category c) { return (*this)[static_cast<std::size_t>(c)]; }
  const T& operator[](Category c) const {
    return (*this)[static_cast<std::size_t>(c)];
  }
};
using TrafficTotals =
    CategoryArray<TrafficCategory, int64_t, kNumTrafficCategories>;
using TimeTotals = CategoryArray<TimeCategory, SimDuration, kNumTimeCategories>;

// One last-phase reduce's Report for a decided iteration (§3.4.2).
struct TaskReport {
  int task = 0;
  int worker = 0;
  int64_t duration_ns = 0;  // the task's processing span, virtual
  double distance = 0.0;    // its share of the merged distance
  int64_t changed = 0;      // records it changed (workset mode; else 0)
  int64_t state_bytes = 0;  // resident state estimate (telemetry armed only)
  int64_t vt_ready = 0;     // virtual time the Report reached the master
};

// The one record of a decided iteration: termination, migration and the
// telemetry iter lines all read it, and benches plot "time vs iteration"
// curves (Fig. 4–7) from it.
struct IterationStat {
  int iteration = 0;          // 1-based
  int generation = 0;         // rollback generation it was decided in
  double wall_ms_end = 0.0;   // wall time from run start to end of iteration
  double init_ms = 0.0;       // job+task init charged during this iteration
  double distance = 0.0;      // merged convergence distance (if measured)
  // Workset mode: total records changed across all reduce tasks this
  // iteration (the size of the next frontier); -1 in bulk mode.
  int64_t workset_size = -1;
  // Job-session epoch this iteration ran in (0 = the initial run; each
  // apply_update starts the next epoch). Always 0 outside sessions.
  int session = 0;
  // One per last-phase reduce, in arrival order; none from the classic driver.
  std::vector<TaskReport> reports;
};

struct RunReport {
  std::string label;
  double total_wall_ms = 0.0;
  double init_wall_ms = 0.0;  // total scaled init time within total_wall_ms
  int iterations_run = 0;
  bool converged = false;
  std::vector<IterationStat> iterations;
  // Recovery/migration audit trail (InvariantChecker input): the iteration
  // each rollback restarted from, how many of those were migrations (the
  // rest were failure recoveries), and the iteration each final part file
  // was dumped at (one entry per Done notice).
  std::vector<int> rollback_iterations;
  int migration_rollbacks = 0;
  std::vector<int> final_part_iterations;
  // Total state records across all final part files (summed from the tasks'
  // Done notices). The InvariantChecker's conservation rule compares this
  // against the expected key count — frontier-only map phases legitimately
  // send fewer records than there are keys, so conservation is checked on
  // the final state, not on per-iteration channel transfers.
  int64_t final_state_records = 0;
  // The registry's totals at end of run, per category: the Fig. 11
  // communication and Fig. 10 time decompositions can be computed from a
  // report alone, without a live registry. remote_bytes are the
  // cross-worker slices (what the paper calls communication cost).
  TrafficTotals bytes{};
  TrafficTotals remote_bytes{};
  TimeTotals time{};

  int64_t total_comm_bytes() const;  // the sum of remote_bytes
  // Fill the byte/time totals from a registry.
  void capture(const MetricsRegistry& m);
  // Subtract `base`'s byte/time totals from this report's (already-captured)
  // totals in place. Lets a caller read the registry once and use the same
  // snapshot both as a window's end and as the next window's base, so
  // consecutive windows tile with no gap for concurrent charges to fall in.
  void subtract(const RunReport& base);
};

}  // namespace imr
