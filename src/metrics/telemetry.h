// Telemetry — structured per-iteration runtime evidence on top of the
// trace/metrics substrate.
//
// Three pieces, same cost discipline as TraceRecorder (one relaxed-atomic
// branch per probe when disabled):
//
//  * TelemetryLedger — per-cluster accumulator the Fabric and engine feed
//    while a run executes: per-(generation, iteration) byte/message buckets
//    keyed by the NetMessage tags and sharded by sending thread, map-task
//    iteration durations, hot-key sketches, and static-store size
//    estimates. The worker x worker x TrafficCategory matrix a run line
//    exports is not the ledger's: it is the MetricsRegistry's own traffic
//    record, kept whether or not telemetry is armed.
//
//  * TelemetryRecorder — process-global sink mirroring TraceRecorder:
//    armed by IMR_TELEMETRY (or enable()), gated by one relaxed atomic
//    load, collecting one RunTelemetry per finished job and exporting them
//    as JSONL. All values are virtual-time or byte counts — never wall
//    time — so same-seed fault-free runs reproduce every byte, count, and
//    sequence field bit-for-bit. The duration fields (vt_ms, map_ms,
//    reduce_ms, task_ms, straggler) are the exception: per-flow network
//    charging shares bandwidth among the flows concurrently in flight, so
//    virtual durations track the real thread schedule.
//
//  * SpaceSaving — the classic top-k heavy-hitter sketch (Metwally et al.):
//    capacity k, evicting the minimum-count entry whose count the newcomer
//    inherits as `error`. Any key with true frequency > N/k is guaranteed
//    present, and every reported count overestimates by at most its
//    `error` (<= N/k). Merging sums counts and errors per key and
//    re-truncates — the merged bound degrades to the sum of the parts'
//    bounds, which imr_stat reports alongside the counts.
//
// The analyzer for the exported JSONL is tools/imr_stat; the schema is
// documented in docs/OBSERVABILITY.md.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "metrics/metrics.h"

namespace imr {

// ---------------------------------------------------------------------------
// SpaceSaving top-k sketch
// ---------------------------------------------------------------------------

struct HotKey {
  Bytes key;
  int64_t count = 0;  // estimated frequency (overestimate)
  int64_t error = 0;  // max overestimation inherited from evictions
};

class SpaceSaving {
 public:
  static constexpr std::size_t kDefaultCapacity = 64;

  explicit SpaceSaving(std::size_t capacity = kDefaultCapacity)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  void offer(const Bytes& key, int64_t by = 1);

  // Commutative merge: union counts and errors per key, then keep the
  // capacity largest (ties broken by error then key, so the result does not
  // depend on merge order).
  void merge(const SpaceSaving& other);

  // Entries sorted by (count desc, error asc, key asc).
  std::vector<HotKey> top() const;

  int64_t total() const { return total_; }
  std::size_t capacity() const { return capacity_; }

 private:
  struct Counter {
    int64_t count = 0;
    int64_t error = 0;
  };
  void truncate();

  std::size_t capacity_;
  int64_t total_ = 0;
  // Ordered map: the min-scan eviction breaks count ties by key order, so a
  // deterministic offer sequence yields a deterministic sketch.
  std::map<Bytes, Counter> counters_;
};

// ---------------------------------------------------------------------------
// Per-run records
// ---------------------------------------------------------------------------

// The export view of one decided iteration's IterationStat, joined with its
// ledger bucket by TelemetryLedger::iter_view.
struct IterTelemetry {
  int iteration = 0;
  int generation = 0;
  int session = 0;
  double vt_ms = 0;        // master virtual time at the decision
  double distance = 0;
  int64_t workset = -1;    // -1 = bulk run
  double map_ms = 0;       // max per-task map-iteration virtual duration
  double reduce_ms = 0;    // max per-task report duration
  int straggler_task = -1;   // the report that closed the barrier last
  int straggler_worker = -1;
  double straggler_ms = 0;   // that task's report duration
  std::map<int, double> task_ms;        // per-task report duration (ms)
  std::map<int, int64_t> state_bytes;   // per-task resident state estimate
  int64_t queue_hwm = 0;   // max messages any endpoint absorbed this iter
  std::array<int64_t, kNumTrafficCategories> bytes{};  // fabric traffic
  std::array<int64_t, kNumTrafficCategories> msgs{};
};

struct RunTelemetry {
  std::string job;
  int workers = 0;
  int tasks = 0;
  int iterations_run = 0;
  bool converged = false;
  int session_epochs = 0;          // final session id (0 = plain run)
  int64_t static_bytes = 0;        // sum over tasks
  std::vector<int64_t> static_bytes_per_task;
  std::vector<int64_t> partition_records;  // exact per-partition emit counts
  double skew = 0;                 // max / mean of partition_records
  std::vector<HotKey> hot_keys;    // merged across map tasks
  int64_t hot_key_samples = 0;     // N for the N/k error bound
  // Out-of-core record path (DESIGN.md §10): the spill ledger for this run
  // (invariant 11: written == read + dropped) and the largest per-task
  // arena footprint observed.
  int64_t spill_bytes_written = 0;
  int64_t spill_bytes_read = 0;
  int64_t spill_bytes_dropped = 0;
  int64_t spill_runs = 0;          // runs written
  int64_t arena_hwm = 0;           // max per-task arena block bytes
  TrafficMatrixSnapshot matrix;    // the registry's, since its last reset
  std::vector<IterTelemetry> iters;
};

// ---------------------------------------------------------------------------
// TelemetryLedger — per-cluster accumulator
// ---------------------------------------------------------------------------

class TelemetryLedger {
 public:
  explicit TelemetryLedger(const MetricsRegistry& metrics)
      : metrics_(metrics) {}

  // Fabric probe: one accounted send (zombie-suppressed sends never reach
  // it). Buckets the bytes under the message's (generation, iteration) tag
  // and counts the delivery against `endpoint_uid` for the queue high-water
  // mark.
  void add_send(TrafficCategory c, int64_t bytes, int generation,
                int iteration, uint32_t endpoint_uid);

  // Engine-side records. begin_run clears the per-run stores (buckets,
  // durations, sketches, static sizes).
  void begin_run();
  // One map task's virtual duration for an iteration; the iter line keeps
  // the longest.
  void record_map_iter(int generation, int iteration, int64_t duration_ns);
  void record_static_bytes(int task, int64_t bytes);
  // Pushed at task exit. A higher generation replaces the stored entry
  // (the respawned task supersedes the zombie); the same generation merges
  // (multi-phase tasks share an index); a lower generation is dropped.
  void record_task_profile(int task, int generation, SpaceSaving sketch,
                           std::vector<int64_t> partition_counts);

  // The registry's traffic matrix (MetricsRegistry::traffic_matrix).
  TrafficMatrixSnapshot snapshot_matrix() const {
    return metrics_.traffic_matrix();
  }

  // The iter line of decided iteration `st`: its own fields, the reduce and
  // straggler figures derived from its reports, and the ledger's
  // (generation, iteration) bucket merged across the thread shards: map_ms,
  // queue_hwm and the per-category byte/msg counts. Callers must be
  // quiescent (engine threads joined).
  IterTelemetry iter_view(const IterationStat& st) const;

  // Merged hot-key/partition profile. Sketches merge in task order;
  // partition counts sum element-wise; skew = max/mean over partitions.
  void collect_profiles(std::vector<HotKey>* hot_keys, int64_t* samples,
                        std::vector<int64_t>* partition_records,
                        double* skew) const;
  std::vector<int64_t> static_bytes_per_task() const;

 private:
  struct IterBucket {
    std::array<int64_t, kNumTrafficCategories> bytes{};
    std::array<int64_t, kNumTrafficCategories> msgs{};
    std::map<uint32_t, int64_t> endpoint_msgs;
    int64_t max_map_ns = 0;  // longest map-iter virtual duration
  };

  // A thread always writes its own shard (thread_stripe), so the senders of
  // one iteration take different mutexes, on cache lines of their own.
  struct alignas(64) BucketShard {
    std::mutex mu;
    std::map<uint64_t, IterBucket> buckets;  // (gen << 32) | iter
  };

  struct TaskProfile {
    int generation = -1;
    SpaceSaving sketch;
    std::vector<int64_t> partition_counts;
  };

  static uint64_t bucket_key(int generation, int iteration) {
    return (static_cast<uint64_t>(static_cast<uint32_t>(generation)) << 32) |
           static_cast<uint32_t>(iteration);
  }

  const MetricsRegistry& metrics_;

  static constexpr std::size_t kBucketShards = 8;
  mutable std::array<BucketShard, kBucketShards> bucket_shards_;

  mutable std::mutex profile_mu_;
  std::map<int, TaskProfile> profiles_;    // by task index
  std::map<int, int64_t> static_bytes_;    // by task index
};

// ---------------------------------------------------------------------------
// TelemetryRecorder — process-global sink
// ---------------------------------------------------------------------------

class TelemetryRecorder {
 public:
  static TelemetryRecorder& instance();

  // The hot-path gate: one relaxed load, checked (after a null-pointer
  // test) before any telemetry work on the fabric/DFS paths.
  static bool enabled() { return enabled_.load(std::memory_order_relaxed); }

  void enable();
  void disable();
  void reset();  // drops recorded runs; does not change the gate

  void append(RunTelemetry run);
  std::vector<RunTelemetry> runs() const;

  // One JSON object per line: every iteration record ({"type":"iter"})
  // followed by the run summary ({"type":"run"}), per recorded run.
  void export_jsonl(std::ostream& os) const;
  bool export_to_file(const std::string& path) const;

 private:
  TelemetryRecorder() = default;

  static std::atomic<bool> enabled_;  // seeded from IMR_TELEMETRY
  mutable std::mutex mu_;
  std::vector<RunTelemetry> runs_;
};

}  // namespace imr
