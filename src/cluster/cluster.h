// Cluster — the in-process stand-in for a cluster of slave workers plus the
// shared services (DFS, network fabric, metrics, cost model).
//
// Workers are descriptors, not threads: each engine spawns one real thread
// per task and homes it on a worker. A worker contributes map/reduce task
// slots, a relative compute speed (for heterogeneous-cluster experiments,
// §3.4.2), and an alive flag driven by the failure injector (§3.4.1).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "cluster/cost_model.h"
#include "cluster/fault_schedule.h"
#include "common/error.h"
#include "dfs/mini_dfs.h"
#include "metrics/metrics.h"
#include "metrics/telemetry.h"
#include "net/fabric.h"

namespace imr {

struct ClusterConfig {
  int num_workers = 4;
  int map_slots_per_worker = 2;    // Hadoop's default: two per slave
  int reduce_slots_per_worker = 2;
  CostModel cost;
  uint64_t seed = 17;
};

class Cluster {
 public:
  explicit Cluster(ClusterConfig config);
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  int num_workers() const { return config_.num_workers; }
  int map_slots() const {
    return config_.num_workers * config_.map_slots_per_worker;
  }
  int reduce_slots() const {
    return config_.num_workers * config_.reduce_slots_per_worker;
  }

  const ClusterConfig& config() const { return config_; }
  const CostModel& cost() const { return config_.cost; }
  MetricsRegistry& metrics() { return metrics_; }
  MiniDfs& dfs() { return *dfs_; }
  Fabric& fabric() { return *fabric_; }
  // Per-cluster telemetry accumulator (iteration buckets, hot-key profiles,
  // static sizes). Always wired into the fabric; its probes are inert until
  // the TelemetryRecorder gate is armed. The traffic matrix is the
  // registry's (metrics().traffic_matrix()), kept whether or not telemetry
  // is armed.
  TelemetryLedger& telemetry() { return telemetry_; }

  // Per-cluster job ordinal, used by the engines to uniquify DFS paths
  // ("name#N/..."). Scoped to the cluster — not process-global — because the
  // cluster's DFS is the namespace the tag disambiguates, and because DFS
  // replica placement is derived from the path: a process-global counter
  // would give the same job a different tag (hence different placement) on
  // every fresh-cluster run, breaking same-seed reproducibility.
  uint64_t next_job_ordinal() { return job_ordinal_.fetch_add(1); }

  // --- heterogeneity ---
  // speed = 1.0 is nominal; 0.5 runs user compute twice as slow.
  void set_worker_speed(int worker, double speed);
  double worker_speed(int worker) const;

  // --- failure injection ---
  // Arms fault events. Tasks probe the schedule at the engine's injection
  // points (see FaultPoint); the first probe matching an armed event
  // *consumes* it — exactly once — and the probing task notifies the master,
  // which marks the worker dead and recovers (§3.4.1). Consumption is what
  // keeps a schedule from leaking into a later job sharing this cluster.
  void set_fault_schedule(const FaultSchedule& schedule);
  void schedule_fault(const FaultEvent& event);
  // Legacy single-point form: fail once any task on `worker` finishes
  // iteration `at_iteration` (an armed kIterationBoundary event).
  void schedule_worker_failure(int worker, int at_iteration);

  // Query (does not consume): a kIterationBoundary event is armed at or
  // before `finished_iteration`.
  bool worker_failed(int worker, int finished_iteration) const;
  // Query (does not consume): an event for (worker, point) is armed at or
  // before `iteration`.
  bool fault_pending(int worker, FaultPoint point, int iteration) const;
  // Consumes the first armed event matching (worker, point, >= at_iteration).
  // Returns true exactly once per armed event; the engine calls this at its
  // injection points. Consumed events also increment the metrics counters
  // `faults_injected` and `faults_injected_<point>`, and — when tracing is
  // enabled and the caller passes its clock — record a "fault:<point>"
  // instant on the probing task's trace track.
  bool consume_fault(int worker, FaultPoint point, int iteration,
                     const VClock* vt = nullptr);

  int pending_fault_count() const;
  int64_t consumed_fault_count() const;
  // Asserts every armed fault was consumed — chaos harness hygiene: a sweep
  // case whose fault never fired is testing the failure-free path by
  // accident.
  void assert_faults_consumed() const;

  void mark_dead(int worker);
  bool worker_alive(int worker) const;
  // Revives the worker and disarms any fault still scheduled for it.
  void revive_worker(int worker);

 private:
  void check_worker(int worker) const {
    IMR_CHECK_MSG(worker >= 0 && worker < config_.num_workers,
                  "worker id out of range");
  }

  ClusterConfig config_;
  // Declared before the DFS and fabric, which hold references into them.
  MetricsRegistry metrics_;  // its traffic matrix sized by num_workers
  TelemetryLedger telemetry_;
  std::unique_ptr<MiniDfs> dfs_;
  std::unique_ptr<Fabric> fabric_;

  std::atomic<uint64_t> job_ordinal_{0};

  mutable std::mutex mu_;
  std::vector<double> speeds_;
  std::vector<bool> alive_;
  std::vector<FaultEvent> pending_faults_;
  int64_t consumed_faults_ = 0;
};

}  // namespace imr
