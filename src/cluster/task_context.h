// TaskContext — everything a running task needs: its identity, the worker it
// is homed on, its virtual clock, and costed access to compute, DFS, and the
// network fabric.
#pragma once

#include <string>

#include "cluster/cluster.h"
#include "common/log.h"
#include "common/sim_time.h"
#include "metrics/trace.h"

namespace imr {

class TaskContext {
 public:
  // Construction binds the calling thread's observability identity: log
  // lines carry the task name, and (when tracing) the thread records onto
  // this task's trace track inside a "task" lifecycle span. The previous
  // track binding is restored at destruction, so a driver thread that runs
  // nested task contexts (IterativeDriver) returns to its own timeline.
  TaskContext(Cluster& cluster, std::string task_name, int worker,
              int64_t start_vt_ns = 0)
      : cluster_(cluster),
        task_name_(std::move(task_name)),
        worker_(worker),
        vt_(start_vt_ns) {
    set_thread_log_tag(task_name_);
    if (TraceRecorder::enabled()) {
      traced_ = true;
      prev_track_ =
          TraceRecorder::instance().begin_thread_track(task_name_, worker_);
      TraceRecorder::instance().span_begin("task", vt_.now_ns());
    }
  }

  ~TaskContext() {
    if (traced_) {
      TraceRecorder::instance().span_end("task", vt_.now_ns());
      TraceRecorder::instance().set_thread_track(prev_track_);
    }
    clear_thread_log_tag();
  }

  TaskContext(const TaskContext&) = delete;
  TaskContext& operator=(const TaskContext&) = delete;

  Cluster& cluster() { return cluster_; }
  const std::string& task_name() const { return task_name_; }
  int worker() const { return worker_; }
  VClock& vt() { return vt_; }

  // Charge measured user-function CPU time, scaled by the cost model and the
  // worker's speed factor.
  void charge_compute(int64_t cpu_ns, TimeCategory cat = TimeCategory::kCompute) {
    double scale = cluster_.cost().compute_scale;
    if (scale <= 0 || cpu_ns <= 0) return;
    double speed = cluster_.worker_speed(worker_);
    auto d = SimDuration(
        static_cast<int64_t>(static_cast<double>(cpu_ns) * scale / speed));
    vt_.advance(d);
    cluster_.metrics().add_time(cat, d);
  }

  // Charge a fixed cost (job/task initialization, cleanup).
  void charge(SimDuration d, TimeCategory cat) {
    vt_.advance(d);
    cluster_.metrics().add_time(cat, d);
  }

  // Costed sends through the fabric from this task.
  void send(Endpoint& to, NetMessage msg, TrafficCategory category) {
    cluster_.fabric().send(worker_, vt_, to, std::move(msg), category);
  }
  // A data batch, and the end-of-stream marker that closes a sender's
  // stream, from engine task `from`. The iterative engine stamps its
  // (iteration, generation); the classic engine passes zeros.
  void send_records(Endpoint& to, KVVec records, int from, int iteration,
                    int generation, TrafficCategory category) {
    NetMessage msg;
    msg.kind = NetMessage::Kind::kData;
    msg.from_task = from;
    msg.iteration = iteration;
    msg.generation = generation;
    msg.set_records(std::move(records));
    send(to, std::move(msg), category);
  }
  void send_eos(Endpoint& to, int from, int iteration, int generation,
                TrafficCategory category) {
    NetMessage msg;
    msg.kind = NetMessage::Kind::kEos;
    msg.from_task = from;
    msg.iteration = iteration;
    msg.generation = generation;
    send(to, std::move(msg), category);
  }
  // One payload to many mailboxes; the enqueued copies share msg's records
  // buffer (each is still charged its full wire size).
  void broadcast(const std::vector<std::shared_ptr<Endpoint>>& to,
                 const NetMessage& msg, TrafficCategory category) {
    cluster_.fabric().broadcast(worker_, vt_, to, msg, category);
  }
  // One wire transfer to many co-homed mailboxes (aggregated exchange,
  // DESIGN.md §9): the first endpoint is charged the full payload, siblings
  // are charged zero bytes.
  void send_coalesced(const std::vector<std::shared_ptr<Endpoint>>& to,
                      const NetMessage& msg, TrafficCategory category) {
    cluster_.fabric().send_coalesced(worker_, vt_, to, msg, category);
  }

  // DFS helpers that charge against this task's clock.
  KVVec dfs_read_all(const std::string& path) {
    return cluster_.dfs().read_all(path, worker_, &vt_);
  }
  KVVec dfs_read_split(const InputSplit& split) {
    return cluster_.dfs().read_split(split, worker_, &vt_);
  }
  void dfs_write(const std::string& path, KVVec records,
                 TrafficCategory category = TrafficCategory::kDfsWrite) {
    cluster_.dfs().write_file(path, std::move(records), worker_, &vt_,
                              category);
  }

 private:
  Cluster& cluster_;
  std::string task_name_;
  const int worker_;
  VClock vt_;
  bool traced_ = false;
  TraceRecorder::TrackHandle prev_track_ = nullptr;
};

}  // namespace imr
