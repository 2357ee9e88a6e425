// MapOutput — one iterative map task's output stage (DESIGN.md §9, §10).
//
// It is the IterEmitter the task's mapper writes to: emit() routes a record
// to its reduce partition's buffer, side() to an auxiliary map's. The stage
// decides when held records leave. Full buffers stream to their reduce as
// the iteration runs (§3.3). A combiner holds its buffers to the barrier,
// where combining finds the most duplicate keys, and so does the aggregated
// exchange for remote-bound output. A task over its memory budget ships
// everything it still holds at once: the reduce is where a budget spills
// to disk (ReduceInput), so the map never writes a run.
//
// Like its parts, a MapOutput is per-task and NOT thread-safe.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "cluster/task_context.h"
#include "common/arena.h"
#include "common/bytes.h"
#include "graph/partition.h"
#include "imapreduce/api.h"
#include "mapreduce/shuffle_util.h"
#include "metrics/telemetry.h"

namespace imr {

class MapOutput : public IterEmitter {
 public:
  // A destination row, indexed by partition. Called on every send, so a
  // row that a recovery re-homes is picked up at the next batch.
  using Row = std::function<const std::vector<std::shared_ptr<Endpoint>>&()>;

  struct Options {
    int task = 0;        // sender id stamped on every message
    int generation = 0;  // stamped on every message until reset()
    Row reduces = {};    // shuffle destinations; empty = side output only
    Row aux = {};        // auxiliary maps fed by side(); empty = side() drops
    // Routes emit(); null = the flat hash over the reduces.
    const Partitioner* partitioner = nullptr;
    CombineFn combine = {};  // empty = no combiner
    int buffer_records = 4096;  // a full streaming buffer (§3.3)
    bool aggregated = false;   // DESIGN.md §9
    int64_t budget_bytes = 0;  // DESIGN.md §10; 0 = unlimited
    // Telemetry hot-key profile of emit(): a SpaceSaving sketch plus exact
    // per-partition counts, handed to the cluster ledger on destruction.
    // The ledger keeps the highest generation's profile per task, so a
    // respawned task supersedes the zombie it replaced.
    bool profiled = false;
  };

  MapOutput(TaskContext& ctx, Options options);
  // Reports the budget's high-water mark to the imr_arena_hwm gauge and
  // hands over the profile, on every exit path.
  ~MapOutput() override;

  MapOutput(const MapOutput&) = delete;
  MapOutput& operator=(const MapOutput&) = delete;

  void emit(Bytes key, Bytes value) override;
  void side(Bytes key, Bytes value) override;

  // After each input batch: streams every full buffer that neither the
  // combiner nor the aggregated exchange holds. A task then over its budget
  // combines and ships everything it still holds as plain batches, counted
  // in imr_map_budget_flushes.
  void after_batch(int iteration);

  // The iteration barrier: combines what is held, streams it to local
  // partitions, and sends one coalesced frame to every remote worker that
  // hosts a partition under the aggregated exchange, records or not.
  void flush(int iteration);

  // After flush(): EOS to every reduce no frame reached (a frame is its
  // sender's EOS), then the aux buffers and their EOS.
  void close_iteration(int iteration);

  // Rollback: drops everything held; later messages carry `generation`.
  void reset(int generation);

  // The frame decoder: calls fn with a copy of each record range `frame`
  // carries for reduce `task`. Stops and returns false once fn does.
  static bool for_each_frame_range(const NetMessage& frame, int task,
                                   const std::function<bool(KVVec)>& fn);

 private:
  // Whether partition r's output waits for the barrier frame.
  bool framed(std::size_t r);
  void ship(std::size_t r, int iteration);
  void combine(KVVec& buf, int iteration);
  // Brings the budget's charge for the held records up to date.
  void charge_held();

  TaskContext& ctx_;
  Options o_;
  int gen_;
  std::vector<KVVec> buffers_;
  std::vector<KVVec> aux_buffers_;
  MemoryBudget budget_;
  RecordArena arena_;
  // Wire bytes in buffers_, counted only under a budget; the part of it
  // the budget is charged with.
  int64_t held_ = 0;
  int64_t charged_ = 0;
  SpaceSaving sketch_;
  std::vector<int64_t> partition_counts_;
};

}  // namespace imr
