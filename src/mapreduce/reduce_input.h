// ReduceInput — one reduce task's input stage, shared by both engines
// (DESIGN.md §10). It owns the task's MemoryBudget, the RecordArena its
// sorts draw scratch from, the SpillSet of over-budget runs, and the
// collected in-memory records. Like its parts, it is per-task and NOT
// thread-safe.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "cluster/task_context.h"
#include "common/arena.h"
#include "common/bytes.h"
#include "dfs/spill.h"

namespace imr {

class ReduceInput {
 public:
  using GroupFn =
      std::function<void(const Bytes& key, const std::vector<Bytes>& values)>;
  // Consulted before each spill write with the iteration being collected;
  // true means the task dies there (fault injection).
  using SpillFaultHook = std::function<bool(int iteration)>;

  // `spill_tag` must be unique per live task (see SpillSet). A budget of 0
  // is unlimited: nothing ever spills.
  ReduceInput(TaskContext& ctx, std::string spill_tag, int64_t budget_bytes,
              SpillFaultHook spill_fault = {});
  // Reports the budget's high-water mark to the imr_arena_hwm gauge, on
  // every exit path.
  ~ReduceInput();

  ReduceInput(const ReduceInput&) = delete;
  ReduceInput& operator=(const ReduceInput&) = delete;

  // Appends `batch`, charging its wire bytes. Once the budget is crossed
  // the collected records are sorted and spilled as one run. Returns false
  // when the spill-fault hook fired: the torn run is registered (so the
  // unwind drops it) and the caller must fail the task.
  // `iteration`/`generation` label the trace spans.
  bool add(KVVec batch, int iteration = 0, int generation = 0);

  // Sorts the in-memory records under the "sort" span, charged as kSort.
  void sort(int iteration = 0, int generation = 0);

  // After sort(): calls fn once per key group, in key order, consuming the
  // input and releasing its budget charge. Both passes — in place over the
  // sorted records when nothing spilled, a k-way merge of the runs and the
  // tail otherwise (counted in imr_reduce_merges) — feed fn the same groups.
  void group(const GroupFn& fn);

  // Drops the collected records and every spilled run (rollback).
  void reset();

 private:
  bool spill(int iteration, int generation);

  TaskContext& ctx_;
  MemoryBudget budget_;
  RecordArena arena_;
  SpillSet spills_;
  SpillFaultHook spill_fault_;
  KVVec records_;
  int64_t held_ = 0;  // budget charge for records_
};

}  // namespace imr
