// ReduceInput — one reduce task's input stage, shared by both engines
// (DESIGN.md §10). It owns the task's MemoryBudget, the RecordArena its
// sorts draw scratch from, the SpillSet of over-budget runs, and the
// collected in-memory records. When nothing spilled, sort() computes only
// the records' sort order (sort_order), which lives in the arena until the
// next sort or spill, and group() walks the records through it; spill runs
// and the merge tail are sorted in place. The record buffer is cleared, not
// freed, by group() and reset(), so a persistent reduce collects every
// iteration into the capacity its largest one reached instead of regrowing
// it (a spill hands the buffer to its run). Like its parts, it is per-task
// and NOT thread-safe.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>

#include "cluster/task_context.h"
#include "common/arena.h"
#include "common/bytes.h"
#include "dfs/spill.h"
#include "mapreduce/shuffle_util.h"

namespace imr {

class ReduceInput {
 public:
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

  // Appends `batch`, charging its wire bytes; its buffer is adopted only
  // while the held buffer is empty and smaller. Once the budget is crossed
  // the collected records are sorted and spilled as one run. Returns false
  // when the spill-fault hook fired: the torn run is registered (so the
  // unwind drops it) and the caller must fail the task.
  // `iteration`/`generation` label the trace spans.
  bool add(KVVec batch, int iteration = 0, int generation = 0);

  // Orders the in-memory records under the "sort" span, charged as kSort:
  // computes their sort order when nothing spilled, and sorts them in place
  // as the merge tail otherwise.
  void sort(int iteration = 0, int generation = 0);

  // After sort(): calls fn once per key group, in key order, consuming the
  // input and releasing its budget charge. Both passes — a walk of the
  // records in their sort order when nothing spilled (take_groups), a k-way
  // merge of the runs and the tail otherwise (counted in imr_reduce_merges)
  // — feed fn the same groups.
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
  std::span<const uint32_t> order_;  // records_' sort order, in arena_
  int64_t held_ = 0;                 // budget charge for records_
};

}  // namespace imr
