#include "mapreduce/reduce_input.h"

#include <iterator>
#include <utility>

#include "common/error.h"
#include "common/record_source.h"
#include "common/sim_time.h"
#include "metrics/trace.h"

namespace imr {

ReduceInput::ReduceInput(TaskContext& ctx, std::string spill_tag,
                         int64_t budget_bytes, SpillFaultHook spill_fault)
    : ctx_(ctx),
      budget_(budget_bytes),
      arena_(&budget_),
      spills_(ctx.cluster().dfs(), ctx.cluster().metrics(),
              std::move(spill_tag), ctx.worker()),
      spill_fault_(std::move(spill_fault)) {}

ReduceInput::~ReduceInput() {
  if (budget_.hwm() > 0) {
    ctx_.cluster().metrics().gauge_max("imr_arena_hwm", budget_.hwm());
  }
}

bool ReduceInput::add(KVVec batch, int iteration, int generation) {
  const std::size_t batch_bytes = budget_.limited() ? wire_size(batch) : 0;
  if (records_.empty() && records_.capacity() < batch.capacity()) {
    records_ = std::move(batch);
  } else {
    records_.insert(records_.end(), std::make_move_iterator(batch.begin()),
                    std::make_move_iterator(batch.end()));
  }
  if (!budget_.limited()) return true;
  budget_.charge(static_cast<int64_t>(batch_bytes));
  held_ += static_cast<int64_t>(batch_bytes);
  if (!budget_.over() || records_.empty()) return true;
  return spill(iteration, generation);
}

// Runs are sorted with the tail's comparator and the merge breaks ties by
// run index in write order, which keeps spill boundaries invisible.
bool ReduceInput::spill(int iteration, int generation) {
  TraceSpan spill_span("spill_write", ctx_.vt(), iteration, generation);
  {
    ThreadCpuTimer sort_cpu;
    sort_records(records_, /*sort_values=*/true, arena_);
    ctx_.charge_compute(sort_cpu.elapsed_ns(), TimeCategory::kSort);
  }
  const bool dies = spill_fault_ && spill_fault_(iteration);
  if (dies) {
    spills_.write_torn_run(0, std::move(records_), &ctx_.vt());
  } else {
    spills_.write_run(0, std::move(records_), &ctx_.vt());
    budget_.release(std::exchange(held_, 0));
    ctx_.cluster().metrics().inc("imr_reduce_spills");
  }
  records_.clear();
  return !dies;
}

void ReduceInput::sort(int iteration, int generation) {
  TraceSpan sort_span("sort", ctx_.vt(), iteration, generation);
  ThreadCpuTimer sort_cpu;
  if (spills_.has_runs(0)) {
    sort_records(records_, /*sort_values=*/true, arena_);
  } else {
    order_ = sort_order(records_, /*sort_values=*/true, arena_);
  }
  ctx_.charge_compute(sort_cpu.elapsed_ns(), TimeCategory::kSort);
}

void ReduceInput::group(const GroupFn& fn) {
  if (!spills_.has_runs(0)) {
    // Values are MOVED out of the consumed buffer, in the order sort()
    // computed; no record moves.
    IMR_CHECK_MSG(order_.size() == records_.size(), "group() before sort()");
    take_groups(records_, order_, fn);
  } else {
    // Streams the merge, holding one group plus one chunk per run; the key
    // and values move straight out of the chunk that holds them.
    auto runs = spills_.sources(0, &ctx_.vt());
    std::vector<RecordSource*> sources;
    sources.reserve(runs.size() + 1);
    for (const auto& run : runs) sources.push_back(run.get());
    VecSource tail(records_);
    sources.push_back(&tail);
    MergeCursor merge(sources, /*compare_values=*/true);
    Bytes key;
    std::vector<Bytes> values;
    bool in_group = false;
    while (KV* rec = merge.next()) {
      if (!in_group || rec->key != key) {
        if (in_group) fn(key, values);
        key = std::move(rec->key);
        values.clear();
        in_group = true;
      }
      values.push_back(std::move(rec->value));
    }
    if (in_group) fn(key, values);
    spills_.consume(0);
    ctx_.cluster().metrics().inc("imr_reduce_merges");
  }
  records_.clear();
  order_ = {};
  budget_.release(std::exchange(held_, 0));
}

void ReduceInput::reset() {
  spills_.abandon();
  records_.clear();
  order_ = {};
  budget_.release(std::exchange(held_, 0));
}

}  // namespace imr
