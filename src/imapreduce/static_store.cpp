#include "imapreduce/static_store.h"

#include <algorithm>
#include <utility>

#include "common/error.h"

namespace imr {

void StaticStore::assert_no_live_probes() const {
#ifndef NDEBUG
  IMR_CHECK_MSG(live_probes_.load(std::memory_order_relaxed) == 0,
                "StaticStore mutated while a join holds live find() probes");
#endif
}

void StaticStore::build(KVVec sorted) {
  assert_no_live_probes();
  records_ = std::move(sorted);
  reindex();
}

void StaticStore::reindex() {
  ++epoch_;
  index_.reset(records_.size());
  for (std::size_t i = 0; i < records_.size(); ++i) {
    // Sorted input puts duplicate keys adjacent; keeping only the first
    // preserves the lower_bound join's first-match semantics.
    if (i > 0 && records_[i].key == records_[i - 1].key) continue;
    index_.insert_new(records_[i].key, static_cast<uint32_t>(i));
  }
}

void StaticStore::apply_delta(const std::vector<StaticDeltaOp>& ops) {
  assert_no_live_probes();
  if (ops.empty()) {
    // Contract says every apply bumps the epoch — an "empty" mutation still
    // invalidates probes, so callers cannot rely on batch contents to decide
    // whether cached pointers survived.
    ++epoch_;
    return;
  }

  // Collapse to one final op per key, batch order deciding ties (last op
  // wins). A stable sort on key keeps the batch order within a key run, so
  // the run's last element is the winner.
  std::vector<const StaticDeltaOp*> final_ops;
  final_ops.reserve(ops.size());
  for (const StaticDeltaOp& op : ops) final_ops.push_back(&op);
  std::stable_sort(final_ops.begin(), final_ops.end(),
                   [](const StaticDeltaOp* a, const StaticDeltaOp* b) {
                     return a->key < b->key;
                   });
  std::size_t w = 0;
  for (std::size_t r = 0; r < final_ops.size(); ++r) {
    if (r + 1 < final_ops.size() && final_ops[r + 1]->key == final_ops[r]->key)
      continue;
    final_ops[w++] = final_ops[r];
  }
  final_ops.resize(w);

  // One two-pointer merge of the sorted records with the sorted final ops:
  // an upsert key's old records (however many duplicates) are replaced by
  // the single new record, an erase key's are dropped, everything else is
  // moved through untouched.
  KVVec merged;
  merged.reserve(records_.size() + final_ops.size());
  std::size_t ri = 0;
  for (const StaticDeltaOp* op : final_ops) {
    while (ri < records_.size() && records_[ri].key < op->key) {
      merged.push_back(std::move(records_[ri++]));
    }
    while (ri < records_.size() && records_[ri].key == op->key) ++ri;
    if (op->kind == DeltaOpKind::kUpsert) {
      merged.emplace_back(op->key, op->value);
    }
  }
  while (ri < records_.size()) merged.push_back(std::move(records_[ri++]));

  records_ = std::move(merged);
  reindex();
}

const Bytes* StaticStore::find(BytesView key) const {
  const uint32_t i = index_.find(records_, key);
  return i == KeyIndex::kNone ? nullptr : &records_[i].value;
}

}  // namespace imr
