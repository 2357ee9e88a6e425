// StaticStore — a map task's one-time index over its static data partition.
//
// The static data (§3.2) is loop-invariant: loaded once when the persistent
// task starts, then joined against every state record of every iteration
// (§3.2.2). Paying a per-record lower_bound with O(log n) byte-string
// compares for that join re-derives the same ordering information each
// round, so the store builds a KeyIndex (common/key_index.h: key -> record
// position, open-addressed, its home slot a remix of fnv1a that keys of one
// hash partition spread over) once at load and answers each probe with one
// hash and an expected O(1) scan. The sorted record vector is kept as-is
// for the one2all map_all() pass, which walks the static partition in key
// order.
//
// Duplicate static keys resolve to the FIRST record in sorted order —
// exactly what the lower_bound join returned.
//
// Job sessions (DESIGN.md §8) make the store *mutable between epochs*:
// apply_delta() merges a batch of StaticDeltaOp into the sorted records and
// rebuilds the index incrementally with one O(n + m) pass. Every mutation
// (build or apply_delta) bumps the store epoch and invalidates all pointers
// previously returned by find(); in debug builds a live-probe counter
// asserts that no join still holds a probe across a mutation.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "common/bytes.h"
#include "common/key_index.h"
#include "imapreduce/delta.h"

namespace imr {

class StaticStore {
 public:
  StaticStore() = default;
  StaticStore(const StaticStore&) = delete;
  StaticStore& operator=(const StaticStore&) = delete;

  // Takes ownership of the partition's records, which MUST already be
  // key-sorted (sort_records(records, /*sort_values=*/false)), and builds
  // the hash index. May be called again to replace the contents. Bumps the
  // store epoch: pointers from earlier find() calls are invalid.
  void build(KVVec sorted);

  // Merges a delta batch into the sorted records and reindexes: one
  // O(n + m log m) pass (sort the batch, then a single two-pointer merge).
  // Ops are applied in batch order, so a later op on the same key wins; an
  // upsert replaces ALL records of its key with exactly one (collapsing any
  // duplicates the build had kept), an erase removes them all — in both
  // cases find() semantics afterwards match a fresh build of the mutated
  // partition byte for byte. Bumps the store epoch even for an empty batch.
  void apply_delta(const std::vector<StaticDeltaOp>& ops);

  // O(1) join probe: the value of the first sorted record with this key, or
  // nullptr when the key has no static record. The pointer stays valid until
  // the next build() or apply_delta().
  const Bytes* find(BytesView key) const;

  // The sorted partition, for in-order scans (map_all).
  const KVVec& records() const { return records_; }
  bool empty() const { return records_.empty(); }

  // Mutation counter: bumped by build() and apply_delta(). A caller that
  // cached a find() result can compare epochs to detect invalidation.
  uint64_t epoch() const { return epoch_; }

  // Debug guard for the find() invalidation rule: a join loop opens a
  // ProbeScope for as long as it dereferences find() results, and any
  // mutation while a scope is open trips an assertion (compiled in for
  // !NDEBUG builds — the ASan/TSan CI legs — and free in Release).
  class ProbeScope {
   public:
    explicit ProbeScope(const StaticStore& store) : store_(store) {
      store_.live_probes_.fetch_add(1, std::memory_order_relaxed);
    }
    ~ProbeScope() {
      store_.live_probes_.fetch_sub(1, std::memory_order_relaxed);
    }
    ProbeScope(const ProbeScope&) = delete;
    ProbeScope& operator=(const ProbeScope&) = delete;

   private:
    const StaticStore& store_;
  };

 private:
  void assert_no_live_probes() const;
  void reindex();

  KVVec records_;
  KeyIndex index_;  // each distinct key -> its first record in records_
  uint64_t epoch_ = 0;
  mutable std::atomic<int> live_probes_{0};
};

}  // namespace imr
