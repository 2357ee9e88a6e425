// Sort/group/combine utilities shared by both engines' reduce sides.
//
// The record compute path is the per-iteration hot loop of every figure, so
// the primitives here avoid redundant byte-string work:
//   - sort_order computes a buffer's sorted permutation over 16-byte
//     entries, each summarizing one 8-byte chunk of its record as a
//     big-endian integer plus a length code, min(bytes left in the field,
//     9), beside the arrival index. An in-place MSD radix pass orders the
//     entries by the key's chunk, then its length code. In sort_values
//     mode a bucket whose keys all tie is re-keyed from one read per
//     record to the value's first 8 bytes and radixed again, and again
//     8 bytes further on while a chunk still ties. Small buckets and keys
//     that tie on a whole 8-byte prefix finish with a comparator, which
//     reads a record only when both fields run past the chunk, or, at the
//     key, when two values tie on their first 3 bytes (which the key
//     entry also carries). Codecs are order-preserving, so entry order ==
//     record order; the arrival index breaks every remaining tie, so the
//     permutation is unique.
//   - sort_records is that order applied in place, each record moved once.
//   - take_groups walks an unsorted buffer in a sort_order permutation as
//     key groups, moving each value straight out of its record: the
//     in-memory reduce never moves a record into sorted position.
//   - combine_records is the map-side combine both engines run: the order,
//     then a take_groups walk that feeds each group to the combiner.
//   - MergeCursor is the budgeted reduce's k-way merge of sorted runs: a
//     loser tree that compares 16-byte head codes, not records, and hands
//     out each head in place in its source's chunk, so the group loop
//     moves keys and values straight out of the runs.
//   - GroupCursor iterates key runs of a sorted buffer as spans — no value
//     copies, one key compare per record.
//   - GroupValues adapts a run to the std::vector<Bytes> shape user
//     Reducer::reduce signatures expect, either borrowing (moving values out
//     of a consumed buffer — zero deep copies for heap-allocated values) or
//     copying (for buffers the caller still needs).
//   - combine_sorted combines a buffer sort_records already sorted by key
//     and value: run-length grouping, the same groups combine_records
//     feeds its combiner.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "common/arena.h"
#include "common/bytes.h"
#include "common/record_source.h"
#include "mapreduce/api.h"

namespace imr {

// Sorts records by key (and by value within equal keys when
// `sort_values` — deterministic reduce input independent of arrival order).
// Key-only sorting is stable; full sorting breaks exact (key, value) ties by
// original position, so the result is deterministic in both modes. The
// entry scratch is a std::vector, freed on return.
void sort_records(KVVec& records, bool sort_values);

// Arena-backed variant: the same order as sort_order, applied in place by
// cycle rotation, so the sort allocates nothing from the global heap once
// the arena's blocks are pooled. Byte-identical results to the plain
// overload.
void sort_records(KVVec& records, bool sort_values, RecordArena& arena);

// The permutation sort_records(records, sort_values) would apply: element i
// is the index of the record that belongs at position i. It lives in
// `arena` (reset first) and stays valid until the arena's next reset — in a
// ReduceInput, until its next sort or spill. `records` is not touched.
std::span<const uint32_t> sort_order(const KVVec& records, bool sort_values,
                                     RecordArena& arena);

// One reduce call's input: a key and its values, in sorted order.
using GroupFn =
    std::function<void(const Bytes& key, const std::vector<Bytes>& values)>;

// Calls fn once per key group of `records` taken in `order` (a sort_order
// permutation of them), in key order, MOVING each value out of its record;
// the keys stay in place. The same groups, values and order as grouping the
// buffer sort_records would have produced, without moving any record.
void take_groups(KVVec& records, std::span<const uint32_t> order,
                 const GroupFn& fn);

// ---------------------------------------------------------------------------
// Streaming k-way merge over sorted runs (out-of-core reduce, DESIGN.md §10)
// ---------------------------------------------------------------------------

// The RecordSource cursor interface (and VecSource, the in-memory tail
// source) live in common/record_source.h; dfs spill-run readers implement
// the same interface (SpillSet::sources).
//
// Loser-tree k-way merge. Given sources that are each sorted the way
// sort_records(run, compare_values) sorts — and whose records were split
// from one logical buffer in arrival order (source 0's records preceded
// source 1's, ...) — the merged stream is byte-identical to sorting the
// concatenated buffer: the order breaks exact ties by source index, which
// is precisely the original-position tiebreak sort_records applies.
//
// Each leaf keeps its source's current chunk in place (the chunk contract
// of record_source.h) and a 16-byte head code: `hi` is the head key's
// 8-byte big-endian prefix (zero-padded), `lo` holds min(key length, 9) in
// its top 4 bits and then, only when the key ends within 8 bytes and values
// are compared, the top 60 bits of the value's 8-byte prefix. An exhausted
// leaf's code is all ones, above every live code (a live length code is at
// most 9). Codes order like their records: a smaller code is a smaller
// (key, value), so the replay picks winner and loser with a branch-free
// two-word compare, and only equal codes read the records, finishing with
// the full (key, value, source index) compare. O(log k) code compares per
// record; no record moves until the caller moves it.
class MergeCursor {
 public:
  MergeCursor(std::vector<RecordSource*> sources, bool compare_values);

  // The globally-smallest head, in place in its source's chunk, or nullptr
  // once every source is exhausted. The record may be moved from; it stays
  // valid until the next call, which advances its leaf.
  KV* next();

  // Moves the globally-smallest head into `out`; false when all sources are
  // exhausted.
  bool next(KV& out) {
    KV* rec = next();
    if (rec != nullptr) out = std::move(*rec);
    return rec != nullptr;
  }

 private:
  struct HeadCode {
    uint64_t hi;
    uint64_t lo;
  };

  HeadCode head_code(std::size_t leaf) const;
  void refill(std::size_t leaf);
  bool tie_less(int a, int b) const;

  std::vector<RecordSource*> sources_;
  bool compare_values_;
  std::size_t padded_;          // next_pow2(sources): full-tree leaf count
  std::vector<HeadCode> codes_; // head code per leaf (padding: all ones)
  std::vector<KV*> head_;       // head record per leaf, in its chunk
  std::vector<KV*> end_;        // end of the leaf's chunk
  std::vector<int> tree_;       // tree_[0] = winner; tree_[1..] = losers
  int returned_ = -1;           // leaf whose head next() returned, or -1
};

// Iterates a key-sorted buffer as runs of equal keys. Zero-copy: key() and
// run() reference the underlying records.
//
//   GroupCursor groups(sorted);
//   while (groups.next()) { use groups.key(), groups.run(); }
class GroupCursor {
 public:
  explicit GroupCursor(const KVVec& sorted)
      : data_(sorted.data()), n_(sorted.size()) {}

  // Advances to the next group; false when the buffer is exhausted.
  bool next() {
    begin_ = end_;
    if (begin_ >= n_) return false;
    const Bytes& k = data_[begin_].key;
    ++end_;
    while (end_ < n_ && data_[end_].key == k) ++end_;
    return true;
  }

  const Bytes& key() const { return data_[begin_].key; }
  std::span<const KV> run() const { return {data_ + begin_, end_ - begin_}; }
  std::size_t begin_index() const { return begin_; }
  std::size_t size() const { return end_ - begin_; }

 private:
  const KV* data_;
  std::size_t n_;
  std::size_t begin_ = 0;
  std::size_t end_ = 0;
};

// Reusable adapter materializing one group's values in the
// std::vector<Bytes> shape Reducer::reduce takes. One instance serves a
// whole iteration loop; the scratch vector is recycled across groups.
class GroupValues {
 public:
  // Copies the current run's values (for buffers the caller keeps).
  const std::vector<Bytes>& view(const GroupCursor& g) {
    vals_.clear();
    for (const KV& kv : g.run()) vals_.push_back(kv.value);
    return vals_;
  }

  // MOVES the current run's values out of `records` (which must be the
  // buffer `g` iterates). Heap-allocated values transfer ownership instead
  // of being deep-copied; the donated slots are left empty. Use only when
  // the buffer is consumed by the grouping pass — both engines' reduce and
  // combiner loops discard it afterwards.
  const std::vector<Bytes>& take(KVVec& records, const GroupCursor& g) {
    vals_.clear();
    const std::size_t b = g.begin_index();
    for (std::size_t i = 0; i < g.size(); ++i) {
      vals_.push_back(std::move(records[b + i].value));
    }
    return vals_;
  }

 private:
  std::vector<Bytes> vals_;
};

// One combiner invocation: reduce `values` for `key`, appending the
// combined records to `out`. Both engines bind their combiner (classic
// Reducer or IterReducer) through this shape, so the grouping/aggregation
// logic below exists exactly once.
using CombineFn = std::function<void(
    const Bytes& key, const std::vector<Bytes>& values, KVVec& out)>;

// Combines a buffer already sorted with sort_records(buf, true) in place,
// replacing it with the combined records (in key order). Returns the number
// of input records combined away. Byte-identical to sorting plus run-length
// grouping.
std::size_t combine_sorted(KVVec& sorted, const CombineFn& fn);

// What one combine_records call did, with the thread CPU of each part: the
// order is a sort (kSort), the walk belongs to the combine (kCompute).
struct CombineRun {
  std::size_t saved = 0;  // input records combined away
  int64_t order_cpu_ns = 0;
  int64_t combine_cpu_ns = 0;
};

// The map-side combine of one partition buffer, the one both engines run:
// sort_order(records, true, arena), then a take_groups walk of that order
// that feeds each key group to fn, so no record moves into sorted position.
// Replaces `records` with the combined records, in key order: byte-identical
// to sort_records(records, true) followed by combine_sorted. The order lives
// in `arena` until its next reset.
CombineRun combine_records(KVVec& records, const CombineFn& fn,
                           RecordArena& arena);

// Binds a classic Reducer used as a combiner to the shared CombineFn shape.
CombineFn combine_fn(Reducer& combiner);

// An Emitter that appends into a vector.
class VectorEmitter : public Emitter {
 public:
  explicit VectorEmitter(KVVec& out) : out_(out) {}
  void emit(Bytes key, Bytes value) override {
    out_.emplace_back(std::move(key), std::move(value));
  }

 private:
  KVVec& out_;
};

}  // namespace imr
