// RecordSource — a pull cursor over one sorted run of records, a chunk at a
// time.
//
// Lives in common (not mapreduce) so both ends of the out-of-core record
// path can meet at it: the dfs layer implements it over spill-run files
// (SpillSet::sources) and the mapreduce layer merges implementations with a
// loser tree (shuffle_util::MergeCursor) without either depending on the
// other.
//
// The chunk contract: next_chunk() hands out the run's next records in
// place — a spill run's read_split slice, or VecSource's whole buffer — and
// they stay valid, and may be moved from, until the source's next call. A
// merge therefore reads each head where it lies and moves the key and
// values straight out of the chunk; no record is copied into a head slot.
#pragma once

#include <cstddef>
#include <span>

#include "common/bytes.h"

namespace imr {

class RecordSource {
 public:
  virtual ~RecordSource() = default;
  // The run's next records, in order; empty once the run is exhausted (and
  // on every call after).
  virtual std::span<KV> next_chunk() = 0;
};

// Streams a sorted KVVec as one chunk: the donated buffer itself.
class VecSource : public RecordSource {
 public:
  explicit VecSource(KVVec& records) : records_(&records) {}
  std::span<KV> next_chunk() override {
    if (done_) return {};
    done_ = true;
    return *records_;
  }

 private:
  KVVec* records_;
  bool done_ = false;
};

}  // namespace imr
