// SpillSet — a task's registry of budgeted spill runs on MiniDfs.
//
// When a reduce task's MemoryBudget overflows, its input stage
// (ReduceInput) sorts the collected buffer and hands it here: write_run
// stores it as one sorted run file under "spill/<tag>/"
// (TrafficCategory::kSpill — spill I/O never pollutes the Fig-11
// dfs_read/dfs_write decomposition) and registers it on a per-stream list.
// Streams keep independent run sequences in write order; ReduceInput, the
// one user, spills on a single stream. Run order within a stream IS arrival
// order, which is what lets shuffle_util::MergeCursor's source-index
// tiebreak reproduce the in-memory sort byte-for-byte.
//
// Every byte written is accounted on the spill ledger (invariant 11:
// imr_spill_bytes_written == read + dropped, same for run counts). A run
// leaves the registry in exactly one of two ways:
//   - consume:  after a streaming merge drained the stream's cursors —
//               counted read, whole-run granularity;
//   - abandon:  rollback, fault unwind, or end-of-task GC — counted
//               dropped.
// The destructor abandons whatever is left, so a task that dies mid-merge
// (or mid-write, via write_torn_run) still balances the ledger and leaves
// no files behind.
//
// Like the budget and arena, a SpillSet is per-task and NOT thread-safe.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/record_source.h"
#include "common/sim_time.h"
#include "dfs/mini_dfs.h"
#include "metrics/metrics.h"

namespace imr {

class SpillSet {
 public:
  // `tag` must be unique per live task (e.g. "<job>/t<task>-g<generation>")
  // so concurrent tasks never collide under "spill/".
  SpillSet(MiniDfs& dfs, MetricsRegistry& metrics, std::string tag,
           int worker)
      : dfs_(dfs), metrics_(metrics), tag_(std::move(tag)), worker_(worker) {}
  ~SpillSet() { abandon(); }

  SpillSet(const SpillSet&) = delete;
  SpillSet& operator=(const SpillSet&) = delete;

  // Writes `records` (already sorted by the caller) as the next run of
  // `stream` and registers it. Counts imr_spill_bytes_written /
  // imr_spill_runs_written at wire size.
  void write_run(int stream, KVVec records, VClock* vt);

  // Fault injection: writes a run torn in half (only the first half of the
  // records reach the file), registered like any run so the dying task's
  // unwind drops it. Counts imr_torn_spills on top of the written ledger.
  void write_torn_run(int stream, KVVec records, VClock* vt);

  bool has_runs(int stream) const;

  // Chunked streaming cursors over `stream`'s runs, one per run in write
  // order; each hands out a run's read chunks in place (the chunk contract
  // of record_source.h). Reading charges kSpill traffic incrementally; the
  // runs stay registered (and on the ledger's open side) until
  // consume(stream) or abandon(). `vt` must outlive the cursors.
  std::vector<std::unique_ptr<RecordSource>> sources(int stream, VClock* vt);

  // Unregisters and removes all of `stream`'s runs, counting them read —
  // called after a merge over sources(stream) has drained them.
  void consume(int stream);

  // Drops everything still registered: counted dropped, files removed.
  // Rollback and task teardown call this; idempotent.
  void abandon();

 private:
  struct Run {
    std::string path;
    std::size_t records = 0;
    std::size_t bytes = 0;
  };

  std::string next_run_path(int stream);
  void register_run(int stream, const std::string& path, std::size_t records);

  MiniDfs& dfs_;
  MetricsRegistry& metrics_;
  std::string tag_;
  int worker_;
  int next_run_ = 0;
  std::map<int, std::vector<Run>> streams_;
};

}  // namespace imr
