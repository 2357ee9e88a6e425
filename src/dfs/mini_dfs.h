// MiniDfs — an in-process stand-in for HDFS.
//
// Files are sequences of KV records, chunked into blocks with replica
// placement across workers. Reads and writes charge virtual time against the
// caller's clock: a block read is charged at the local rate when the reading
// worker holds a replica and the remote rate otherwise; a write is charged at
// the (replication-pipeline) write rate. Each write and each block read
// charges the registry's traffic matrix once: a local read or the writer's
// own copy on the diagonal, a remote read from the block's primary replica,
// and the replication copies from the writer to the other replicas, as
// remote traffic.
//
// The MapReduce engine uses block-aligned input splits with preferred
// (replica-holding) workers, which is how Hadoop's locality optimization is
// reproduced: the scheduler places map tasks on preferred workers when a slot
// is available.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "cluster/cost_model.h"
#include "common/bytes.h"
#include "common/rng.h"
#include "common/sim_time.h"
#include "metrics/metrics.h"

namespace imr {

// A contiguous range of records of one file, plus the workers that hold all
// of its blocks locally (empty when no single worker holds all of them).
struct InputSplit {
  std::string path;
  std::size_t begin = 0;  // record index, inclusive
  std::size_t end = 0;    // record index, exclusive
  std::size_t bytes = 0;
  std::vector<int> preferred_workers;
};

class MiniDfs {
 public:
  // `metrics`' traffic matrix should be sized by `num_workers`.
  MiniDfs(int num_workers, const CostModel& cost, MetricsRegistry& metrics,
          uint64_t seed = 17);

  MiniDfs(const MiniDfs&) = delete;
  MiniDfs& operator=(const MiniDfs&) = delete;

  // Creates (or replaces) a file. Charges write cost to `vt` if non-null.
  // `category` distinguishes normal writes from checkpoint dumps.
  void write_file(const std::string& path, KVVec records, int writer_worker,
                  VClock* vt,
                  TrafficCategory category = TrafficCategory::kDfsWrite);

  // Reads the whole file; charges read cost to `vt` if non-null.
  KVVec read_all(const std::string& path, int reader_worker, VClock* vt,
                 TrafficCategory category = TrafficCategory::kDfsRead) const;

  // Reads the record range of one split (blocks are charged individually,
  // local vs remote depending on the reader).
  KVVec read_split(const InputSplit& split, int reader_worker, VClock* vt,
                   TrafficCategory category = TrafficCategory::kDfsRead) const;

  // Key -> partition function for partitioner-aware loads. Kept as a
  // std::function so the dfs layer does not depend on the graph library.
  using PartitionFn = std::function<uint32_t(BytesView)>;

  // Reads the records whose key `part` maps to partition `index` (the share
  // a persistent task owns). Charges only the selected records' bytes,
  // locality per block — modeling a graph pre-partitioned on DFS (§3.2:
  // "iMapReduce supports automatic graph partitioning and graph loading").
  // `part` is the job's configured partitioner: static/state loading must
  // agree with the shuffle's routing or a key would live on one task and be
  // updated on another (DESIGN.md §9).
  KVVec read_partition(const std::string& path, uint32_t index,
                       const PartitionFn& part, int reader_worker, VClock* vt,
                       TrafficCategory category = TrafficCategory::kDfsRead) const;

  // Splits a file into up to `desired_splits` block-aligned splits.
  std::vector<InputSplit> make_splits(const std::string& path,
                                      int desired_splits) const;

  bool exists(const std::string& path) const;
  void remove(const std::string& path);
  // Removes every file under `prefix` (checkpoint GC); returns how many.
  std::size_t remove_prefix(const std::string& prefix);
  // All paths with the given prefix, sorted.
  std::vector<std::string> list(const std::string& prefix) const;
  std::size_t file_bytes(const std::string& path) const;
  std::size_t file_records(const std::string& path) const;

  int num_workers() const { return num_workers_; }

 private:
  struct Block {
    std::size_t begin = 0;  // record range [begin, end)
    std::size_t end = 0;
    std::size_t bytes = 0;
    std::vector<int> replicas;
  };
  struct File {
    KVVec records;
    std::size_t bytes = 0;
    std::vector<Block> blocks;
  };

  const File& get_file_locked(const std::string& path) const;
  std::vector<int> place_replicas(int writer_worker, Rng& rng);
  void charge_read_block(const Block& b, std::size_t bytes, int reader,
                         VClock* vt, TrafficCategory category) const;

  int num_workers_;
  const CostModel& cost_;
  MetricsRegistry& metrics_;
  mutable std::mutex mu_;
  std::map<std::string, File> files_;
  // Placement draws come from a per-file Rng seeded by (seed_, path), not a
  // shared stream: concurrent writers would otherwise consume a shared
  // stream in thread-arrival order, making replica placement — and every
  // locality-dependent virtual-time cost downstream of it — depend on real
  // scheduling. Per-file derivation keeps same-seed runs bit-reproducible.
  uint64_t seed_;
};

}  // namespace imr
