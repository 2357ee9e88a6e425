#include "dfs/mini_dfs.h"

#include <algorithm>

#include "common/error.h"
#include "common/hash.h"
#include "metrics/trace.h"

namespace imr {

MiniDfs::MiniDfs(int num_workers, const CostModel& cost,
                 MetricsRegistry& metrics, uint64_t seed)
    : num_workers_(num_workers), cost_(cost), metrics_(metrics), seed_(seed) {
  IMR_CHECK(num_workers > 0);
}

std::vector<int> MiniDfs::place_replicas(int writer_worker, Rng& rng) {
  int n = std::min(cost_.dfs_replication, num_workers_);
  std::vector<int> replicas;
  replicas.reserve(static_cast<std::size_t>(n));
  // First replica on the writer (HDFS policy), the rest on distinct others.
  if (writer_worker >= 0 && writer_worker < num_workers_) {
    replicas.push_back(writer_worker);
  } else {
    replicas.push_back(static_cast<int>(rng.uniform(
        static_cast<uint64_t>(num_workers_))));
  }
  while (static_cast<int>(replicas.size()) < n) {
    int w = static_cast<int>(
        rng.uniform(static_cast<uint64_t>(num_workers_)));
    if (std::find(replicas.begin(), replicas.end(), w) == replicas.end()) {
      replicas.push_back(w);
    }
  }
  return replicas;
}

void MiniDfs::write_file(const std::string& path, KVVec records,
                         int writer_worker, VClock* vt,
                         TrafficCategory category) {
  // Checkpoint dumps are the recovery-critical writes; give them their own
  // span name so they stand out on the writer's trace track.
  TraceSpan write_span(category == TrafficCategory::kCheckpoint
                           ? "checkpoint_write"
                           : "dfs_write",
                       vt);
  // The whole write holds mu_: place_replicas draws from the shared rng_,
  // and part/checkpoint dumps run concurrently from many task threads.
  std::lock_guard<std::mutex> lock(mu_);
  File f;
  f.bytes = wire_size(records);
  f.records = std::move(records);

  // Per-file placement stream: derived from (seed, path) so the draw order
  // does not depend on which concurrent writer reached mu_ first.
  Rng place_rng(seed_ ^ fnv1a(path));

  // Chunk into blocks by cumulative wire size.
  std::size_t block_begin = 0;
  std::size_t block_bytes = 0;
  for (std::size_t i = 0; i < f.records.size(); ++i) {
    block_bytes += f.records[i].wire_size();
    bool last = (i + 1 == f.records.size());
    if (block_bytes >= cost_.dfs_block_size || last) {
      Block b;
      b.begin = block_begin;
      b.end = i + 1;
      b.bytes = block_bytes;
      b.replicas = place_replicas(writer_worker, place_rng);
      f.blocks.push_back(std::move(b));
      block_begin = i + 1;
      block_bytes = 0;
    }
  }
  if (f.records.empty()) {
    Block b;
    b.replicas = place_replicas(writer_worker, place_rng);
    f.blocks.push_back(std::move(b));
  }

  // Charge the write: pipeline rate over the full size, plus per-op latency.
  if (vt != nullptr) {
    SimDuration d = cost_.dfs_op_latency + transfer_time(f.bytes, cost_.dfs_write);
    vt->advance(d);
    metrics_.add_time(TimeCategory::kDfsIo, d);
  }
  // The local copy stays on the writer's diagonal cell. The replication
  // copies leave the writer for the FIRST block's other replicas — a
  // placement approximation (later blocks may place elsewhere) — and count
  // as one transfer between them.
  metrics_.add_traffic(writer_worker, writer_worker, category, f.bytes);
  const std::vector<int>& reps = f.blocks.front().replicas;
  for (std::size_t n = 1; n < reps.size(); ++n) {
    metrics_.add_traffic(writer_worker, reps[n], category, f.bytes,
                         /*count_msg=*/n == 1);
  }

  files_[path] = std::move(f);
}

const MiniDfs::File& MiniDfs::get_file_locked(const std::string& path) const {
  auto it = files_.find(path);
  if (it == files_.end()) throw DfsError("no such file: " + path);
  return it->second;
}

void MiniDfs::charge_read_block(const Block& b, std::size_t bytes, int reader,
                                VClock* vt, TrafficCategory category) const {
  bool local = std::find(b.replicas.begin(), b.replicas.end(), reader) !=
               b.replicas.end();
  if (vt != nullptr) {
    double rate = local ? cost_.dfs_read_local : cost_.dfs_read_remote;
    SimDuration d = cost_.dfs_op_latency + transfer_time(bytes, rate);
    vt->advance(d);
    metrics_.add_time(TimeCategory::kDfsIo, d);
  }
  // A local read stays on the reader's diagonal; a remote one comes from
  // the block's primary replica.
  metrics_.add_traffic(local ? reader : b.replicas.front(), reader, category,
                       bytes);
}

KVVec MiniDfs::read_all(const std::string& path, int reader_worker, VClock* vt,
                        TrafficCategory category) const {
  TraceSpan read_span("dfs_read", vt);
  std::lock_guard<std::mutex> lock(mu_);
  const File& f = get_file_locked(path);
  for (const Block& b : f.blocks) {
    charge_read_block(b, b.bytes, reader_worker, vt, category);
  }
  return f.records;
}

KVVec MiniDfs::read_split(const InputSplit& split, int reader_worker,
                          VClock* vt, TrafficCategory category) const {
  TraceSpan read_span("dfs_read", vt);
  std::lock_guard<std::mutex> lock(mu_);
  const File& f = get_file_locked(split.path);
  IMR_CHECK(split.end <= f.records.size() && split.begin <= split.end);
  // Charge each overlapping block for the overlapped byte share.
  for (const Block& b : f.blocks) {
    std::size_t lo = std::max(b.begin, split.begin);
    std::size_t hi = std::min(b.end, split.end);
    if (lo >= hi) continue;
    std::size_t bytes = 0;
    for (std::size_t i = lo; i < hi; ++i) bytes += f.records[i].wire_size();
    charge_read_block(b, bytes, reader_worker, vt, category);
  }
  return KVVec(f.records.begin() + static_cast<std::ptrdiff_t>(split.begin),
               f.records.begin() + static_cast<std::ptrdiff_t>(split.end));
}

KVVec MiniDfs::read_partition(const std::string& path, uint32_t index,
                              const PartitionFn& part, int reader_worker,
                              VClock* vt, TrafficCategory category) const {
  IMR_CHECK_MSG(static_cast<bool>(part), "read_partition: null partition fn");
  TraceSpan read_span("dfs_read", vt);
  std::lock_guard<std::mutex> lock(mu_);
  const File& f = get_file_locked(path);
  KVVec out;
  for (const Block& b : f.blocks) {
    std::size_t bytes = 0;
    for (std::size_t i = b.begin; i < b.end; ++i) {
      const KV& kv = f.records[i];
      if (part(kv.key) == index) {
        bytes += kv.wire_size();
        out.push_back(kv);
      }
    }
    if (bytes > 0) charge_read_block(b, bytes, reader_worker, vt, category);
  }
  return out;
}

std::vector<InputSplit> MiniDfs::make_splits(const std::string& path,
                                             int desired_splits) const {
  IMR_CHECK(desired_splits > 0);
  std::lock_guard<std::mutex> lock(mu_);
  const File& f = get_file_locked(path);

  // Group whole blocks into `desired_splits` contiguous groups of roughly
  // equal byte size (Hadoop: one split per block; we allow coarser splits to
  // honor slot limits for persistent tasks).
  std::vector<InputSplit> splits;
  std::size_t total = f.bytes;
  std::size_t target = std::max<std::size_t>(
      1, total / static_cast<std::size_t>(desired_splits));

  InputSplit cur;
  cur.path = path;
  cur.begin = 0;
  std::vector<int> pref;  // intersection of replica sets in the group
  bool first_block = true;
  for (const Block& b : f.blocks) {
    if (first_block) {
      pref = b.replicas;
      first_block = false;
    } else {
      std::vector<int> merged;
      for (int w : pref) {
        if (std::find(b.replicas.begin(), b.replicas.end(), w) !=
            b.replicas.end()) {
          merged.push_back(w);
        }
      }
      pref = std::move(merged);
    }
    cur.end = b.end;
    cur.bytes += b.bytes;
    bool enough = cur.bytes >= target &&
                  static_cast<int>(splits.size()) + 1 < desired_splits;
    if (enough) {
      cur.preferred_workers = pref;
      splits.push_back(cur);
      cur = InputSplit{};
      cur.path = path;
      cur.begin = b.end;
      first_block = true;
    }
  }
  if (cur.end > cur.begin || splits.empty()) {
    cur.preferred_workers = pref;
    splits.push_back(cur);
  }
  return splits;
}

bool MiniDfs::exists(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  return files_.count(path) > 0;
}

void MiniDfs::remove(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  files_.erase(path);
}

std::size_t MiniDfs::remove_prefix(const std::string& prefix) {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t removed = 0;
  for (auto it = files_.begin(); it != files_.end();) {
    if (it->first.rfind(prefix, 0) == 0) {
      it = files_.erase(it);
      ++removed;
    } else {
      ++it;
    }
  }
  return removed;
}

std::vector<std::string> MiniDfs::list(const std::string& prefix) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  for (const auto& [path, f] : files_) {
    if (path.rfind(prefix, 0) == 0) out.push_back(path);
  }
  return out;
}

std::size_t MiniDfs::file_bytes(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  return get_file_locked(path).bytes;
}

std::size_t MiniDfs::file_records(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  return get_file_locked(path).records.size();
}

}  // namespace imr
