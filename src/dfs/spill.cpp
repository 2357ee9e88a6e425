#include "dfs/spill.h"

#include "common/strings.h"

namespace imr {

namespace {

// Records per read_split refill of a spill-run cursor. Small enough that k
// open cursors plus the in-memory tail stay far under any sane budget,
// large enough that the per-read virtual-time op latency amortizes.
constexpr std::size_t kChunkRecords = 1024;

// Streams one spill-run file in kChunkRecords slices, so a merge over many
// runs never re-materializes a whole run in memory. Each slice is handed
// out in place and replaced by the next call's read.
class DfsRunSource : public RecordSource {
 public:
  DfsRunSource(const MiniDfs& dfs, std::string path, std::size_t records,
               int reader, VClock* vt)
      : dfs_(dfs),
        path_(std::move(path)),
        records_(records),
        reader_(reader),
        vt_(vt) {}

  std::span<KV> next_chunk() override {
    if (read_ >= records_) return {};
    InputSplit chunk;
    chunk.path = path_;
    chunk.begin = read_;
    chunk.end = std::min(records_, read_ + kChunkRecords);
    buf_ = dfs_.read_split(chunk, reader_, vt_, TrafficCategory::kSpill);
    // An empty read ends the run.
    read_ = buf_.empty() ? records_ : chunk.end;
    return buf_;
  }

 private:
  const MiniDfs& dfs_;
  std::string path_;
  std::size_t records_;
  int reader_;
  VClock* vt_;
  KVVec buf_;
  std::size_t read_ = 0;  // records fetched from the file so far
};

}  // namespace

std::string SpillSet::next_run_path(int stream) {
  return strprintf("spill/%s/s%d-r%06d", tag_.c_str(), stream, next_run_++);
}

void SpillSet::register_run(int stream, const std::string& path,
                            std::size_t records) {
  const std::size_t bytes = dfs_.file_bytes(path);
  metrics_.inc("imr_spill_bytes_written", static_cast<int64_t>(bytes));
  metrics_.inc("imr_spill_runs_written");
  streams_[stream].push_back(Run{path, records, bytes});
}

void SpillSet::write_run(int stream, KVVec records, VClock* vt) {
  const std::string path = next_run_path(stream);
  const std::size_t n = records.size();
  dfs_.write_file(path, std::move(records), worker_, vt,
                  TrafficCategory::kSpill);
  register_run(stream, path, n);
}

void SpillSet::write_torn_run(int stream, KVVec records, VClock* vt) {
  records.resize(records.size() / 2);
  metrics_.inc("imr_torn_spills");
  write_run(stream, std::move(records), vt);
}

bool SpillSet::has_runs(int stream) const {
  auto it = streams_.find(stream);
  return it != streams_.end() && !it->second.empty();
}

std::vector<std::unique_ptr<RecordSource>> SpillSet::sources(int stream,
                                                             VClock* vt) {
  std::vector<std::unique_ptr<RecordSource>> out;
  auto it = streams_.find(stream);
  if (it == streams_.end()) return out;
  out.reserve(it->second.size());
  for (const Run& run : it->second) {
    out.push_back(std::make_unique<DfsRunSource>(dfs_, run.path, run.records,
                                                 worker_, vt));
  }
  return out;
}

void SpillSet::consume(int stream) {
  auto it = streams_.find(stream);
  if (it == streams_.end()) return;
  for (const Run& run : it->second) {
    metrics_.inc("imr_spill_bytes_read", static_cast<int64_t>(run.bytes));
    metrics_.inc("imr_spill_runs_read");
    dfs_.remove(run.path);
  }
  streams_.erase(it);
}

void SpillSet::abandon() {
  for (const auto& [stream, runs] : streams_) {
    for (const Run& run : runs) {
      metrics_.inc("imr_spill_bytes_dropped", static_cast<int64_t>(run.bytes));
      metrics_.inc("imr_spill_runs_dropped");
      dfs_.remove(run.path);
    }
  }
  streams_.clear();
}

}  // namespace imr
