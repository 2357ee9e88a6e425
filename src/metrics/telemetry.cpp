#include "metrics/telemetry.h"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <ostream>

#include "common/strings.h"

namespace imr {

namespace {

bool env_requests_telemetry() {
  const char* env = std::getenv("IMR_TELEMETRY");
  return env != nullptr && *env != '\0';
}

// Same escaping rules as the trace exporter: keys can hold arbitrary bytes.
std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (unsigned char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (c < 0x20 || c >= 0x7f) {
          out += strprintf("\\u%04x", c);
        } else {
          out += static_cast<char>(c);
        }
    }
  }
  return out;
}

// Doubles in the JSONL are all derived from virtual-time integers, so a
// fixed-precision print keeps same-seed exports byte-identical.
std::string json_double(double v) { return strprintf("%.6f", v); }

}  // namespace

// ---------------------------------------------------------------------------
// SpaceSaving
// ---------------------------------------------------------------------------

void SpaceSaving::offer(const Bytes& key, int64_t by) {
  total_ += by;
  auto it = counters_.find(key);
  if (it != counters_.end()) {
    it->second.count += by;
    return;
  }
  if (counters_.size() < capacity_) {
    counters_[key] = Counter{by, 0};
    return;
  }
  // Evict the minimum-count entry (ties: smallest key, from the ordered
  // scan); the newcomer inherits its count as the error bound.
  auto min_it = counters_.begin();
  for (auto scan = counters_.begin(); scan != counters_.end(); ++scan) {
    if (scan->second.count < min_it->second.count) min_it = scan;
  }
  Counter evicted = min_it->second;
  counters_.erase(min_it);
  counters_[key] = Counter{evicted.count + by, evicted.count};
}

void SpaceSaving::merge(const SpaceSaving& other) {
  total_ += other.total_;
  for (const auto& [key, c] : other.counters_) {
    Counter& mine = counters_[key];
    mine.count += c.count;
    mine.error += c.error;
  }
  truncate();
}

void SpaceSaving::truncate() {
  if (counters_.size() <= capacity_) return;
  std::vector<HotKey> all = top();
  counters_.clear();
  for (std::size_t n = 0; n < capacity_; ++n) {
    counters_[all[n].key] = Counter{all[n].count, all[n].error};
  }
}

std::vector<HotKey> SpaceSaving::top() const {
  std::vector<HotKey> out;
  out.reserve(counters_.size());
  for (const auto& [key, c] : counters_) {
    out.push_back(HotKey{key, c.count, c.error});
  }
  std::sort(out.begin(), out.end(), [](const HotKey& a, const HotKey& b) {
    if (a.count != b.count) return a.count > b.count;
    if (a.error != b.error) return a.error < b.error;
    return a.key < b.key;
  });
  return out;
}

// ---------------------------------------------------------------------------
// TelemetryLedger
// ---------------------------------------------------------------------------

void TelemetryLedger::add_send(TrafficCategory c, int64_t bytes,
                               int generation, int iteration,
                               uint32_t endpoint_uid) {
  BucketShard& shard = bucket_shards_[thread_stripe(kBucketShards)];
  std::lock_guard<std::mutex> lock(shard.mu);
  IterBucket& b = shard.buckets[bucket_key(generation, iteration)];
  b.bytes[static_cast<std::size_t>(c)] += bytes;
  b.msgs[static_cast<std::size_t>(c)] += 1;
  b.endpoint_msgs[endpoint_uid] += 1;
}

void TelemetryLedger::begin_run() {
  for (BucketShard& shard : bucket_shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.buckets.clear();
  }
  std::lock_guard<std::mutex> lock(profile_mu_);
  profiles_.clear();
  static_bytes_.clear();
}

void TelemetryLedger::record_map_iter(int generation, int iteration,
                                      int64_t duration_ns) {
  BucketShard& shard = bucket_shards_[thread_stripe(kBucketShards)];
  std::lock_guard<std::mutex> lock(shard.mu);
  int64_t& dur = shard.buckets[bucket_key(generation, iteration)].max_map_ns;
  dur = std::max(dur, duration_ns);
}

void TelemetryLedger::record_static_bytes(int task, int64_t bytes) {
  std::lock_guard<std::mutex> lock(profile_mu_);
  static_bytes_[task] += bytes;
}

void TelemetryLedger::record_task_profile(int task, int generation,
                                          SpaceSaving sketch,
                                          std::vector<int64_t> counts) {
  std::lock_guard<std::mutex> lock(profile_mu_);
  TaskProfile& p = profiles_[task];
  if (generation < p.generation) return;  // zombie: superseded by a respawn
  if (generation > p.generation) {
    p.generation = generation;
    p.sketch = std::move(sketch);
    p.partition_counts = std::move(counts);
    return;
  }
  // Same generation: another phase of the same pair. Merge.
  p.sketch.merge(sketch);
  if (p.partition_counts.size() < counts.size()) {
    p.partition_counts.resize(counts.size(), 0);
  }
  for (std::size_t n = 0; n < counts.size(); ++n) {
    p.partition_counts[n] += counts[n];
  }
}

IterTelemetry TelemetryLedger::iter_view(const IterationStat& st) const {
  IterTelemetry t;
  t.iteration = st.iteration;
  t.generation = st.generation;
  t.session = st.session;
  t.vt_ms = st.wall_ms_end;
  t.distance = st.distance;
  t.workset = st.workset_size;
  // The straggler is the report that reached the master last in virtual
  // time, ties going to the smaller task id.
  const TaskReport* straggler = nullptr;
  int64_t max_dur = 0;
  for (const TaskReport& r : st.reports) {
    t.task_ms[r.task] = static_cast<double>(r.duration_ns) / 1e6;
    t.state_bytes[r.task] = r.state_bytes;
    max_dur = std::max(max_dur, r.duration_ns);
    if (straggler == nullptr || r.vt_ready > straggler->vt_ready ||
        (r.vt_ready == straggler->vt_ready && r.task < straggler->task)) {
      straggler = &r;
    }
  }
  t.reduce_ms = static_cast<double>(max_dur) / 1e6;
  if (straggler != nullptr) {
    t.straggler_task = straggler->task;
    t.straggler_worker = straggler->worker;
    t.straggler_ms = static_cast<double>(straggler->duration_ns) / 1e6;
  }

  const uint64_t key = bucket_key(st.generation, st.iteration);
  std::map<uint32_t, int64_t> endpoint_msgs;
  int64_t max_map = 0;
  for (BucketShard& shard : bucket_shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.buckets.find(key);
    if (it == shard.buckets.end()) continue;
    const IterBucket& b = it->second;
    for (std::size_t c = 0; c < b.bytes.size(); ++c) {
      t.bytes[c] += b.bytes[c];
      t.msgs[c] += b.msgs[c];
    }
    for (const auto& [uid, n] : b.endpoint_msgs) endpoint_msgs[uid] += n;
    max_map = std::max(max_map, b.max_map_ns);
  }
  for (const auto& [uid, n] : endpoint_msgs) {
    t.queue_hwm = std::max(t.queue_hwm, n);
  }
  t.map_ms = static_cast<double>(max_map) / 1e6;
  return t;
}

void TelemetryLedger::collect_profiles(std::vector<HotKey>* hot_keys,
                                       int64_t* samples,
                                       std::vector<int64_t>* partition_records,
                                       double* skew) const {
  std::lock_guard<std::mutex> lock(profile_mu_);
  SpaceSaving merged;
  std::vector<int64_t> counts;
  for (const auto& [task, p] : profiles_) {
    merged.merge(p.sketch);
    if (counts.size() < p.partition_counts.size()) {
      counts.resize(p.partition_counts.size(), 0);
    }
    for (std::size_t n = 0; n < p.partition_counts.size(); ++n) {
      counts[n] += p.partition_counts[n];
    }
  }
  *hot_keys = merged.top();
  *samples = merged.total();
  int64_t total = 0;
  int64_t max = 0;
  for (int64_t n : counts) {
    total += n;
    max = std::max(max, n);
  }
  *skew = (total > 0 && !counts.empty())
              ? static_cast<double>(max) /
                    (static_cast<double>(total) /
                     static_cast<double>(counts.size()))
              : 0.0;
  *partition_records = std::move(counts);
}

std::vector<int64_t> TelemetryLedger::static_bytes_per_task() const {
  std::lock_guard<std::mutex> lock(profile_mu_);
  std::vector<int64_t> out;
  for (const auto& [task, bytes] : static_bytes_) {
    if (static_cast<int>(out.size()) <= task) {
      out.resize(static_cast<std::size_t>(task) + 1, 0);
    }
    out[static_cast<std::size_t>(task)] = bytes;
  }
  return out;
}

// ---------------------------------------------------------------------------
// TelemetryRecorder
// ---------------------------------------------------------------------------

std::atomic<bool> TelemetryRecorder::enabled_{env_requests_telemetry()};

TelemetryRecorder& TelemetryRecorder::instance() {
  static TelemetryRecorder recorder;
  return recorder;
}

void TelemetryRecorder::enable() {
  enabled_.store(true, std::memory_order_relaxed);
}

void TelemetryRecorder::disable() {
  enabled_.store(false, std::memory_order_relaxed);
}

void TelemetryRecorder::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  runs_.clear();
}

void TelemetryRecorder::append(RunTelemetry run) {
  std::lock_guard<std::mutex> lock(mu_);
  runs_.push_back(std::move(run));
}

std::vector<RunTelemetry> TelemetryRecorder::runs() const {
  std::lock_guard<std::mutex> lock(mu_);
  return runs_;
}

namespace {

void export_iter(std::ostream& os, const RunTelemetry& run,
                 const IterTelemetry& t) {
  os << "{\"type\":\"iter\",\"job\":\"" << json_escape(run.job)
     << "\",\"session\":" << t.session << ",\"generation\":" << t.generation
     << ",\"iteration\":" << t.iteration
     << ",\"vt_ms\":" << json_double(t.vt_ms)
     << ",\"distance\":" << json_double(t.distance)
     << ",\"workset\":" << t.workset
     << ",\"map_ms\":" << json_double(t.map_ms)
     << ",\"reduce_ms\":" << json_double(t.reduce_ms)
     << ",\"straggler\":{\"task\":" << t.straggler_task
     << ",\"worker\":" << t.straggler_worker
     << ",\"ms\":" << json_double(t.straggler_ms) << "}";
  os << ",\"task_ms\":[";
  for (int i = 0; i < run.tasks; ++i) {
    if (i > 0) os << ",";
    auto it = t.task_ms.find(i);
    os << json_double(it == t.task_ms.end() ? 0.0 : it->second);
  }
  os << "],\"state_bytes\":[";
  for (int i = 0; i < run.tasks; ++i) {
    if (i > 0) os << ",";
    auto it = t.state_bytes.find(i);
    os << (it == t.state_bytes.end() ? 0 : it->second);
  }
  os << "],\"queue_hwm\":" << t.queue_hwm;
  os << ",\"bytes\":{";
  for (int c = 0; c < kNumTrafficCategories; ++c) {
    if (c > 0) os << ",";
    os << "\"" << traffic_category_name(static_cast<TrafficCategory>(c))
       << "\":" << t.bytes[static_cast<std::size_t>(c)];
  }
  os << "},\"msgs\":{";
  for (int c = 0; c < kNumTrafficCategories; ++c) {
    if (c > 0) os << ",";
    os << "\"" << traffic_category_name(static_cast<TrafficCategory>(c))
       << "\":" << t.msgs[static_cast<std::size_t>(c)];
  }
  os << "}}\n";
}

void export_run(std::ostream& os, const RunTelemetry& run) {
  os << "{\"type\":\"run\",\"job\":\"" << json_escape(run.job)
     << "\",\"workers\":" << run.workers << ",\"tasks\":" << run.tasks
     << ",\"iterations_run\":" << run.iterations_run
     << ",\"converged\":" << (run.converged ? "true" : "false")
     << ",\"session_epochs\":" << run.session_epochs;
  os << ",\"traffic\":{";
  for (int c = 0; c < kNumTrafficCategories; ++c) {
    auto cat = static_cast<TrafficCategory>(c);
    if (c > 0) os << ",";
    os << "\"" << traffic_category_name(cat)
       << "\":{\"bytes\":" << run.matrix.category_bytes(cat)
       << ",\"remote\":" << run.matrix.category_remote_bytes(cat)
       << ",\"msgs\":" << run.matrix.category_msgs(cat) << "}";
  }
  os << "}";
  // Sparse matrix: only non-empty cells, as [from, to, category, bytes,
  // msgs] with -1 for the master slot.
  os << ",\"matrix\":[";
  bool first = true;
  for (int f = -1; f < run.matrix.workers(); ++f) {
    for (int t = -1; t < run.matrix.workers(); ++t) {
      for (int c = 0; c < kNumTrafficCategories; ++c) {
        auto cat = static_cast<TrafficCategory>(c);
        const TrafficCell& cell = run.matrix.cell(f, t, cat);
        if (cell.bytes == 0 && cell.msgs == 0) continue;
        if (!first) os << ",";
        first = false;
        os << "[" << f << "," << t << ",\"" << traffic_category_name(cat)
           << "\"," << cell.bytes << "," << cell.msgs << "]";
      }
    }
  }
  os << "]";
  os << ",\"hot_keys\":[";
  for (std::size_t n = 0; n < run.hot_keys.size(); ++n) {
    if (n > 0) os << ",";
    os << "{\"key\":\"" << json_escape(run.hot_keys[n].key)
       << "\",\"count\":" << run.hot_keys[n].count
       << ",\"error\":" << run.hot_keys[n].error << "}";
  }
  os << "],\"hot_key_samples\":" << run.hot_key_samples;
  os << ",\"partition_records\":[";
  for (std::size_t n = 0; n < run.partition_records.size(); ++n) {
    if (n > 0) os << ",";
    os << run.partition_records[n];
  }
  os << "],\"skew\":" << json_double(run.skew);
  os << ",\"static_bytes\":" << run.static_bytes;
  os << ",\"static_bytes_per_task\":[";
  for (std::size_t n = 0; n < run.static_bytes_per_task.size(); ++n) {
    if (n > 0) os << ",";
    os << run.static_bytes_per_task[n];
  }
  os << "]";
  os << ",\"spill\":{\"bytes_written\":" << run.spill_bytes_written
     << ",\"bytes_read\":" << run.spill_bytes_read
     << ",\"bytes_dropped\":" << run.spill_bytes_dropped
     << ",\"runs\":" << run.spill_runs
     << ",\"arena_hwm\":" << run.arena_hwm << "}}\n";
}

}  // namespace

void TelemetryRecorder::export_jsonl(std::ostream& os) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const RunTelemetry& run : runs_) {
    for (const IterTelemetry& t : run.iters) export_iter(os, run, t);
    export_run(os, run);
  }
}

bool TelemetryRecorder::export_to_file(const std::string& path) const {
  std::ofstream os(path, std::ios::binary);
  if (!os) return false;
  export_jsonl(os);
  return os.good();
}

}  // namespace imr
