#include "metrics/metrics.h"

#include <algorithm>
#include <sstream>

#include "common/strings.h"

namespace imr {

const char* traffic_category_name(TrafficCategory c) {
  switch (c) {
    case TrafficCategory::kShuffle: return "shuffle";
    case TrafficCategory::kReduceToMap: return "reduce_to_map";
    case TrafficCategory::kBroadcast: return "broadcast";
    case TrafficCategory::kDfsRead: return "dfs_read";
    case TrafficCategory::kDfsWrite: return "dfs_write";
    case TrafficCategory::kCheckpoint: return "checkpoint";
    case TrafficCategory::kControl: return "control";
    case TrafficCategory::kShuffleAgg: return "shuffle_agg";
    case TrafficCategory::kSpill: return "spill";
  }
  return "?";
}

const char* traffic_inflight_counter_name(TrafficCategory c) {
  switch (c) {
    case TrafficCategory::kShuffle: return "inflight_shuffle";
    case TrafficCategory::kReduceToMap: return "inflight_reduce_to_map";
    case TrafficCategory::kBroadcast: return "inflight_broadcast";
    case TrafficCategory::kDfsRead: return "inflight_dfs_read";
    case TrafficCategory::kDfsWrite: return "inflight_dfs_write";
    case TrafficCategory::kCheckpoint: return "inflight_checkpoint";
    case TrafficCategory::kControl: return "inflight_control";
    case TrafficCategory::kShuffleAgg: return "inflight_shuffle_agg";
    case TrafficCategory::kSpill: return "inflight_spill";
  }
  return "inflight_?";
}

const char* time_category_name(TimeCategory c) {
  switch (c) {
    case TimeCategory::kJobInit: return "job_init";
    case TimeCategory::kTaskInit: return "task_init";
    case TimeCategory::kDfsIo: return "dfs_io";
    case TimeCategory::kNetwork: return "network";
    case TimeCategory::kCompute: return "compute";
    case TimeCategory::kSort: return "sort";
  }
  return "?";
}

int64_t Histogram::count() const {
  int64_t total = 0;
  for (const auto& b : buckets_) total += b.load(std::memory_order_relaxed);
  return total;
}

double Histogram::mean() const {
  int64_t n = count();
  if (n == 0) return 0;
  return static_cast<double>(sum_.load(std::memory_order_relaxed)) /
         static_cast<double>(n);
}

double Histogram::percentile(double p) const {
  int64_t counts[kNumBuckets];
  int64_t total = 0;
  for (int b = 0; b < kNumBuckets; ++b) {
    counts[b] = buckets_[b].load(std::memory_order_relaxed);
    total += counts[b];
  }
  if (total == 0) return 0;
  p = std::min(100.0, std::max(0.0, p));
  // Rank of the sample that the percentile falls on (1-based, ceil — the
  // p-th percentile is the smallest value with >= p% of samples at or
  // below it).
  int64_t target = static_cast<int64_t>(p / 100.0 * static_cast<double>(total));
  if (target < 1) target = 1;
  int64_t cum = 0;
  for (int b = 0; b < kNumBuckets; ++b) {
    if (counts[b] == 0) continue;
    if (cum + counts[b] >= target) {
      if (b == 0) return 0;
      // Linear interpolation within [2^(b-1), 2^b): the bucket's samples are
      // taken as evenly spread, sample j of n sitting at fraction
      // (j - 0.5) / n of the bucket width. A single-sample bucket therefore
      // reports the midpoint; multi-sample buckets spread across the range.
      double lower = static_cast<double>(bucket_lower(b));
      double upper = 2.0 * lower;
      double frac = (static_cast<double>(target - cum) - 0.5) /
                    static_cast<double>(counts[b]);
      if (frac < 0) frac = 0;
      return lower + (upper - lower) * frac;
    }
    cum += counts[b];
  }
  return 2.0 * static_cast<double>(bucket_lower(kNumBuckets - 1));
}

void Histogram::merge(const Histogram& other) {
  for (int b = 0; b < kNumBuckets; ++b) {
    int64_t n = other.buckets_[b].load(std::memory_order_relaxed);
    if (n != 0) buckets_[b].fetch_add(n, std::memory_order_relaxed);
  }
  sum_.fetch_add(other.sum_.load(std::memory_order_relaxed),
                 std::memory_order_relaxed);
}

void Histogram::reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
}

std::size_t thread_stripe(std::size_t n) {
  // Threads are numbered in the order they first ask, not by a hash of
  // their ids: glibc recycles thread stacks, so the threads alive at once
  // often hash onto a few stripes (8 concurrent threads, 4 of 8 stripes).
  static std::atomic<std::size_t> next{0};
  static const thread_local std::size_t number =
      next.fetch_add(1, std::memory_order_relaxed);
  return number % n;
}

int64_t TrafficMatrixSnapshot::category_bytes(TrafficCategory c) const {
  int64_t total = 0;
  for (int f = -1; f < workers_; ++f) {
    for (int t = -1; t < workers_; ++t) total += cell(f, t, c).bytes;
  }
  return total;
}

int64_t TrafficMatrixSnapshot::category_remote_bytes(TrafficCategory c) const {
  int64_t total = 0;
  for (int f = -1; f < workers_; ++f) {
    for (int t = -1; t < workers_; ++t) {
      if (f != t) total += cell(f, t, c).bytes;
    }
  }
  return total;
}

int64_t TrafficMatrixSnapshot::category_msgs(TrafficCategory c) const {
  int64_t total = 0;
  for (int f = -1; f < workers_; ++f) {
    for (int t = -1; t < workers_; ++t) total += cell(f, t, c).msgs;
  }
  return total;
}

MetricsRegistry::MetricsRegistry(int num_workers)
    : workers_(std::max(0, num_workers)),
      // Four 16-byte counters to a 64-byte line.
      stripe_cells_((TrafficMatrixSnapshot::cell_count(workers_) + 3) / 4 * 4),
      traffic_(stripe_cells_ * kTrafficStripes) {}

void MetricsRegistry::add_traffic(int from_worker, int to_worker,
                                  TrafficCategory c, std::size_t bytes,
                                  bool count_msg) {
  TrafficCounter& t =
      traffic_[thread_stripe(kTrafficStripes) * stripe_cells_ +
               TrafficMatrixSnapshot::index(workers_, from_worker, to_worker,
                                            c)];
  t.bytes.fetch_add(static_cast<int64_t>(bytes), std::memory_order_relaxed);
  if (count_msg) t.msgs.fetch_add(1, std::memory_order_relaxed);
}

TrafficMatrixSnapshot MetricsRegistry::traffic_matrix() const {
  TrafficMatrixSnapshot snap(workers_);
  for (std::size_t s = 0; s < kTrafficStripes; ++s) {
    for (std::size_t i = 0; i < snap.cells_.size(); ++i) {
      const TrafficCounter& t = traffic_[s * stripe_cells_ + i];
      snap.cells_[i].bytes += t.bytes.load(std::memory_order_relaxed);
      snap.cells_[i].msgs += t.msgs.load(std::memory_order_relaxed);
    }
  }
  return snap;
}

int64_t MetricsRegistry::total_remote_bytes() const {
  const TrafficMatrixSnapshot m = traffic_matrix();
  int64_t total = 0;
  for (int c = 0; c < kNumTrafficCategories; ++c) {
    total += m.category_remote_bytes(static_cast<TrafficCategory>(c));
  }
  return total;
}

int64_t MetricsRegistry::total_bytes() const {
  const TrafficMatrixSnapshot m = traffic_matrix();
  int64_t total = 0;
  for (int c = 0; c < kNumTrafficCategories; ++c) {
    total += m.category_bytes(static_cast<TrafficCategory>(c));
  }
  return total;
}

void MetricsRegistry::inc(const std::string& name, int64_t by) {
  NamedShard& shard = named_shards_[thread_stripe(kNamedShards)];
  std::lock_guard<std::mutex> lock(shard.mu);
  shard.counts[name] += by;
}

int64_t MetricsRegistry::count(const std::string& name) const {
  int64_t total = 0;
  for (const NamedShard& shard : named_shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.counts.find(name);
    if (it != shard.counts.end()) total += it->second;
  }
  return total;
}

std::map<std::string, int64_t> MetricsRegistry::named_counters() const {
  std::map<std::string, int64_t> merged;
  for (const NamedShard& shard : named_shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    for (const auto& [name, v] : shard.counts) merged[name] += v;
  }
  return merged;
}

void MetricsRegistry::gauge_max(const std::string& name, int64_t value) {
  std::lock_guard<std::mutex> lock(gauge_mu_);
  int64_t& slot = gauges_[name];
  if (value > slot) slot = value;
}

int64_t MetricsRegistry::gauge(const std::string& name) const {
  std::lock_guard<std::mutex> lock(gauge_mu_);
  auto it = gauges_.find(name);
  return it == gauges_.end() ? 0 : it->second;
}

std::map<std::string, int64_t> MetricsRegistry::gauges() const {
  std::lock_guard<std::mutex> lock(gauge_mu_);
  return gauges_;
}

Histogram& MetricsRegistry::histogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(hist_mu_);
  auto& slot = hists_[name];
  if (!slot) slot = std::make_unique<Histogram>();
  return *slot;
}

std::map<std::string, const Histogram*> MetricsRegistry::histograms() const {
  std::lock_guard<std::mutex> lock(hist_mu_);
  std::map<std::string, const Histogram*> out;
  for (const auto& [name, h] : hists_) out[name] = h.get();
  return out;
}

std::string MetricsRegistry::report() const {
  std::ostringstream os;
  os << "traffic (bytes total / remote / transfers):\n";
  const TrafficMatrixSnapshot m = traffic_matrix();
  for (int i = 0; i < kNumTrafficCategories; ++i) {
    const auto c = static_cast<TrafficCategory>(i);
    const int64_t transfers = m.category_msgs(c);
    if (transfers == 0) continue;
    os << "  " << traffic_category_name(c) << ": "
       << human_bytes(static_cast<std::size_t>(m.category_bytes(c))) << " / "
       << human_bytes(static_cast<std::size_t>(m.category_remote_bytes(c)))
       << " / " << transfers << "\n";
  }
  os << "time (simulated/measured ms):\n";
  for (int i = 0; i < kNumTimeCategories; ++i) {
    int64_t ns = times_[i].load();
    if (ns == 0) continue;
    os << "  " << time_category_name(static_cast<TimeCategory>(i)) << ": "
       << fmt_double(static_cast<double>(ns) / 1e6, 2) << "\n";
  }
  std::map<std::string, int64_t> named = named_counters();
  if (!named.empty()) {
    os << "counters:\n";
    for (const auto& [name, v] : named) {
      os << "  " << name << ": " << v << "\n";
    }
  }
  {
    std::lock_guard<std::mutex> lock(gauge_mu_);
    if (!gauges_.empty()) {
      os << "gauges (high-water marks):\n";
      for (const auto& [name, v] : gauges_) {
        os << "  " << name << ": " << v << "\n";
      }
    }
  }
  {
    std::lock_guard<std::mutex> lock(hist_mu_);
    bool any = false;
    for (const auto& [name, h] : hists_) {
      if (h->count() == 0) continue;
      if (!any) {
        os << "histograms (count / p50 / p90 / p99 / mean):\n";
        any = true;
      }
      os << "  " << name << ": " << h->count() << " / "
         << fmt_double(h->percentile(50), 1) << " / "
         << fmt_double(h->percentile(90), 1) << " / "
         << fmt_double(h->percentile(99), 1) << " / "
         << fmt_double(h->mean(), 1) << "\n";
    }
  }
  return os.str();
}

void MetricsRegistry::reset() {
  for (TrafficCounter& t : traffic_) {
    t.bytes.store(0);
    t.msgs.store(0);
  }
  for (auto& t : times_) t.store(0);
  for (NamedShard& shard : named_shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.counts.clear();
  }
  {
    std::lock_guard<std::mutex> lock(gauge_mu_);
    gauges_.clear();
  }
  // Histogram ENTRIES survive a reset (hot call sites cache the pointers);
  // only the recorded contents are cleared.
  std::lock_guard<std::mutex> lock(hist_mu_);
  for (auto& [name, h] : hists_) h->reset();
}

int64_t RunReport::total_comm_bytes() const {
  int64_t total = 0;
  for (int64_t b : remote_bytes) total += b;
  return total;
}

void RunReport::capture(const MetricsRegistry& m) {
  const TrafficMatrixSnapshot matrix = m.traffic_matrix();
  for (int c = 0; c < kNumTrafficCategories; ++c) {
    const auto cat = static_cast<TrafficCategory>(c);
    bytes[cat] = matrix.category_bytes(cat);
    remote_bytes[cat] = matrix.category_remote_bytes(cat);
  }
  for (int c = 0; c < kNumTimeCategories; ++c) {
    time[static_cast<TimeCategory>(c)] = m.time(static_cast<TimeCategory>(c));
  }
}

void RunReport::subtract(const RunReport& base) {
  for (std::size_t c = 0; c < bytes.size(); ++c) {
    bytes[c] -= base.bytes[c];
    remote_bytes[c] -= base.remote_bytes[c];
  }
  for (std::size_t c = 0; c < time.size(); ++c) time[c] -= base.time[c];
}

}  // namespace imr
