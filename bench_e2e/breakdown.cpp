// The traced job's per-layer breakdown: registry snapshot, span self times
// and the per-layer metric table.
#include <algorithm>
#include <cstring>

#include "bench_e2e.h"
#include "metrics/trace.h"

namespace imr::e2e {
namespace {

// Linear-interpolated percentile, p in [0, 100].
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

// Per-iteration virtual durations: deltas of wall_ms_end after iteration 1
// (whose end also carries the one-time init).
std::vector<double> iteration_ms(const RunReport& report) {
  std::vector<double> v;
  for (std::size_t i = 1; i < report.iterations.size(); ++i) {
    v.push_back(report.iterations[i].wall_ms_end -
                report.iterations[i - 1].wall_ms_end);
  }
  return v;
}

}  // namespace

Counters::Counters(MetricsRegistry& m) {
  remote_bytes = m.total_remote_bytes();
  map_records = m.count("imr_map_input_records");
  for (int c = 0; c < kNumTrafficCategories; ++c) {
    const auto cat = static_cast<TrafficCategory>(c);
    bytes[c] = m.traffic_bytes(cat);
    remote[c] = m.traffic_remote_bytes(cat);
    msgs[c] = m.traffic_transfers(cat);
  }
  for (int c = 0; c < kNumTimeCategories; ++c) {
    time_s[c] = sim_to_sec(m.time(static_cast<TimeCategory>(c)));
  }
  spill_written = m.count("imr_spill_bytes_written");
  spill_read = m.count("imr_spill_bytes_read");
  spill_runs = m.count("imr_spill_runs_written");
  reduce_merges = m.count("imr_reduce_merges");
  arena_hwm = m.gauge("imr_arena_hwm");
  batch_bytes_p50 = m.histogram("fabric_batch_bytes").percentile(50);
  const Histogram& wait = m.histogram("endpoint_queue_wait_ns");
  queue_wait_ns_p50 = wait.percentile(50);
  queue_wait_ns_p99 = wait.percentile(99);
}

std::size_t Counters::mean_batch_bytes() const {
  int64_t total = 0, count = 0;
  for (TrafficCategory c :
       {TrafficCategory::kShuffle, TrafficCategory::kShuffleAgg,
        TrafficCategory::kReduceToMap, TrafficCategory::kBroadcast}) {
    total += cat_bytes(c);
    count += cat_msgs(c);
  }
  return count > 0 ? static_cast<std::size_t>(total / count) : 0;
}

SpanTimes span_self_times() {
  SpanTimes out;
  struct Open {
    const char* name;
    int64_t begin_ns;
    int64_t child_ns;
  };
  for (const auto& track : TraceRecorder::instance().snapshot()) {
    out.dropped += track.dropped;
    std::vector<Open> stack;
    for (const TraceEvent& e : track.events) {
      if (e.type == TraceEventType::kSpanBegin) {
        stack.push_back({e.name, e.ts_ns, 0});
        continue;
      }
      if (e.type != TraceEventType::kSpanEnd) continue;
      if (stack.empty() || std::strcmp(stack.back().name, e.name) != 0) {
        ++out.unmatched;
        continue;
      }
      const Open open = stack.back();
      stack.pop_back();
      const int64_t duration = e.ts_ns - open.begin_ns;
      out.self_ns[open.name] += duration - open.child_ns;
      if (!stack.empty()) stack.back().child_ns += duration;
    }
    out.unmatched += static_cast<int64_t>(stack.size());
  }
  return out;
}

std::vector<Metric> layer_metrics(const Workload& w, const Job& traced,
                                  const UnitTotals& units,
                                  const ReplayCosts& rc,
                                  double untraced_wall_s,
                                  double untraced_cpu_s) {
  using TC = TrafficCategory;
  const Counters& k = *traced.counters;
  auto self_ms = [&](const char* name) {
    auto it = traced.spans.self_ns.find(name);
    return it == traced.spans.self_ns.end()
               ? 0.0
               : static_cast<double>(it->second) / 1e6;
  };
  auto d = [](int64_t v) { return static_cast<double>(v); };
  const std::vector<double> iters = iteration_ms(traced.report);
  const int64_t shuffled =
      k.cat_bytes(TC::kShuffle) + k.cat_bytes(TC::kShuffleAgg);
  const int64_t shuffled_remote =
      k.cat_remote(TC::kShuffle) + k.cat_remote(TC::kShuffleAgg);
  const Partitioner& part = *w.partitioner();

  // Host work the replayed layers explain, at the run's exact unit counts
  // (UDF calls from the counting job, bytes and messages from the traced
  // job's registry). Spill reads are part of the merge replay; reduce input
  // that went through the merge skips the in-memory grouping.
  const PhaseConf& ph = traced.conf.phases.at(0);
  const bool one2all = ph.mapping == Mapping::kOne2All;
  const double merged_share =
      traced.report.iterations_run > 0
          ? std::min(1.0, d(k.reduce_merges) /
                              (kTasks * traced.report.iterations_run))
          : 0.0;
  const int64_t static_records = static_cast<int64_t>(
      traced.cluster->dfs().file_records(ph.static_path));
  const int64_t msgs = k.cat_msgs(TC::kShuffle) + k.cat_msgs(TC::kShuffleAgg) +
                       k.cat_msgs(TC::kReduceToMap) +
                       k.cat_msgs(TC::kBroadcast) + k.cat_msgs(TC::kControl);
  const double replicas = std::min(traced.cluster->cost().dfs_replication,
                                   traced.cluster->num_workers());
  const double explained_ns =
      rc.join_build_ns_per_rec * d(static_records) +
      rc.join_probe_ns * (one2all ? 0.0 : d(units.map_calls)) +
      rc.map_udf_ns_per_rec * d(units.map_calls) +
      rc.reduce_udf_ns_per_group * d(units.reduce_groups) +
      rc.sort_ns_per_rec * d(units.reduce_values + units.combine_values) +
      rc.group_ns_per_rec * d(units.reduce_values) * (1.0 - merged_share) +
      rc.combine_ns_per_rec * d(units.combine_values) +
      rc.merge_ns_per_rec * d(units.reduce_values) * merged_share +
      rc.send_recv_ns_per_msg * d(msgs) +
      rc.read_partition_ns_per_byte * d(k.cat_bytes(TC::kDfsRead)) +
      rc.write_ns_per_byte *
          (d(k.cat_bytes(TC::kDfsWrite)) / replicas + d(k.spill_written));

  return {
      {"imapreduce.map_iter.self_virtual_ms", "ms",
       self_ms("map_iter") + self_ms("map_iter_frontier")},
      {"imapreduce.reduce_iter.self_virtual_ms", "ms", self_ms("reduce_iter")},
      {"imapreduce.shuffle_flush.virtual_ms", "ms", self_ms("shuffle_flush")},
      {"imapreduce.iter_virtual_ms.p50", "ms", percentile(iters, 50)},
      {"imapreduce.iter_virtual_ms.p95", "ms", percentile(iters, 95)},
      {"imapreduce.control.bytes", "bytes", d(k.cat_bytes(TC::kControl))},
      {"imapreduce.control.msgs", "msgs", d(k.cat_msgs(TC::kControl))},
      {"imapreduce.join.build_virtual_ms", "ms", self_ms("join_index_build")},
      {"imapreduce.join.build_ns_per_rec", "ns/rec", rc.join_build_ns_per_rec},
      {"imapreduce.join.probe_ns", "ns", rc.join_probe_ns},
      {"algorithms.map_udf.ns_per_rec", "ns/rec", rc.map_udf_ns_per_rec},
      {"algorithms.reduce_udf.ns_per_group", "ns/group",
       rc.reduce_udf_ns_per_group},
      {"algorithms.compute_virtual_s", "s", k.time(TimeCategory::kCompute)},
      {"mapreduce.sort.ns_per_rec", "ns/rec", rc.sort_ns_per_rec},
      {"mapreduce.group.ns_per_rec", "ns/rec", rc.group_ns_per_rec},
      {"mapreduce.sort.self_virtual_ms", "ms", self_ms("sort")},
      {"mapreduce.sort_virtual_s", "s", k.time(TimeCategory::kSort)},
      {"mapreduce.combine.ns_per_rec", "ns/rec", rc.combine_ns_per_rec},
      {"mapreduce.combine.self_virtual_ms", "ms", self_ms("combine")},
      {"mapreduce.merge.ns_per_rec", "ns/rec", rc.merge_ns_per_rec},
      {"net.shuffle.bytes", "bytes", d(k.cat_bytes(TC::kShuffle))},
      {"net.shuffle.msgs", "msgs", d(k.cat_msgs(TC::kShuffle))},
      {"net.shuffle_agg.bytes", "bytes", d(k.cat_bytes(TC::kShuffleAgg))},
      {"net.shuffle_agg.msgs", "msgs", d(k.cat_msgs(TC::kShuffleAgg))},
      {"net.reduce_to_map.bytes", "bytes", d(k.cat_bytes(TC::kReduceToMap))},
      {"net.reduce_to_map.msgs", "msgs", d(k.cat_msgs(TC::kReduceToMap))},
      {"net.broadcast.bytes", "bytes", d(k.cat_bytes(TC::kBroadcast))},
      {"net.broadcast.msgs", "msgs", d(k.cat_msgs(TC::kBroadcast))},
      {"net.batch_bytes.p50", "bytes", k.batch_bytes_p50},
      {"net.queue_wait_virtual_us.p50", "us", k.queue_wait_ns_p50 / 1e3},
      {"net.queue_wait_virtual_us.p99", "us", k.queue_wait_ns_p99 / 1e3},
      {"net.network_virtual_s", "s", k.time(TimeCategory::kNetwork)},
      {"net.payload_deep_copies", "count", d(traced.deep_copies)},
      {"net.send_recv.ns_per_msg", "ns/msg", rc.send_recv_ns_per_msg},
      {"graph.partition.locality", "share",
       shuffled > 0 ? 1.0 - d(shuffled_remote) / d(shuffled) : 0.0},
      {"graph.partition.balance", "ratio",
       balance_factor(partition_sizes(w.graph(), part))},
      {"graph.partition.edge_cut", "edges", d(edge_cut(w.graph(), part))},
      {"dfs.read.bytes", "bytes", d(k.cat_bytes(TC::kDfsRead))},
      {"dfs.write.bytes", "bytes", d(k.cat_bytes(TC::kDfsWrite))},
      {"dfs.io_virtual_s", "s", k.time(TimeCategory::kDfsIo)},
      {"dfs.read_partition.ns_per_byte", "ns/byte",
       rc.read_partition_ns_per_byte},
      {"dfs.write.ns_per_byte", "ns/byte", rc.write_ns_per_byte},
      {"dfs.spill.bytes_written", "bytes", d(k.spill_written)},
      {"dfs.spill.bytes_read", "bytes", d(k.spill_read)},
      {"dfs.spill.runs_written", "runs", d(k.spill_runs)},
      {"dfs.spill_write.self_virtual_ms", "ms", self_ms("spill_write")},
      {"common.arena_hwm_bytes", "bytes", d(k.arena_hwm)},
      {"engine.unattributed_cpu_share", "share",
       untraced_cpu_s > 0 ? 1.0 - explained_ns / (untraced_cpu_s * 1e9)
                          : 0.0},
      {"metrics.trace_overhead", "ratio",
       untraced_wall_s > 0 ? traced.wall_s / untraced_wall_s : 0.0},
      {"metrics.trace_dropped_events", "count", d(traced.spans.dropped)},
  };
}

}  // namespace imr::e2e
