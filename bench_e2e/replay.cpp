// Per-layer host-cost replay: one finished job's own static partitions, final
// state and one iteration's map output pushed through each layer's public
// entry point in the driver thread. Each stage is timed with steady_clock
// over kReps repetitions on fresh copies (copying is untimed) and the median
// is reported per unit of work.
#include <algorithm>
#include <chrono>
#include <functional>

#include "bench_e2e.h"
#include "common/arena.h"
#include "common/hash.h"
#include "dfs/spill.h"
#include "imapreduce/static_store.h"
#include "mapreduce/engine.h"
#include "mapreduce/shuffle_util.h"
#include "net/fabric.h"

namespace imr::e2e {
namespace {

constexpr int kReps = 5;
constexpr int kMessagesPerRep = 200;
// The spill-merge replay splits the reduce input into this many sorted runs
// plus an in-memory tail, about what a quarter-footprint budget produces.
constexpr int kSpillRuns = 4;

double median_of(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// Median host nanoseconds of `body` over kReps runs, each after an untimed
// `prep`.
double time_ns(const std::function<void()>& prep,
               const std::function<void()>& body) {
  std::vector<double> ns;
  for (int r = 0; r < kReps; ++r) {
    prep();
    const auto t0 = std::chrono::steady_clock::now();
    body();
    ns.push_back(std::chrono::duration<double, std::nano>(
                     std::chrono::steady_clock::now() - t0)
                     .count());
  }
  return median_of(std::move(ns));
}

double per_unit(double ns, std::size_t units) {
  return units > 0 ? ns / static_cast<double>(units) : 0.0;
}

// Publishes a value computed by a timed loop so the loop stays observable.
void keep(int64_t v) {
  static std::atomic<int64_t> sink{0};
  sink.fetch_add(v, std::memory_order_relaxed);
}

class ReplayEmitter : public IterEmitter {
 public:
  explicit ReplayEmitter(KVVec& out) : out_(out) {}
  void emit(Bytes key, Bytes value) override {
    out_.emplace_back(std::move(key), std::move(value));
  }
  void side(Bytes /*key*/, Bytes /*value*/) override {}

 private:
  KVVec& out_;
};

struct Group {
  Bytes key;
  std::vector<Bytes> values;
};

std::vector<Group> groups_of(const KVVec& sorted) {
  std::vector<Group> groups;
  GroupCursor cursor(sorted);
  GroupValues values;
  while (cursor.next()) groups.push_back({cursor.key(), values.view(cursor)});
  return groups;
}

KVVec sorted_copy(const KVVec& records) {
  KVVec out = records;
  sort_records(out, /*sort_values=*/true);
  return out;
}

}  // namespace

ReplayCosts replay_layers(Cluster& cluster, const IterJobConf& conf,
                          std::size_t batch_bytes, bool merge) {
  ReplayCosts c;
  MiniDfs& dfs = cluster.dfs();
  const PhaseConf& ph = conf.phases.at(0);
  const bool one2all = ph.mapping == Mapping::kOne2All;
  const MiniDfs::PartitionFn part_of = [&conf](BytesView key) {
    return conf.partitioner
               ? conf.partitioner->partition(key)
               : partition_of(key, static_cast<uint32_t>(kTasks));
  };

  // --- dfs: partition load and file write ---
  std::vector<KVVec> statics(kTasks);
  const double read_ns = time_ns([] {}, [&] {
    statics[0] = dfs.read_partition(ph.static_path, 0, part_of, 0, nullptr);
  });
  const std::size_t static_bytes = wire_size(statics[0]);
  c.read_partition_ns_per_byte = per_unit(read_ns, static_bytes);
  for (uint32_t t = 1; t < kTasks; ++t) {
    statics[t] = dfs.read_partition(ph.static_path, t, part_of, 0, nullptr);
  }
  const std::string scratch_path = "replay/write";
  KVVec scratch;
  c.write_ns_per_byte = per_unit(
      time_ns(
          [&] {
            dfs.remove_prefix(scratch_path);
            scratch = statics[0];
          },
          [&] { dfs.write_file(scratch_path, std::move(scratch), 0, nullptr); }),
      static_bytes);
  dfs.remove_prefix(scratch_path);

  // --- imapreduce: static join index build and probe ---
  std::vector<StaticStore> stores(kTasks);
  KVVec build_input;
  c.join_build_ns_per_rec = per_unit(
      time_ns([&] { build_input = statics[0]; },
              [&] {
                sort_records(build_input, /*sort_values=*/false);
                stores[0].build(std::move(build_input));
              }),
      statics[0].size());
  for (int t = 1; t < kTasks; ++t) {
    KVVec s = statics[t];
    sort_records(s, /*sort_values=*/false);
    stores[t].build(std::move(s));
  }

  // The job's final state, one part file per task, is the replayed map input.
  const auto parts = resolve_input_paths(dfs, conf.output_path);
  std::vector<KVVec> states;
  for (const auto& part : parts) states.push_back(dfs.read_all(part, -1, nullptr));
  states.resize(kTasks);
  int64_t hits = 0;
  if (!one2all) {
    c.join_probe_ns = per_unit(
        time_ns([] {},
                [&] {
                  for (const KV& kv : states[0]) {
                    hits += stores[0].find(kv.key) != nullptr ? 1 : 0;
                  }
                }),
        states[0].size());
  }

  // --- algorithms: the map UDF over every task's input ---
  std::unique_ptr<IterMapper> mapper = ph.mapper();
  mapper->configure(conf.params);
  std::vector<KVVec> map_out(kTasks);
  KVVec all_states;  // one2all: every centroid, key-sorted
  for (const KVVec& s : states) {
    all_states.insert(all_states.end(), s.begin(), s.end());
  }
  sort_records(all_states, /*sort_values=*/false);
  std::vector<std::vector<const Bytes*>> joined(kTasks);
  std::size_t map_units = 0;
  static const Bytes kEmpty;
  for (int t = 0; t < kTasks; ++t) {
    if (one2all) {
      map_units += stores[t].records().size();
      continue;
    }
    for (const KV& kv : states[t]) {
      const Bytes* sv = stores[t].find(kv.key);
      joined[t].push_back(sv != nullptr ? sv : &kEmpty);
    }
    map_units += states[t].size();
  }
  c.map_udf_ns_per_rec = per_unit(
      time_ns(
          [&] {
            for (KVVec& out : map_out) out = KVVec{};
          },
          [&] {
            for (int t = 0; t < kTasks; ++t) {
              ReplayEmitter emitter(map_out[t]);
              if (one2all) {
                for (const KV& kv : stores[t].records()) {
                  mapper->map_all(kv.key, kv.value, all_states, emitter);
                }
              } else {
                const KVVec& in = states[t];
                for (std::size_t i = 0; i < in.size(); ++i) {
                  mapper->map(in[i].key, in[i].value, *joined[t][i], emitter);
                }
              }
              mapper->flush(emitter);
            }
          }),
      map_units);

  // Partition 0's share of each map task's output, in task order: the
  // shuffle buffer one map task holds for reduce 0.
  std::vector<KVVec> to_reduce0(kTasks);
  for (int t = 0; t < kTasks; ++t) {
    for (const KV& kv : map_out[t]) {
      if (part_of(kv.key) == 0) to_reduce0[t].push_back(kv);
    }
  }

  // --- mapreduce: sort, combine, group, merge ---
  RecordArena arena;
  KVVec reduce_input;
  if (ph.combiner) {
    // Map-side: the combiner sorts and folds each partition buffer, and the
    // reduce sees only the combined records.
    std::unique_ptr<IterReducer> combiner = ph.combiner();
    combiner->configure(conf.params);
    const CombineFn fn = [&combiner](const Bytes& key,
                                     const std::vector<Bytes>& values,
                                     KVVec& out) {
      ReplayEmitter emitter(out);
      combiner->reduce(key, values, emitter);
    };
    KVVec buf;
    c.sort_ns_per_rec = per_unit(
        time_ns([&] { buf = to_reduce0[0]; },
                [&] { sort_records(buf, /*sort_values=*/true, arena); }),
        to_reduce0[0].size());
    c.combine_ns_per_rec = per_unit(
        time_ns([&] { buf = sorted_copy(to_reduce0[0]); },
                [&] { combine_sorted(buf, fn); }),
        to_reduce0[0].size());
    for (const KVVec& part : to_reduce0) {
      KVVec combined = sorted_copy(part);
      combine_sorted(combined, fn);
      reduce_input.insert(reduce_input.end(), combined.begin(),
                          combined.end());
    }
  } else {
    for (const KVVec& part : to_reduce0) {
      reduce_input.insert(reduce_input.end(), part.begin(), part.end());
    }
  }

  // A budgeted reduce sorts each over-budget prefix as its own run: split
  // the buffer in arrival order into the runs plus the in-memory tail.
  std::vector<KVVec> chunks;
  if (merge) {
    const std::size_t chunk = reduce_input.size() / (kSpillRuns + 1) + 1;
    for (std::size_t off = 0; off < reduce_input.size(); off += chunk) {
      const auto begin = reduce_input.begin() + static_cast<std::ptrdiff_t>(off);
      const auto end = reduce_input.begin() +
                       static_cast<std::ptrdiff_t>(
                           std::min(reduce_input.size(), off + chunk));
      chunks.emplace_back(begin, end);
    }
  } else if (!ph.combiner) {
    chunks.push_back(reduce_input);
  }
  if (!chunks.empty()) {
    std::vector<KVVec> bufs;
    c.sort_ns_per_rec = per_unit(
        time_ns([&] { bufs = chunks; },
                [&] {
                  for (KVVec& b : bufs) {
                    sort_records(b, /*sort_values=*/true, arena);
                  }
                }),
        reduce_input.size());
  }

  const KVVec sorted_input = sorted_copy(reduce_input);
  KVVec buf;
  int64_t grouped = 0;
  c.group_ns_per_rec = per_unit(
      time_ns([&] { buf = sorted_input; },
              [&] {
                GroupCursor cursor(buf);
                GroupValues values;
                while (cursor.next()) {
                  grouped += static_cast<int64_t>(values.take(buf, cursor).size());
                }
              }),
      sorted_input.size());

  if (merge) {
    std::vector<KVVec> runs;
    for (const KVVec& chunk : chunks) runs.push_back(sorted_copy(chunk));
    SpillSet spills(dfs, cluster.metrics(), "replay/merge", 0);
    std::vector<double> ns;
    for (int r = 0; r < kReps; ++r) {
      for (std::size_t i = 0; i + 1 < runs.size(); ++i) {
        spills.write_run(0, runs[i], nullptr);
      }
      KVVec tail = runs.back();
      const auto t0 = std::chrono::steady_clock::now();
      auto cursors = spills.sources(0, nullptr);
      std::vector<RecordSource*> sources;
      for (const auto& s : cursors) sources.push_back(s.get());
      VecSource tail_source(tail);
      sources.push_back(&tail_source);
      MergeCursor cursor(sources, /*compare_values=*/true);
      KV rec;
      while (cursor.next(rec)) ++grouped;
      ns.push_back(std::chrono::duration<double, std::nano>(
                       std::chrono::steady_clock::now() - t0)
                       .count());
      cursors.clear();
      spills.consume(0);
    }
    c.merge_ns_per_rec = per_unit(median_of(std::move(ns)),
                                  reduce_input.size());
  }

  // --- algorithms: the reduce UDF per key group ---
  std::unique_ptr<IterReducer> reducer = ph.reducer();
  reducer->configure(conf.params);
  std::vector<Group> groups;
  KVVec reduce_out;
  const std::vector<Group> all_groups = groups_of(sorted_input);
  c.reduce_udf_ns_per_group = per_unit(
      time_ns(
          [&] {
            groups = all_groups;
            reduce_out = KVVec{};
            reduce_out.reserve(groups.size());
          },
          [&] {
            ReplayEmitter emitter(reduce_out);
            for (const Group& g : groups) reducer->reduce(g.key, g.values, emitter);
          }),
      all_groups.size());

  // --- net: one workload-sized batch through a standalone fabric ---
  KVVec batch;
  std::size_t bytes = 0;
  for (const KV& kv : sorted_input) {
    if (bytes >= batch_bytes && !batch.empty()) break;
    batch.push_back(kv);
    bytes += kv.wire_size();
  }
  MetricsRegistry net_metrics;
  Fabric fabric(cluster.cost(), net_metrics);
  auto to = fabric.create_endpoint("replay/reduce", kWorkers - 1);
  VClock send_vt, recv_vt;
  c.send_recv_ns_per_msg = per_unit(
      time_ns([] {},
              [&] {
                for (int m = 0; m < kMessagesPerRep; ++m) {
                  NetMessage msg;
                  msg.set_records(std::move(batch));
                  fabric.send(0, send_vt, *to, std::move(msg),
                              TrafficCategory::kShuffle);
                  batch = to->receive(recv_vt)->take_records();
                }
              }),
      kMessagesPerRep);
  to->close();
  fabric.remove_endpoint(to->name());
  keep(hits + grouped);
  return c;
}

}  // namespace imr::e2e
