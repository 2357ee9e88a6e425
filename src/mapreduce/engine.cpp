#include "mapreduce/engine.h"

#include <algorithm>
#include <map>
#include <thread>

#include "cluster/task_context.h"
#include "common/hash.h"
#include "common/log.h"
#include "common/strings.h"
#include "mapreduce/reduce_input.h"
#include "mapreduce/shuffle_util.h"

namespace imr {

namespace {

// Map-side emitter: partitions output by key hash into one buffer per
// reduce task.
class PartitionedEmitter : public Emitter {
 public:
  explicit PartitionedEmitter(int num_partitions)
      : buffers_(static_cast<std::size_t>(num_partitions)) {}

  void emit(Bytes key, Bytes value) override {
    uint32_t p = partition_of(key, static_cast<uint32_t>(buffers_.size()));
    buffers_[p].emplace_back(std::move(key), std::move(value));
    ++emitted_;
  }

  std::vector<KVVec>& buffers() { return buffers_; }
  int64_t emitted() const { return emitted_; }

 private:
  std::vector<KVVec> buffers_;
  int64_t emitted_ = 0;
};

// One map task may process several splits (CombineFileInputFormat-style),
// so that inputs with many small part files still fit the slot limit.
struct MapTaskSpec {
  std::vector<InputSplit> splits;
  const InputSpec* input = nullptr;
  int worker = -1;

  std::vector<int> preferred_workers() const {
    return splits.empty() ? std::vector<int>{} : splits[0].preferred_workers;
  }
};

// Greedy locality-aware placement: preferred worker with a free slot first,
// then the least-loaded worker (Hadoop's scheduler gets most maps local this
// way because replication spreads blocks across the cluster).
int place_task(const std::vector<int>& preferred, std::vector<int>& load,
               int slots_per_worker) {
  for (int w : preferred) {
    if (load[static_cast<std::size_t>(w)] < slots_per_worker) {
      return w;
    }
  }
  int best = 0;
  for (int w = 1; w < static_cast<int>(load.size()); ++w) {
    if (load[static_cast<std::size_t>(w)] < load[static_cast<std::size_t>(best)]) {
      best = w;
    }
  }
  return best;
}

}  // namespace

std::vector<std::string> resolve_input_paths(MiniDfs& dfs,
                                             const std::string& path) {
  if (dfs.exists(path)) return {path};
  std::vector<std::string> files = dfs.list(path + "/");
  if (files.empty()) throw DfsError("no input matches " + path);
  std::sort(files.begin(), files.end());
  return files;
}

JobResult MapReduceEngine::run_job(const JobConf& conf, int64_t submit_vt_ns) {
  if (conf.inputs.empty()) throw ConfigError("job has no inputs");
  for (const auto& in : conf.inputs) {
    if (!in.mapper) throw ConfigError("input without mapper: " + in.path);
  }
  if (!conf.reducer) throw ConfigError("job has no reducer");
  if (conf.output_path.empty()) throw ConfigError("job has no output path");
  if (conf.max_task_memory_bytes < 0) {
    throw ConfigError("max_task_memory_bytes must be >= 0 (0 = unlimited)");
  }

  // Per-cluster ordinal: same job on a fresh cluster replays the same DFS
  // paths, keeping path-derived replica placement reproducible.
  const uint64_t job_id = cluster_.next_job_ordinal();
  const std::string job_tag = conf.name + "#" + std::to_string(job_id);
  MiniDfs& dfs = cluster_.dfs();
  const CostModel& cost = cluster_.cost();

  // Each classic job gets its own trace timeline on the submitting thread;
  // the previous binding (e.g. the iterative driver's track) is restored on
  // exit. The "job" span runs submit -> end_vt, bracketing the task spans.
  const bool traced = TraceRecorder::enabled();
  TraceRecorder::TrackHandle prev_track = nullptr;
  if (traced) {
    prev_track = TraceRecorder::instance().begin_thread_track(job_tag, -1);
    TraceRecorder::instance().span_begin("job", submit_vt_ns);
  }

  // --- compute input splits, locality-annotated ---
  struct FileInput {
    std::string file;
    const InputSpec* spec;
    std::size_t bytes;
  };
  std::vector<FileInput> files;
  std::size_t total_bytes = 0;
  std::size_t total_blocks = 0;
  for (const auto& in : conf.inputs) {
    for (const auto& f : resolve_input_paths(dfs, in.path)) {
      std::size_t b = dfs.file_bytes(f);
      files.push_back(FileInput{f, &in, b});
      total_bytes += b;
      total_blocks += std::max<std::size_t>(1, b / cost.dfs_block_size);
    }
  }

  int desired_maps = conf.num_map_tasks;
  if (desired_maps <= 0) {
    desired_maps = static_cast<int>(
        std::min<std::size_t>(total_blocks,
                              static_cast<std::size_t>(cluster_.map_slots())));
  }
  if (desired_maps > cluster_.map_slots()) {
    throw ConfigError(strprintf(
        "%d map tasks exceed %d map slots (persistent-task comparability "
        "requires tasks <= slots)",
        desired_maps, cluster_.map_slots()));
  }
  int num_reduces = conf.num_reduce_tasks > 0 ? conf.num_reduce_tasks
                                              : cluster_.reduce_slots();
  if (num_reduces > cluster_.reduce_slots()) {
    throw ConfigError("reduce tasks exceed reduce slots");
  }

  // Compute per-file splits proportional to size, then pack them into at
  // most `desired_maps` map tasks (splits of different InputSpecs never mix,
  // since they use different mappers).
  struct SplitWithSpec {
    InputSplit split;
    const InputSpec* spec;
  };
  std::vector<SplitWithSpec> all_splits;
  for (const auto& fi : files) {
    int share = 1;
    if (files.size() == 1) {
      share = desired_maps;
    } else if (total_bytes > 0) {
      share = std::max<int>(
          1, static_cast<int>(static_cast<double>(desired_maps) *
                              static_cast<double>(fi.bytes) /
                              static_cast<double>(total_bytes)));
    }
    for (const auto& split : dfs.make_splits(fi.file, share)) {
      all_splits.push_back(SplitWithSpec{split, fi.spec});
    }
  }

  std::vector<MapTaskSpec> map_tasks;
  if (static_cast<int>(all_splits.size()) <= desired_maps) {
    for (auto& s : all_splits) {
      MapTaskSpec t;
      t.splits.push_back(std::move(s.split));
      t.input = s.spec;
      map_tasks.push_back(std::move(t));
    }
  } else {
    // Round-robin the splits of each InputSpec into its proportional share
    // of the task budget.
    std::map<const InputSpec*, std::vector<InputSplit>> by_spec;
    for (auto& s : all_splits) by_spec[s.spec].push_back(std::move(s.split));
    int specs = static_cast<int>(by_spec.size());
    IMR_CHECK_MSG(desired_maps >= specs,
                  "fewer map slots than input sources");
    int budget = desired_maps;
    int remaining_specs = specs;
    for (auto& [spec, splits] : by_spec) {
      int share = std::max(
          1, std::min<int>(budget - (remaining_specs - 1),
                           static_cast<int>(
                               static_cast<double>(desired_maps) *
                               static_cast<double>(splits.size()) /
                               static_cast<double>(all_splits.size()))));
      budget -= share;
      --remaining_specs;
      std::vector<MapTaskSpec> group(static_cast<std::size_t>(share));
      for (std::size_t n = 0; n < splits.size(); ++n) {
        group[n % static_cast<std::size_t>(share)].splits.push_back(
            std::move(splits[n]));
      }
      for (auto& t : group) {
        if (t.splits.empty()) continue;
        t.input = spec;
        map_tasks.push_back(std::move(t));
      }
    }
  }
  IMR_CHECK(static_cast<int>(map_tasks.size()) <= cluster_.map_slots());

  // --- placement ---
  std::vector<int> map_load(static_cast<std::size_t>(cluster_.num_workers()), 0);
  for (auto& t : map_tasks) {
    t.worker = place_task(t.preferred_workers(), map_load,
                          cluster_.config().map_slots_per_worker);
    ++map_load[static_cast<std::size_t>(t.worker)];
  }
  std::vector<int> reduce_worker(static_cast<std::size_t>(num_reduces));
  for (int r = 0; r < num_reduces; ++r) {
    reduce_worker[static_cast<std::size_t>(r)] = r % cluster_.num_workers();
  }

  // --- endpoints for the shuffle ---
  std::vector<std::shared_ptr<Endpoint>> reduce_ep(
      static_cast<std::size_t>(num_reduces));
  for (int r = 0; r < num_reduces; ++r) {
    reduce_ep[static_cast<std::size_t>(r)] = cluster_.fabric().create_endpoint(
        job_tag + "/r" + std::to_string(r),
        reduce_worker[static_cast<std::size_t>(r)]);
  }

  const int64_t base_vt = submit_vt_ns + cost.job_init.count();
  cluster_.metrics().add_time(TimeCategory::kJobInit, cost.job_init);
  cluster_.metrics().inc("jobs_submitted");

  const int M = static_cast<int>(map_tasks.size());

  // Shared result accumulators.
  std::atomic<int64_t> map_in{0}, map_out{0}, red_groups{0}, red_out{0};
  std::vector<int64_t> reduce_end_vt(static_cast<std::size_t>(num_reduces), 0);
  std::vector<std::exception_ptr> errors(
      static_cast<std::size_t>(M + num_reduces));

  IMR_DEBUG << job_tag << ": " << M << " map tasks, " << num_reduces
            << " reduce tasks";

  // --- task bodies ---
  auto run_map_task = [&](int m) {
    const MapTaskSpec& spec = map_tasks[static_cast<std::size_t>(m)];
    TaskContext ctx(cluster_, job_tag + "/m" + std::to_string(m), spec.worker,
                    base_vt);
    ctx.charge(cost.task_init, TimeCategory::kTaskInit);
    cluster_.metrics().inc("map_tasks_launched");

    KVVec input;
    for (const InputSplit& split : spec.splits) {
      KVVec part = ctx.dfs_read_split(split);
      input.insert(input.end(), std::make_move_iterator(part.begin()),
                   std::make_move_iterator(part.end()));
    }
    map_in.fetch_add(static_cast<int64_t>(input.size()));

    std::unique_ptr<Mapper> mapper = spec.input->mapper();
    mapper->configure(conf.params);
    if (!conf.cache_path.empty()) {
      KVVec cache;
      for (const auto& f : resolve_input_paths(dfs, conf.cache_path)) {
        KVVec part = ctx.dfs_read_all(f);
        cache.insert(cache.end(), std::make_move_iterator(part.begin()),
                     std::make_move_iterator(part.end()));
      }
      sort_records(cache, /*sort_values=*/false);
      mapper->attach_cache(cache);
    }

    PartitionedEmitter emitter(num_reduces);
    ThreadCpuTimer cpu;
    for (const KV& kv : input) {
      mapper->map(kv.key, kv.value, emitter);
    }
    mapper->flush(emitter);
    ctx.charge_compute(cpu.elapsed_ns());
    map_out.fetch_add(emitter.emitted());

    std::unique_ptr<Reducer> combiner =
        conf.combiner ? conf.combiner() : nullptr;
    if (combiner) combiner->configure(conf.params);
    CombineFn combine_body;
    if (combiner) combine_body = combine_fn(*combiner);

    TraceSpan flush_span("shuffle_flush", ctx.vt());
    RecordArena arena;
    for (int r = 0; r < num_reduces; ++r) {
      KVVec& buf = emitter.buffers()[static_cast<std::size_t>(r)];
      if (combiner && !buf.empty()) {
        TraceSpan combine_span("combine", ctx.vt());
        const CombineRun run = combine_records(buf, combine_body, arena);
        ctx.charge_compute(run.order_cpu_ns, TimeCategory::kSort);
        ctx.charge_compute(run.combine_cpu_ns);
        cluster_.metrics().inc("combiner_records_saved",
                               static_cast<int64_t>(run.saved));
      } else {
        ThreadCpuTimer sort_cpu;
        sort_records(buf, /*sort_values=*/true);
        ctx.charge_compute(sort_cpu.elapsed_ns(), TimeCategory::kSort);
      }
      Endpoint& to = *reduce_ep[static_cast<std::size_t>(r)];
      if (!buf.empty()) {
        ctx.send_records(to, std::move(buf), m, /*iteration=*/0,
                         /*generation=*/0, TrafficCategory::kShuffle);
      }
      ctx.send_eos(to, m, /*iteration=*/0, /*generation=*/0,
                   TrafficCategory::kShuffle);
    }
  };

  auto run_reduce_task = [&](int r) {
    TaskContext ctx(cluster_, job_tag + "/r" + std::to_string(r),
                    reduce_worker[static_cast<std::size_t>(r)], base_vt);
    ctx.charge(cost.task_init, TimeCategory::kTaskInit);
    cluster_.metrics().inc("reduce_tasks_launched");

    Endpoint& ep = *reduce_ep[static_cast<std::size_t>(r)];
    // Memory governance (DESIGN.md §10): the same reduce-input stage as the
    // iterative engine's reduce, minus the iteration machinery.
    ReduceInput input(ctx, ctx.task_name(), conf.max_task_memory_bytes);
    int eos_seen = 0;
    while (eos_seen < M) {
      auto msg = ep.receive(ctx.vt());
      IMR_CHECK_MSG(msg.has_value(), "shuffle channel closed early");
      if (msg->kind == NetMessage::Kind::kEos) {
        ++eos_seen;
      } else {
        input.add(msg->take_records());
      }
    }
    input.sort();

    std::unique_ptr<Reducer> reducer = conf.reducer();
    reducer->configure(conf.params);
    KVVec output;
    VectorEmitter out_emitter(output);
    ThreadCpuTimer cpu;
    int64_t groups = 0;
    input.group([&](const Bytes& key, const std::vector<Bytes>& values) {
      ++groups;
      reducer->reduce(key, values, out_emitter);
    });
    ctx.charge_compute(cpu.elapsed_ns());
    red_groups.fetch_add(groups);
    red_out.fetch_add(static_cast<int64_t>(output.size()));

    ctx.dfs_write(conf.output_path + "/part-" + std::to_string(r),
                  std::move(output));
    reduce_end_vt[static_cast<std::size_t>(r)] = ctx.vt().now_ns();
  };

  // --- run: reduce threads first (they block on the shuffle), then maps ---
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(M + num_reduces));
  for (int r = 0; r < num_reduces; ++r) {
    threads.emplace_back([&, r] {
      try {
        run_reduce_task(r);
      } catch (...) {
        errors[static_cast<std::size_t>(M + r)] = std::current_exception();
        reduce_ep[static_cast<std::size_t>(r)]->close();
      }
    });
  }
  for (int m = 0; m < M; ++m) {
    threads.emplace_back([&, m] {
      try {
        run_map_task(m);
      } catch (...) {
        errors[static_cast<std::size_t>(m)] = std::current_exception();
        // Unblock reducers waiting for this map's EOS.
        for (auto& ep : reduce_ep) ep->close();
      }
    });
  }
  for (auto& t : threads) t.join();
  for (auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  for (int r = 0; r < num_reduces; ++r) {
    cluster_.fabric().remove_endpoint(reduce_ep[static_cast<std::size_t>(r)]->name());
  }

  JobResult result;
  result.submit_vt_ns = submit_vt_ns;
  int64_t max_reduce_end = base_vt;
  for (int64_t v : reduce_end_vt) max_reduce_end = std::max(max_reduce_end, v);
  result.end_vt_ns = max_reduce_end + cost.job_cleanup.count();
  cluster_.metrics().add_time(TimeCategory::kJobInit, cost.job_cleanup);
  result.critical_init_ns =
      cost.job_init.count() + cost.task_init.count() + cost.job_cleanup.count();
  result.map_input_records = map_in.load();
  result.map_output_records = map_out.load();
  result.reduce_input_groups = red_groups.load();
  result.reduce_output_records = red_out.load();
  if (traced) {
    TraceRecorder::instance().span_end("job", result.end_vt_ns);
    TraceRecorder::instance().set_thread_track(prev_track);
  }
  return result;
}

}  // namespace imr
