// Classic MapReduce programming interface (the Hadoop-equivalent baseline).
//
// User code implements Mapper/Reducer over byte records; factories produce a
// fresh instance per task because tasks run concurrently and may keep state.
// A Combiner is a Reducer run on the map side (§5.1.3's K-means-with-Combiner
// experiment uses it).
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/params.h"

namespace imr {

// Receives the key-value pairs produced by user functions.
class Emitter {
 public:
  virtual ~Emitter() = default;
  virtual void emit(Bytes key, Bytes value) = 0;
};

class Mapper {
 public:
  virtual ~Mapper() = default;
  // Called once per task before any map() with the job parameters.
  virtual void configure(const Params& /*params*/) {}
  // Called once per task with the records of JobConf::cache_path (Hadoop
  // distributed-cache equivalent; e.g. the current K-means centroids).
  virtual void attach_cache(const KVVec& /*records*/) {}
  virtual void map(const Bytes& key, const Bytes& value, Emitter& out) = 0;
  // Called once per task after the last map() (Hadoop's cleanup()); lets a
  // mapper emit per-task aggregates (e.g. a partial gradient).
  virtual void flush(Emitter& /*out*/) {}
};

class Reducer {
 public:
  virtual ~Reducer() = default;
  virtual void configure(const Params& /*params*/) {}
  // `values` arrive sorted, so floating-point accumulation does not depend
  // on shuffle arrival order.
  virtual void reduce(const Bytes& key, const std::vector<Bytes>& values,
                      Emitter& out) = 0;
};

using MapperFactory = std::function<std::unique_ptr<Mapper>()>;
using ReducerFactory = std::function<std::unique_ptr<Reducer>()>;

// Adapters for lambda-style user code.
MapperFactory make_mapper(
    std::function<void(const Bytes&, const Bytes&, Emitter&)> fn);
ReducerFactory make_reducer(
    std::function<void(const Bytes&, const std::vector<Bytes>&, Emitter&)> fn);

// An input source: a DFS path (file or directory prefix) with the mapper
// applied to its records. Multiple inputs reproduce Hadoop's MultipleInputs,
// which the convergence-check job needs (it reads two consecutive iteration
// outputs).
struct InputSpec {
  std::string path;
  MapperFactory mapper;
};

struct JobConf {
  std::string name = "job";
  std::vector<InputSpec> inputs;
  std::string output_path;
  // Optional side file (or directory) read by every map task at startup and
  // passed to Mapper::attach_cache — Hadoop's distributed cache. Charged as
  // a DFS read per map task, every job.
  std::string cache_path;
  ReducerFactory reducer;
  ReducerFactory combiner;  // optional
  int num_map_tasks = 0;    // 0: one per input block, capped by map slots
  int num_reduce_tasks = 0; // 0: all reduce slots
  Params params;
  // Memory governance (DESIGN.md §10): per-reduce-task byte budget for the
  // collected shuffle input. 0 = unlimited (today's behavior). When set,
  // over-budget input is sorted and spilled to MiniDfs as runs and the group
  // pass streams a k-way merge over runs + in-memory tail — byte-identical
  // output.
  int64_t max_task_memory_bytes = 0;

  // Convenience for the common single-input case.
  void set_input(std::string path, MapperFactory mapper) {
    inputs.clear();
    inputs.push_back(InputSpec{std::move(path), std::move(mapper)});
  }
};

// Outcome of one job, in virtual time.
struct JobResult {
  int64_t submit_vt_ns = 0;
  int64_t end_vt_ns = 0;
  // Initialization charged on the critical path (job setup + first task
  // wave launch) — the paper's "(ex. init.)" curves subtract this.
  int64_t critical_init_ns = 0;
  int64_t map_input_records = 0;
  int64_t map_output_records = 0;
  int64_t reduce_input_groups = 0;
  int64_t reduce_output_records = 0;

  double duration_ms() const {
    return static_cast<double>(end_vt_ns - submit_vt_ns) / 1e6;
  }
};

}  // namespace imr
