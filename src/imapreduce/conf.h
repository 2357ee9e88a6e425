// Iterative job configuration (§3.5's JobConf parameters, plus the §5
// extensions: one-to-all mapping, multiple map-reduce phases via successor
// chaining, and auxiliary phases).
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/params.h"
#include "graph/partition.h"
#include "imapreduce/api.h"

namespace imr {

// How the previous phase's reduce output feeds this phase's map (§5.1):
// one2one pairs reduce i with map i over the same key subset; one2all
// broadcasts every reduce task's output to every map task.
enum class Mapping { kOne2One, kOne2All };

// One map-reduce phase of an iteration. A single-phase job is the common
// graph case (§3); chaining phases reproduces job.addSuccessor (§5.2).
struct PhaseConf {
  IterMapperFactory mapper;
  IterReducerFactory reducer;
  IterReducerFactory combiner;  // optional map-side combiner
  // DFS path of this phase's static data; empty = no join at this phase
  // (e.g. matrix power joins the static multiplicand only at Map 2).
  std::string static_path;
  // How this phase's map receives its state input.
  Mapping mapping = Mapping::kOne2One;
};

// Auxiliary map-reduce phase (§5.3): runs concurrently with the main
// iteration, fed either by side-output records emitted by the main phase-0
// mapper or by a copy of the main last-phase reduce output. Its reducer can
// emit kTerminateSignalKey to stop the main job.
struct AuxConf {
  enum class Source { kMapSideOutput, kReduceOutput };
  IterMapperFactory mapper;
  IterReducerFactory reducer;
  Source source = Source::kMapSideOutput;
  int num_reduce_tasks = 1;
};

struct IterJobConf {
  std::string name = "iterjob";
  // mapred.iterjob.statepath — initial state data.
  std::string state_path;
  // Final state is dumped here as part files when the job terminates.
  std::string output_path;
  std::vector<PhaseConf> phases;

  // Persistent task pairs per phase. 0 = one pair per worker. The engine
  // checks that every phase's pairs fit in the cluster's task slots —
  // persistent tasks must all start up front (§3.1.1).
  int num_tasks = 0;

  // Termination (§3.1.2): stop at max_iterations, or earlier when the merged
  // distance drops below distance_threshold (>= 0 enables the check).
  int max_iterations = 10;           // mapred.iterjob.maxiter
  double distance_threshold = -1.0;  // mapred.iterjob.disthresh

  // Workset (frontier) iteration, the bulk-vs-incremental split of *Spinning
  // Fast Iterative Data Flows* (DESIGN.md §7). When enabled, each reduce
  // task tracks which state records its iteration actually CHANGED and ships
  // only those to its paired map — the next iteration's map phase visits the
  // active frontier instead of every key, joining per-key against the static
  // index. A third termination path joins the §3.1.2 protocol: the master
  // merges per-task workset sizes and terminates when the global workset
  // drains to zero. Requires a single-phase one2one job whose reducer obeys
  // the monotonic-update contract (IterReducer::merge); bulk mode stays
  // byte-for-byte available in the same binary for A/B verification.
  bool workset_mode = false;

  // §3.3: asynchronous map execution. When false (mapred.iterjob.sync), the
  // phase-0 maps of iteration k+1 wait for the master's decision on
  // iteration k — the behaviour labeled "iMapReduce (sync.)" in Figs. 4–7.
  // Forced off when phase 0 uses one2all mapping.
  bool async_maps = true;

  // §3.3: the reduce->map send buffer; a batch is shipped every
  // `buffer_records` records to amortize per-message overhead.
  int buffer_records = 4096;

  // §3.4.1: checkpoint the state every N iterations (0 = off). Required for
  // fault recovery and load balancing.
  int checkpoint_every = 0;

  // §3.4.2: report-driven task-pair migration.
  bool load_balancing = false;
  double migration_threshold = 0.4;  // relative deviation that triggers it

  std::optional<AuxConf> aux;

  // Partition-aware placement (DESIGN.md §9). null = the built-in flat hash
  // (byte-for-byte the pre-partitioner behavior). When set, every component
  // that routes a key — the map-side shuffle, the static/state partition
  // loaders, session update routing — consults this instance, and the master
  // co-locates partitions by its affinity matrix (see plan_placement). The
  // partitioner's partition count must equal the job's task count.
  std::shared_ptr<const Partitioner> partitioner;

  // Aggregated cross-worker exchange (DESIGN.md §9): shuffle output destined
  // for a REMOTE worker is held until the iteration barrier and flushed as
  // one coalesced batch per destination worker (TrafficCategory::kShuffleAgg)
  // instead of one message per reduce partition, and the frame doubles as
  // the sending map's iteration-EOS for every reduce on that worker — the
  // per-(map, reduce) EOS fan-out never crosses the wire. Local partitions
  // stream exactly as before. The coalesced batches arrive at the barrier
  // rather than interleaved; the value-sorted reduce makes arrival order
  // invisible to results.
  bool aggregated_shuffle = false;

  // Memory governance (DESIGN.md §10): per-task byte budget for held record
  // buffers and arena scratch. 0 = unlimited. When set, a map over its
  // budget ships the output it holds instead of holding it to the barrier,
  // and a reduce whose collected input overflows the budget sorts it and
  // spills a run to MiniDfs (TrafficCategory::kSpill), then streams a k-way
  // merge over its runs instead of materializing everything; output stays
  // byte-identical to the unlimited run.
  int64_t max_task_memory_bytes = 0;

  Params params;

  // Throws ConfigError when the combination is invalid.
  void validate() const {
    if (phases.empty()) throw ConfigError("iterative job needs >= 1 phase");
    for (const auto& p : phases) {
      if (!p.mapper || !p.reducer) {
        throw ConfigError("phase missing mapper or reducer");
      }
      if (p.mapping == Mapping::kOne2All && p.static_path.empty()) {
        throw ConfigError("one2all phase requires static data to map over");
      }
    }
    if (state_path.empty()) throw ConfigError("statepath not set");
    if (output_path.empty()) throw ConfigError("output path not set");
    if (max_iterations < 1) throw ConfigError("maxiter must be >= 1");
    bool single_one2one =
        phases.size() == 1 && phases[0].mapping == Mapping::kOne2One;
    if ((checkpoint_every > 0 || load_balancing) && !single_one2one) {
      throw ConfigError(
          "checkpointing/load balancing support single-phase one2one jobs");
    }
    if (load_balancing && checkpoint_every <= 0) {
      throw ConfigError(
          "load balancing migrates from checkpoints; set checkpoint_every");
    }
    if (workset_mode && !single_one2one) {
      throw ConfigError("workset_mode supports single-phase one2one jobs");
    }
    if (workset_mode && aux) {
      throw ConfigError(
          "workset_mode is incompatible with auxiliary phases: the frontier "
          "map emits no per-iteration side-output stream to feed them");
    }
    if (aux && (!aux->mapper || !aux->reducer)) {
      throw ConfigError("auxiliary phase missing mapper or reducer");
    }
    if (buffer_records < 1) throw ConfigError("buffer_records must be >= 1");
    if (partitioner && partitioner->num_partitions() == 0) {
      throw ConfigError("partitioner has zero partitions");
    }
    if (max_task_memory_bytes < 0) {
      throw ConfigError("max_task_memory_bytes must be >= 0 (0 = unlimited)");
    }
  }
};

}  // namespace imr
