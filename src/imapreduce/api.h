// iMapReduce programming interface (§3.5).
//
// Compared to classic MapReduce, the map function takes TWO values for a key:
// the iterated *state* value and the immutable *static* value; the framework
// performs the state/static join automatically (§3.2.2). The reduce function
// sees state data only, and additionally supplies the distance() used for
// threshold-based termination (§3.1.2).
//
// Mapper/Reducer instances are PERSISTENT: one instance per task, living
// across iterations (the persistent-task model, §3.1.1). They may keep
// state between iterations — the K-means auxiliary convergence detector
// (§5.3) relies on this to remember the previous iteration's assignments.
// A task that restarts after a rollback or a session resume starts a fresh
// mapper, as a respawned task does; its reducer instance is kept.
#pragma once

#include <functional>
#include <memory>

#include "common/bytes.h"
#include "common/params.h"
#include "imapreduce/delta.h"
#include "mapreduce/api.h"  // Emitter

namespace imr {

// Emitter with an auxiliary side channel: records emitted via side() feed the
// auxiliary map-reduce phase (§5.3) when one is configured, and are dropped
// otherwise.
class IterEmitter : public Emitter {
 public:
  virtual void side(Bytes key, Bytes value) = 0;
};

class IterMapper {
 public:
  virtual ~IterMapper() = default;
  virtual void configure(const Params& /*params*/) {}

  // One-to-one mapping (§3.2): called per joined (state, static) record.
  // `stat` is empty when the key has no static record (or the phase has no
  // static data).
  virtual void map(const Bytes& key, const Bytes& state, const Bytes& stat,
                   IterEmitter& out) {
    (void)key;
    (void)state;
    (void)stat;
    (void)out;
    throw Error("one2one map() not implemented");
  }

  // Called once at the end of every iteration, after the last map()/
  // map_all() of the iteration; lets a persistent mapper emit per-iteration
  // aggregates (the K-means auxiliary convergence detector emits its
  // "nodes that stayed" count here, §5.3.1).
  virtual void flush(IterEmitter& /*out*/) {}

  // One-to-all mapping (§5.1): called per static record with the complete
  // state list gathered from all reduce tasks (e.g. all K-means centroids).
  virtual void map_all(const Bytes& key, const Bytes& stat,
                       const KVVec& states, IterEmitter& out) {
    (void)key;
    (void)stat;
    (void)states;
    (void)out;
    throw Error("one2all map_all() not implemented");
  }

  // Incremental recomputation hook (job sessions, DESIGN.md §8): called once
  // per static-delta op landing on this task's partition, BEFORE the op is
  // applied. `old_value` is the key's current static record (nullptr when
  // absent). Push <key, fallback-initial-state> records into `seeds` for
  // every key whose converged state must be re-propagated; the engine
  // resolves each seed against the converged state (the fallback value is
  // used only for keys that have none yet) and makes the seed set the resume
  // epoch's initial workset.
  //
  // Return true when the op REFINES the converged state — i.e. re-running
  // the frontier from the seeds alone, with merge() reconciling against the
  // converged values, reaches the same fixpoint a cold run over the mutated
  // input would (monotone additions: a new edge, a shorter weight). Return
  // false for anything non-monotone (removals, weight increases, or when
  // unsure): one false verdict anywhere makes the engine discard the
  // converged state and replay the full iteration from the initial state
  // inside the session — always correct, just not incremental. The default
  // declines every op.
  virtual bool perturbed_keys(const StaticDeltaOp& op, const Bytes* old_value,
                              KVVec& seeds) {
    (void)op;
    (void)old_value;
    (void)seeds;
    return false;
  }
};

class IterReducer {
 public:
  virtual ~IterReducer() = default;
  virtual void configure(const Params& /*params*/) {}

  virtual void reduce(const Bytes& key, const std::vector<Bytes>& values,
                      IterEmitter& out) = 0;

  // Distance between a key's previous and current state value; summed over
  // keys and merged across reduce tasks by the master (§3.5). `prev` is
  // empty on the first iteration.
  virtual double distance(const Bytes& key, const Bytes& prev,
                          const Bytes& cur) {
    (void)key;
    (void)prev;
    (void)cur;
    return 0.0;
  }

  // Workset mode only (IterJobConf::workset_mode): combine the key's
  // previous state value with `cur`, the value reduce() just produced from
  // this iteration's candidates. In workset mode the reduce sees only keys
  // that RECEIVED records this iteration — a key outside the frontier gets
  // no retained record from its own mapper, so `cur` is computed from the
  // incoming candidates alone and must be reconciled against `prev` here.
  //
  // The monotonic-update contract (DESIGN.md §7): merge must be such that
  // re-applying any already-applied candidate is a no-op — i.e. the state
  // only ever moves toward the fixpoint, and stale or duplicate candidate
  // deliveries (rollback replay restores the exact frontier, but a reducer
  // must not DEPEND on exactly-once application) cannot move it backwards.
  // Selective reducers (min/max) satisfy it with merge = min(prev, cur);
  // accumulative ones must carry enough state to make the update idempotent
  // (see PageRank::imapreduce_delta). `prev` is empty when the key has no
  // state yet; the default keeps `cur`, which is correct only for reducers
  // whose reduce() output already dominates the previous value.
  virtual Bytes merge(const Bytes& key, const Bytes& prev, const Bytes& cur) {
    (void)key;
    (void)prev;
    return cur;
  }
};

using IterMapperFactory = std::function<std::unique_ptr<IterMapper>()>;
using IterReducerFactory = std::function<std::unique_ptr<IterReducer>()>;

// Emitting this key from an auxiliary reducer signals the master to
// terminate the main iterative job (§5.3.2's "termination signals").
inline const char* kTerminateSignalKey = "__imr_terminate__";

// Lambda adapters for simple user code. The optional perturb_fn implements
// IterMapper::perturbed_keys for session-capable mappers.
using PerturbFn =
    std::function<bool(const StaticDeltaOp&, const Bytes*, KVVec&)>;
IterMapperFactory make_iter_mapper(
    std::function<void(const Bytes&, const Bytes&, const Bytes&, IterEmitter&)>
        fn,
    PerturbFn perturb_fn = nullptr);
IterMapperFactory make_iter_mapper_all(
    std::function<void(const Bytes&, const Bytes&, const KVVec&, IterEmitter&)>
        fn);
IterReducerFactory make_iter_reducer(
    std::function<void(const Bytes&, const std::vector<Bytes>&, IterEmitter&)>
        reduce_fn,
    std::function<double(const Bytes&, const Bytes&, const Bytes&)> distance_fn =
        nullptr,
    std::function<Bytes(const Bytes&, const Bytes&, const Bytes&)> merge_fn =
        nullptr);

}  // namespace imr
