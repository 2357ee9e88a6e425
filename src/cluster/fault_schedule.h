// FaultSchedule — deterministic, seeded fault injection for chaos testing.
//
// A schedule is a list of FaultEvents, each arming one fault at one of the
// engine's injection points (§3.4.1 recovery is exercised at every point a
// real worker could die, not just iteration boundaries). Events are armed on
// the Cluster and *consumed exactly once* by the first task that reaches a
// matching injection point — so a schedule can never leak into a later job
// sharing the same cluster (see Cluster::consume_fault).
//
// All schedules are either hand-built (targeted regression tests) or derived
// from a single seed (FaultSchedule::random), so every chaos run is
// reproducible bit-for-bit from its seed.
#pragma once

#include <cstdint>
#include <vector>

namespace imr {

// Where in the iteration pipeline a fault trips. Tasks probe the cluster at
// each of these points; a matching armed event kills the probing task's
// worker there.
enum class FaultPoint : uint8_t {
  kIterationBoundary = 0,  // reduce finished iteration k (the classic point)
  kMidMap,                 // map is about to process iteration k's input
  kMidShuffle,             // map flushed shuffle data but sent no EOS yet
  kCheckpointWrite,        // reduce dies during the checkpoint dump (§3.4.1)
  kStatePush,              // reduce shipped part of its reduce->map state
  kMigration,              // a respawned (migrated/recovered) task dies on
                           // startup — failure during recovery (§3.4.2)
  kSpillWrite,             // task dies while writing a budgeted spill run
                           // (out-of-core record path, DESIGN.md §10)
  kDeltaApply,             // session map dies applying an update (§8)
};

const char* fault_point_name(FaultPoint p);
inline constexpr int kNumFaultPoints = 8;
// Points FaultSchedule::random draws from when no explicit set is given:
// the original six. kSpillWrite only fires in budget-limited runs and
// kDeltaApply in job sessions, so including them would plant never-firing
// events in every seeded chaos sweep (tripping expect_all_faults_consumed)
// and shift every existing seed's draw sequence.
inline constexpr int kNumDefaultFaultPoints = 6;

struct FaultEvent {
  int worker = 0;
  FaultPoint point = FaultPoint::kIterationBoundary;
  // The event matches the first probe with iteration >= at_iteration (same
  // "at or after" semantics the original schedule_worker_failure had).
  int at_iteration = 1;
};

class FaultSchedule {
 public:
  FaultSchedule() = default;

  FaultSchedule& add(FaultEvent e) {
    events_.push_back(e);
    return *this;
  }
  FaultSchedule& add(int worker, FaultPoint point, int at_iteration) {
    return add(FaultEvent{worker, point, at_iteration});
  }

  // `num_faults` events drawn deterministically from `seed`: workers in
  // [0, num_workers), iterations in [1, max_iteration], points from `points`
  // (the six default points when empty — pass kSpillWrite explicitly for
  // budget-limited runs). Distinct workers are preferred so that cascades
  // hit independent failure domains.
  static FaultSchedule random(uint64_t seed, int num_workers,
                              int max_iteration, int num_faults,
                              std::vector<FaultPoint> points = {});

  const std::vector<FaultEvent>& events() const { return events_; }
  bool empty() const { return events_.empty(); }
  std::size_t size() const { return events_.size(); }

 private:
  std::vector<FaultEvent> events_;
};

}  // namespace imr
