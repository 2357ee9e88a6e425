#include "cluster/fault_schedule.h"

#include "common/error.h"
#include "common/rng.h"

namespace imr {

const char* fault_point_name(FaultPoint p) {
  switch (p) {
    case FaultPoint::kIterationBoundary:
      return "iteration_boundary";
    case FaultPoint::kMidMap:
      return "mid_map";
    case FaultPoint::kMidShuffle:
      return "mid_shuffle";
    case FaultPoint::kCheckpointWrite:
      return "checkpoint_write";
    case FaultPoint::kStatePush:
      return "state_push";
    case FaultPoint::kMigration:
      return "migration";
    case FaultPoint::kSpillWrite:
      return "spill_write";
    case FaultPoint::kDeltaApply:
      return "delta_apply";
  }
  return "unknown";
}

FaultSchedule FaultSchedule::random(uint64_t seed, int num_workers,
                                    int max_iteration, int num_faults,
                                    std::vector<FaultPoint> points) {
  IMR_CHECK(num_workers > 0);
  IMR_CHECK(max_iteration >= 1);
  if (points.empty()) {
    for (int p = 0; p < kNumDefaultFaultPoints; ++p) {
      points.push_back(static_cast<FaultPoint>(p));
    }
  }
  Rng rng(seed);
  FaultSchedule schedule;
  // Prefer distinct workers: draw a worker not yet scheduled while one
  // exists, so a k-fault schedule kills k distinct failure domains.
  std::vector<bool> used(static_cast<std::size_t>(num_workers), false);
  int used_count = 0;
  for (int n = 0; n < num_faults; ++n) {
    int worker = static_cast<int>(rng.uniform(static_cast<uint64_t>(num_workers)));
    if (used_count < num_workers) {
      while (used[static_cast<std::size_t>(worker)]) {
        worker = (worker + 1) % num_workers;
      }
    }
    if (!used[static_cast<std::size_t>(worker)]) {
      used[static_cast<std::size_t>(worker)] = true;
      ++used_count;
    }
    FaultEvent e;
    e.worker = worker;
    e.point = points[static_cast<std::size_t>(rng.uniform(points.size()))];
    e.at_iteration =
        1 + static_cast<int>(rng.uniform(static_cast<uint64_t>(max_iteration)));
    schedule.add(e);
  }
  return schedule;
}

}  // namespace imr
