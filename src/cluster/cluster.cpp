#include "cluster/cluster.h"

#include <algorithm>
#include <array>
#include <string>

#include "common/strings.h"

namespace imr {

Cluster::Cluster(ClusterConfig config)
    : config_(config), metrics_(config_.num_workers), telemetry_(metrics_) {
  IMR_CHECK(config_.num_workers > 0);
  IMR_CHECK(config_.map_slots_per_worker > 0);
  IMR_CHECK(config_.reduce_slots_per_worker > 0);
  dfs_ = std::make_unique<MiniDfs>(config_.num_workers, config_.cost,
                                   metrics_, config_.seed);
  fabric_ = std::make_unique<Fabric>(config_.cost, metrics_, &telemetry_);
  fabric_->set_liveness_probe([this](int w) {
    return w < 0 || w >= config_.num_workers || worker_alive(w);
  });
  speeds_.assign(static_cast<std::size_t>(config_.num_workers), 1.0);
  alive_.assign(static_cast<std::size_t>(config_.num_workers), true);
}

void Cluster::set_worker_speed(int worker, double speed) {
  check_worker(worker);
  IMR_CHECK(speed > 0);
  std::lock_guard<std::mutex> lock(mu_);
  speeds_[static_cast<std::size_t>(worker)] = speed;
}

double Cluster::worker_speed(int worker) const {
  check_worker(worker);
  std::lock_guard<std::mutex> lock(mu_);
  return speeds_[static_cast<std::size_t>(worker)];
}

void Cluster::set_fault_schedule(const FaultSchedule& schedule) {
  for (const FaultEvent& e : schedule.events()) schedule_fault(e);
}

void Cluster::schedule_fault(const FaultEvent& event) {
  check_worker(event.worker);
  IMR_CHECK_MSG(event.at_iteration >= 1, "faults fire from iteration 1");
  std::lock_guard<std::mutex> lock(mu_);
  pending_faults_.push_back(event);
}

void Cluster::schedule_worker_failure(int worker, int at_iteration) {
  schedule_fault(
      FaultEvent{worker, FaultPoint::kIterationBoundary, at_iteration});
}

bool Cluster::worker_failed(int worker, int finished_iteration) const {
  return fault_pending(worker, FaultPoint::kIterationBoundary,
                       finished_iteration);
}

bool Cluster::fault_pending(int worker, FaultPoint point, int iteration) const {
  check_worker(worker);
  std::lock_guard<std::mutex> lock(mu_);
  return std::any_of(pending_faults_.begin(), pending_faults_.end(),
                     [&](const FaultEvent& e) {
                       return e.worker == worker && e.point == point &&
                              iteration >= e.at_iteration;
                     });
}

namespace {
// Static-storage instant names for the trace (TraceEvent::name does not own),
// built once from the fault_point_name table.
const char* fault_instant_name(FaultPoint p) {
  static const auto names = [] {
    std::array<std::string, kNumFaultPoints> out;
    for (int i = 0; i < kNumFaultPoints; ++i) {
      out[i] = std::string("fault:") + fault_point_name(FaultPoint(i));
    }
    return out;
  }();
  return names[static_cast<std::size_t>(p)].c_str();
}
}  // namespace

bool Cluster::consume_fault(int worker, FaultPoint point, int iteration,
                            const VClock* vt) {
  check_worker(worker);
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = std::find_if(pending_faults_.begin(), pending_faults_.end(),
                           [&](const FaultEvent& e) {
                             return e.worker == worker && e.point == point &&
                                    iteration >= e.at_iteration;
                           });
    if (it == pending_faults_.end()) return false;
    // Consuming removes the event, so a second probe — another task on the
    // same worker, or a later job sharing this cluster — can never trip the
    // same fault again.
    pending_faults_.erase(it);
    ++consumed_faults_;
  }
  metrics_.inc("faults_injected");
  metrics_.inc(std::string("faults_injected_") + fault_point_name(point));
  if (TraceRecorder::enabled()) {
    TraceRecorder::instance().instant(fault_instant_name(point),
                                      vt != nullptr ? vt->now_ns() : 0,
                                      iteration);
  }
  return true;
}

int Cluster::pending_fault_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int>(pending_faults_.size());
}

int64_t Cluster::consumed_fault_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return consumed_faults_;
}

void Cluster::assert_faults_consumed() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (pending_faults_.empty()) return;
  const FaultEvent& e = pending_faults_.front();
  IMR_CHECK_MSG(false, strprintf(
                           "%d armed fault(s) never fired; first: worker %d, "
                           "%s, at_iteration %d",
                           static_cast<int>(pending_faults_.size()), e.worker,
                           fault_point_name(e.point), e.at_iteration));
}

void Cluster::mark_dead(int worker) {
  check_worker(worker);
  std::lock_guard<std::mutex> lock(mu_);
  alive_[static_cast<std::size_t>(worker)] = false;
}

bool Cluster::worker_alive(int worker) const {
  check_worker(worker);
  std::lock_guard<std::mutex> lock(mu_);
  return alive_[static_cast<std::size_t>(worker)];
}

void Cluster::revive_worker(int worker) {
  check_worker(worker);
  std::lock_guard<std::mutex> lock(mu_);
  alive_[static_cast<std::size_t>(worker)] = true;
  pending_faults_.erase(
      std::remove_if(pending_faults_.begin(), pending_faults_.end(),
                     [&](const FaultEvent& e) { return e.worker == worker; }),
      pending_faults_.end());
}

}  // namespace imr
