// InvariantChecker — conservation and recovery invariants over a finished
// run. The chaos harness runs it after every fault-injected job; a clean
// failure-free run must satisfy the same invariants trivially.
//
// The checker deliberately consumes only plain data (MetricsRegistry,
// RunReport, ChannelStats snapshots) so that it sits at the metrics layer:
// higher layers (net, cluster, the test harness) gather the snapshots and
// hand them down.
//
// Checked invariants:
//   1. traffic conservation  — per category, 0 <= remote bytes <= bytes, and
//      total remote <= total (nothing is double-counted or negative);
//   2. channel conservation  — every send attempt is accounted for:
//      attempts == delivered + dropped + rejected, and once quiesced
//      delivered == received + discarded (no message is lost outside the
//      declared drop/discard ledger, none materializes from nowhere);
//   3. co-location           — the one2one reduce->map state channel moved
//      zero remote bytes (§3.2.1's saving survives recovery and migration,
//      because a pair's endpoints always move together);
//   4. output consistency    — every final part file was dumped at the same
//      iteration, which equals the run's decided iteration count (§3.1.2's
//      deterministic-termination contract);
//   5. iteration ledger      — decided iterations advance by exactly one,
//      except across a recorded rollback, where they restart at
//      rollback + 1 (exactly-once application of every decided iteration);
//      each decided iteration's reports name distinct tasks, and every
//      iteration of a run carries the same number of reports (one per
//      last-phase reduce; none for the classic driver);
//   6. recovery accounting   — the master recovered exactly once per
//      injected worker death;
//   7. state conservation    — the final state holds exactly the expected
//      number of records. Conservation is checked on the FINAL STATE, not
//      on per-iteration channel transfers: a workset-mode map phase
//      legitimately receives fewer records than there are keys (only the
//      frontier is shipped), so counting channel sends against the key
//      count would trip false positives on every frontier iteration;
//   8. workset ledger        — bulk runs record no workset sizes (-1
//      sentinel everywhere); workset runs record a non-negative size per
//      decided iteration, never exceeding the state record count, and a
//      drained (zero) workset appears only as a suffix of its session —
//      a zero followed by a non-zero in the SAME session means the run kept
//      iterating past its fixpoint (trailing zeros are legal: a recovery
//      that rolls back to the drain checkpoint re-decides drained
//      iterations before quiescing);
//   9. delta conservation    — every static-delta op the session master
//      routed was applied by exactly one map task (job sessions mutate the
//      static stores exactly once per op, no loss, no double-apply);
//  10. quiet snapshot         — when a traffic-matrix snapshot is attached
//      (it is the registry's own record, read earlier by the caller), its
//      per-category sums equal the registry's at the check: bytes,
//      off-diagonal (remote) bytes and transfers. It checks that nothing
//      charged traffic between the caller's snapshot and the check;
//  11. spill conservation   — every byte (and every run) spilled to MiniDfs
//      by the out-of-core record path is either merged back or explicitly
//      dropped: written == read + dropped, for bytes and for run counts.
//      Dropped covers rollback GC, torn writes, and end-of-run sweeps — a
//      run that silently vanishes (or is merged twice) breaks the ledger.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "metrics/metrics.h"

namespace imr {

// Snapshot of a Fabric's message ledger (Fabric::channel_stats()).
struct ChannelStats {
  int64_t attempts = 0;   // send() calls including fault-injected retries
  int64_t delivered = 0;  // enqueued at a receiver mailbox
  int64_t dropped = 0;    // lost to an injected channel fault (then retried)
  int64_t rejected = 0;   // pushed to a closed mailbox (late producer)
  int64_t received = 0;   // popped by a receiver
  int64_t discarded = 0;  // delivered but destroyed unread (rollback/teardown)
};

struct InvariantExpectations {
  // The job ran one2one phases with paired endpoints co-located: expect zero
  // remote bytes on the reduce->map channel. Disable for one2all jobs.
  bool colocated_state_channel = true;
  // All endpoints are torn down: delivered == received + discarded. Disable
  // when checking mid-run.
  bool quiesced = true;
  // Exact number of recoveries the run must have performed (-1 = skip).
  int expected_recoveries = -1;
  // Exact number of final part files / Done notices (-1 = skip).
  int expected_parts = -1;
  // Exact number of records the final state must hold across all part files
  // (-1 = skip). Checked against RunReport::final_state_records — the
  // frontier-aware conservation rule (invariant 7).
  int64_t expected_state_records = -1;
  // Whether the run was a workset-mode run; drives the workset ledger rule
  // (invariant 8) in both directions.
  bool workset_mode = false;
  // Exact number of static-delta ops the session was fed (-1 = skip the
  // exact-count check; the routed == applied conservation is always on).
  // Replayed ops (recovery rebuilds) are counted separately and are NOT
  // part of this balance.
  int64_t expected_delta_ops = -1;
};

class InvariantChecker {
 public:
  explicit InvariantChecker(const MetricsRegistry& metrics)
      : metrics_(metrics) {}

  InvariantChecker& with_channel_stats(const ChannelStats& stats) {
    channel_ = stats;
    has_channel_ = true;
    return *this;
  }
  InvariantChecker& with_report(const RunReport& report) {
    report_ = &report;
    return *this;
  }
  // Attach an earlier snapshot of the registry's traffic matrix (stored by
  // value — snapshots are plain data) and arm invariant 10.
  InvariantChecker& with_traffic_matrix(TrafficMatrixSnapshot matrix) {
    matrix_ = std::move(matrix);
    has_matrix_ = true;
    return *this;
  }

  // Returns one human-readable line per violated invariant; empty = clean.
  std::vector<std::string> check(
      const InvariantExpectations& expect = {}) const;

 private:
  const MetricsRegistry& metrics_;
  ChannelStats channel_;
  bool has_channel_ = false;
  const RunReport* report_ = nullptr;
  TrafficMatrixSnapshot matrix_;
  bool has_matrix_ = false;
};

}  // namespace imr
