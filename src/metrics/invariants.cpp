#include "metrics/invariants.h"

#include <algorithm>
#include <set>

#include "common/strings.h"

namespace imr {

std::vector<std::string> InvariantChecker::check(
    const InvariantExpectations& expect) const {
  std::vector<std::string> violations;
  auto fail = [&](std::string what) { violations.push_back(std::move(what)); };

  // Rules 1, 3 and 10 read one snapshot of the registry's traffic matrix.
  const TrafficMatrixSnapshot traffic = metrics_.traffic_matrix();

  // 1. Traffic conservation.
  int64_t total_bytes = 0;
  int64_t total_remote = 0;
  for (int cat = 0; cat < kNumTrafficCategories; ++cat) {
    auto c = static_cast<TrafficCategory>(cat);
    int64_t bytes = traffic.category_bytes(c);
    int64_t remote = traffic.category_remote_bytes(c);
    total_bytes += bytes;
    total_remote += remote;
    if (bytes < 0 || remote < 0 || remote > bytes) {
      fail(strprintf("traffic[%s]: remote %lld outside [0, total %lld]",
                     traffic_category_name(c),
                     static_cast<long long>(remote),
                     static_cast<long long>(bytes)));
    }
  }
  if (total_remote > total_bytes) {
    fail("total remote bytes exceed total bytes");
  }

  // 2. Channel conservation.
  if (has_channel_) {
    const ChannelStats& s = channel_;
    if (s.attempts != s.delivered + s.dropped + s.rejected) {
      fail(strprintf("channel ledger: attempts %lld != delivered %lld + "
                     "dropped %lld + rejected %lld",
                     static_cast<long long>(s.attempts),
                     static_cast<long long>(s.delivered),
                     static_cast<long long>(s.dropped),
                     static_cast<long long>(s.rejected)));
    }
    if (expect.quiesced && s.delivered != s.received + s.discarded) {
      fail(strprintf("channel ledger: delivered %lld != received %lld + "
                     "discarded %lld after quiesce",
                     static_cast<long long>(s.delivered),
                     static_cast<long long>(s.received),
                     static_cast<long long>(s.discarded)));
    }
  }

  // 3. Co-location of the one2one reduce->map state channel.
  if (expect.colocated_state_channel) {
    int64_t remote =
        traffic.category_remote_bytes(TrafficCategory::kReduceToMap);
    if (remote != 0) {
      fail(strprintf("reduce->map channel moved %lld remote bytes; one2one "
                     "pairs must stay co-located through recovery",
                     static_cast<long long>(remote)));
    }
  }

  if (report_ != nullptr) {
    const RunReport& r = *report_;

    // 4. Output consistency: every part dumped at the final iteration.
    if (expect.expected_parts >= 0 &&
        static_cast<int>(r.final_part_iterations.size()) !=
            expect.expected_parts) {
      fail(strprintf("expected %d final part files, saw %d",
                     expect.expected_parts,
                     static_cast<int>(r.final_part_iterations.size())));
    }
    for (int it : r.final_part_iterations) {
      if (it != r.iterations_run) {
        fail(strprintf("part file dumped at iteration %d, run decided %d",
                       it, r.iterations_run));
      }
    }

    // 5. Iteration ledger: strictly +1 steps within a session. A rollback
    // truncates the entries above the restored checkpoint before the re-run
    // appends, so even a recovered run must read as one consecutive
    // sequence — duplicated or regressing entries mean the truncation was
    // skipped. A session boundary (apply_update) resumes above the decided
    // drain iteration, so across it the ledger must only advance.
    for (std::size_t n = 1; n < r.iterations.size(); ++n) {
      int prev = r.iterations[n - 1].iteration;
      int cur = r.iterations[n].iteration;
      int prev_sess = r.iterations[n - 1].session;
      int cur_sess = r.iterations[n].session;
      if (cur_sess < prev_sess) {
        fail(strprintf("session ledger regresses %d -> %d at iteration %d",
                       prev_sess, cur_sess, cur));
      }
      if (cur_sess != prev_sess) {
        if (cur <= prev) {
          fail(strprintf("iteration ledger regresses %d -> %d across the "
                         "session %d -> %d boundary",
                         prev, cur, prev_sess, cur_sess));
        }
      } else if (cur != prev + 1) {
        fail(strprintf("iteration ledger jumps %d -> %d; entries must step "
                       "by one even across rollbacks",
                       prev, cur));
      }
    }
    if (!r.iterations.empty() &&
        r.iterations.back().iteration != r.iterations_run) {
      fail(strprintf("last decided iteration %d != iterations_run %d",
                     r.iterations.back().iteration, r.iterations_run));
    }
    // Each decision read one report per last-phase reduce: no task twice,
    // and the same count in every iteration of the run.
    for (const IterationStat& st : r.iterations) {
      std::set<int> tasks;
      for (const TaskReport& rep : st.reports) tasks.insert(rep.task);
      if (tasks.size() != st.reports.size()) {
        fail(strprintf("iteration %d repeats a reporting task", st.iteration));
      }
      if (st.reports.size() != r.iterations.front().reports.size()) {
        fail(strprintf("iteration %d decided on %zu reports, the first "
                       "on %zu",
                       st.iteration, st.reports.size(),
                       r.iterations.front().reports.size()));
      }
    }

    // 6. Recovery accounting.
    if (expect.expected_recoveries >= 0 &&
        static_cast<int>(r.rollback_iterations.size()) -
                r.migration_rollbacks !=
            expect.expected_recoveries) {
      fail(strprintf("expected %d recovery rollbacks, saw %d",
                     expect.expected_recoveries,
                     static_cast<int>(r.rollback_iterations.size()) -
                         r.migration_rollbacks));
    }

    // 7. State conservation (frontier-aware): checked on the final state,
    // not on channel transfers — workset map phases legitimately see fewer
    // records than keys, so only the end-of-run state must balance.
    if (expect.expected_state_records >= 0 &&
        r.final_state_records != expect.expected_state_records) {
      fail(strprintf("final state holds %lld records, expected %lld",
                     static_cast<long long>(r.final_state_records),
                     static_cast<long long>(expect.expected_state_records)));
    }

    // 8. Workset ledger.
    for (std::size_t n = 0; n < r.iterations.size(); ++n) {
      int64_t ws = r.iterations[n].workset_size;
      int iter = r.iterations[n].iteration;
      if (!expect.workset_mode) {
        if (ws != -1) {
          fail(strprintf("bulk run recorded workset size %lld at iteration "
                         "%d; expected the -1 sentinel",
                         static_cast<long long>(ws), iter));
        }
        continue;
      }
      if (ws < 0) {
        fail(strprintf("workset run missing workset size at iteration %d",
                       iter));
        continue;
      }
      if (expect.expected_state_records >= 0 &&
          ws > expect.expected_state_records) {
        fail(strprintf("workset size %lld at iteration %d exceeds the %lld "
                       "state records",
                       static_cast<long long>(ws), iter,
                       static_cast<long long>(
                           expect.expected_state_records)));
      }
      // A drained workset may only be followed, within the same session, by
      // further drained entries (a recovery that rolled back to the drain
      // checkpoint re-decides them); a non-zero after a zero means the run
      // kept iterating past its fixpoint.
      if (ws == 0 && n + 1 < r.iterations.size() &&
          r.iterations[n + 1].session == r.iterations[n].session &&
          r.iterations[n + 1].workset_size != 0) {
        fail(strprintf("workset drained at iteration %d but the run kept "
                       "iterating past its fixpoint",
                       iter));
      }
    }
  }
  if (expect.expected_recoveries >= 0 &&
      metrics_.count("imr_recoveries") != expect.expected_recoveries) {
    fail(strprintf("expected %d recoveries, metrics count %lld",
                   expect.expected_recoveries,
                   static_cast<long long>(metrics_.count("imr_recoveries"))));
  }

  // 9. Delta conservation: every routed static-delta op was applied by
  // exactly one map task. Replay (imr_delta_ops_replayed) re-applies ops to
  // a REBUILT store during recovery and is deliberately outside this
  // balance — it never pairs with a route.
  {
    int64_t routed = metrics_.count("imr_delta_ops_routed");
    int64_t applied = metrics_.count("imr_delta_ops_applied");
    if (routed != applied) {
      fail(strprintf("delta ledger: %lld ops routed but %lld applied",
                     static_cast<long long>(routed),
                     static_cast<long long>(applied)));
    }
    if (expect.expected_delta_ops >= 0 && routed != expect.expected_delta_ops) {
      fail(strprintf("expected %lld delta ops, routed %lld",
                     static_cast<long long>(expect.expected_delta_ops),
                     static_cast<long long>(routed)));
    }
  }

  // 10. Quiet snapshot: the caller's matrix snapshot is the registry's own
  // record taken earlier, so per category its sums must equal the check's
  // snapshot exactly — bytes, off-diagonal (remote) bytes, and transfers.
  // A difference means traffic was charged between the two reads.
  if (has_matrix_) {
    for (int cat = 0; cat < kNumTrafficCategories; ++cat) {
      auto c = static_cast<TrafficCategory>(cat);
      const int64_t m_bytes = matrix_.category_bytes(c);
      const int64_t m_remote = matrix_.category_remote_bytes(c);
      const int64_t m_msgs = matrix_.category_msgs(c);
      const int64_t bytes = traffic.category_bytes(c);
      const int64_t remote = traffic.category_remote_bytes(c);
      const int64_t msgs = traffic.category_msgs(c);
      if (m_bytes != bytes) {
        fail(strprintf("traffic snapshot[%s]: %lld bytes != registry %lld",
                       traffic_category_name(c),
                       static_cast<long long>(m_bytes),
                       static_cast<long long>(bytes)));
      }
      if (m_remote != remote) {
        fail(strprintf(
            "traffic snapshot[%s]: %lld remote bytes != registry %lld",
            traffic_category_name(c), static_cast<long long>(m_remote),
            static_cast<long long>(remote)));
      }
      if (m_msgs != msgs) {
        fail(strprintf("traffic snapshot[%s]: %lld messages != registry "
                       "%lld transfers",
                       traffic_category_name(c),
                       static_cast<long long>(m_msgs),
                       static_cast<long long>(msgs)));
      }
    }
  }

  // 11. Spill conservation: the out-of-core record path accounts for every
  // spilled run. Written runs are merged back (read) or explicitly dropped
  // (rollback GC, torn writes, end-of-run sweep) — never lost or replayed
  // into the output twice.
  {
    int64_t written = metrics_.count("imr_spill_bytes_written");
    int64_t read = metrics_.count("imr_spill_bytes_read");
    int64_t dropped = metrics_.count("imr_spill_bytes_dropped");
    if (written != read + dropped) {
      fail(strprintf("spill ledger: %lld bytes written != %lld read + %lld "
                     "dropped",
                     static_cast<long long>(written),
                     static_cast<long long>(read),
                     static_cast<long long>(dropped)));
    }
    int64_t runs_written = metrics_.count("imr_spill_runs_written");
    int64_t runs_read = metrics_.count("imr_spill_runs_read");
    int64_t runs_dropped = metrics_.count("imr_spill_runs_dropped");
    if (runs_written != runs_read + runs_dropped) {
      fail(strprintf("spill ledger: %lld runs written != %lld read + %lld "
                     "dropped",
                     static_cast<long long>(runs_written),
                     static_cast<long long>(runs_read),
                     static_cast<long long>(runs_dropped)));
    }
  }

  return violations;
}

}  // namespace imr
